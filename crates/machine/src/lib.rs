//! The composed CRAY-T3D machine: Alpha 21064 nodes, Cray shell, 3-D
//! torus — in deterministic virtual time.
//!
//! Each node owns a cycle clock; every operation's cost is a
//! deterministic function of machine state, so runs are exactly
//! repeatable. The "assembly level" interface the paper's probes are
//! written against is [`Cpu`], a handle bound to one PE: loads and
//! stores on (annex-translated) virtual addresses, `fetch` hints, memory
//! barriers, annex updates, message sends, BLT invocations and atomic
//! operations. Each of its methods is one call into the op core, the
//! single body of every op, for the PE it is bound to.
//!
//! Cross-node programs run in bulk-synchronous phases: the [`phase`]
//! engine runs one closure per PE as independent shards, on threads if
//! asked, bit-identically to running them in turn; each closure gets a
//! [`Cpu`] bound to its own PE's shard, and [`Machine::barrier_all`]
//! aligns the clocks between phases.
//!
//! # Example
//!
//! ```
//! use t3d_machine::{Cpu, Machine, MachineConfig};
//! use t3d_shell::FuncCode;
//!
//! let mut m = Machine::new(MachineConfig::t3d(2));
//! m.poke8(1, 0x1000, 99);
//! // PE 0 points annex register 1 at PE 1 and reads its word 0x1000.
//! let mut cpu = Cpu::new(&mut m, 0);
//! cpu.annex_set(1, 1, FuncCode::Uncached);
//! let va = cpu.va(1, 0x1000);
//! assert_eq!(cpu.ld8(va), 99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cpu;
pub mod machine;
pub mod node;
mod ops;
pub mod phase;
pub mod snapshot;
pub mod trace;

pub use config::MachineConfig;
pub use cpu::Cpu;
pub use machine::{BltHandle, Machine, MachineSizeError};
pub use node::{EventStats, Node, NodeHot, OpStats};
pub use phase::PhaseDriver;
pub use snapshot::{MemSnapshot, SnapshotDiff};
pub use trace::{TraceEvent, TraceKind, Tracer};

pub use t3d_perf as perf;
pub use t3d_perf::{CostClass, PerfMode, PerfReport};

pub use t3d_memsys as memsys;
pub use t3d_shell as shell;
pub use t3d_torus as torus;
