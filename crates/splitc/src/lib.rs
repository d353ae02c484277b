//! Split-C runtime for the simulated CRAY-T3D — the paper's "compiler
//! perspective".
//!
//! Split-C extends C with a global address space over an SPMD thread per
//! processor. This crate is the runtime the paper's gray-box study
//! produces: every language primitive is implemented on the fastest
//! shell mechanism the micro-benchmarks identified, with the semantic
//! workarounds the paper documents:
//!
//! * [`GlobalPtr`] — 64-bit global pointers: PE in the upper 16 bits,
//!   local address in the lower 48, with both *local* and *global*
//!   address arithmetic (Section 3.3).
//! * [`annex`] — annex-register management policies: the single-register
//!   scheme the paper settles on, the caching and hashed multi-register
//!   alternatives it weighs, and the deliberately unsafe multi-register
//!   scheme that reproduces the write-buffer synonym hazard
//!   (Section 3.4).
//! * [`ScCtx::read_u64`] / [`ScCtx::write_u64`] — blocking read and
//!   write on uncached loads and acknowledged stores (Section 4).
//! * [`ScCtx::get`] / [`ScCtx::put`] / [`ScCtx::sync`] — split-phase
//!   access on the binding prefetch queue and non-blocking stores, with
//!   the target-address table the paper describes (Section 5).
//! * [`ScCtx::store_u64`] + [`SplitC::all_store_sync`] /
//!   [`ScCtx::store_sync`] — signaling stores for bulk-synchronous and
//!   message-driven execution (Section 7).
//! * [`bulk`] — bulk transfer with the measured mechanism crossovers:
//!   uncached reads for 8 B, the prefetch queue up to 16 KB, the BLT
//!   beyond; stores for all bulk writes; 7,900 B prefetch/BLT crossover
//!   for non-blocking gets (Section 6).
//! * [`amq`] — the Active-Message-equivalent remote queue built from
//!   fetch&increment plus stores, which replaces the 25 µs interrupt
//!   path (Section 7.4), and on which correct byte writes are built
//!   (Section 4.5).
//!
//! # Example
//!
//! ```
//! use splitc::{GlobalPtr, SplitC};
//! use t3d_machine::MachineConfig;
//!
//! let mut sc = SplitC::new(MachineConfig::t3d(4));
//! let buf = sc.alloc(64, 8);
//! // Every node writes a word on its right neighbour.
//! sc.run_phase(|ctx| {
//!     let right = (ctx.pe() + 1) % ctx.nodes();
//!     let gp = GlobalPtr::new(right as u32, buf);
//!     ctx.write_u64(gp, 1000 + ctx.pe() as u64);
//! });
//! sc.barrier();
//! sc.run_phase(|ctx| {
//!     let left = (ctx.pe() + ctx.nodes() - 1) % ctx.nodes();
//!     let mine = GlobalPtr::new(ctx.pe() as u32, buf);
//!     assert_eq!(ctx.read_u64(mine), 1000 + left as u64);
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amq;
pub mod annex;
pub mod bulk;
pub mod bytewrite;
pub mod coll;
pub mod config;
pub mod getput;
pub mod gptr;
pub mod lock;
pub mod op;
pub mod record;
pub mod runtime;
pub mod rw;
pub mod spread;
pub mod store;

pub use annex::AnnexPolicy;
pub use config::SplitcConfig;
pub use gptr::GlobalPtr;
pub use lock::GlobalLock;
pub use op::{AddrSpan, OpFootprint, ScOp};
pub use record::RecEvent;
pub use runtime::{NodeRt, ScCtx, SplitC};
pub use spread::SpreadArray;

pub use t3d_machine as machine;

pub use t3dsan::{DiagKind, Diagnostic, Report, SanitizeMode};
