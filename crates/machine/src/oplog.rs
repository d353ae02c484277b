//! The op log: one replayable record of every state change of a run.
//!
//! While [`Machine::log_ops`] is on, every [`Cpu`] call appends one
//! [`LogEntry`]: the PE that made it, the call with its arguments as a
//! [`CpuOp`], the PE's clock when it began and the cycles it took. That
//! covers the direct engine and sharded phases alike, and `advance` and
//! `poke_mem` as much as the architectural ops. The machine's own state
//! changes append too: [`Machine::poke_mem`], both barriers (one entry
//! per PE) and every sharded phase. Inside a phase each shard appends to
//! its own log; the shard logs are joined in PE order behind one
//! [`CpuOp::Phase`] entry, so `Seq` and `Par(n)` log identically.
//!
//! The log is off by default and complete while it is on: it has no
//! capacity and drops nothing, because [`Machine::replay`] re-runs it.
//! A log recorded from a fresh machine replays on a fresh machine of the
//! same configuration to the same clocks, memory, op counts and ledgers,
//! under any [`PhaseDriver`].
//!
//! Each op's [`OpKind`] is derived from its `CpuOp`, and its target PE
//! from the `CpuOp` and the annex registers the log's own `AnnexSet`
//! entries set ([`targets`]). Memory accesses keep their exact byte
//! spans.
//!
//! # Example
//!
//! ```
//! use t3d_machine::{Cpu, CpuOp, Machine, MachineConfig, OpKind, PhaseDriver, Va};
//!
//! let mut m = Machine::new(MachineConfig::t3d(2));
//! m.log_ops(true);
//! let mut cpu = Cpu::new(&mut m, 0);
//! cpu.st(0x40, &[1, 2, 3]);
//! cpu.memory_barrier();
//! let ops: Vec<&CpuOp> = m.op_log().iter().map(|e| &e.op).collect();
//! let st = CpuOp::St(Va { annex: 0, off: 0x40 }, vec![1, 2, 3].into());
//! assert_eq!(ops, [&st, &CpuOp::Fence]);
//! assert_eq!(st.kind(), Some(OpKind::StLocal));
//!
//! // Replaying the log on a fresh machine reproduces the run.
//! let mut again = Machine::new(MachineConfig::t3d(2));
//! again.replay(m.op_log(), PhaseDriver::Seq);
//! assert_eq!(again.clock(0), m.clock(0));
//! assert_eq!(again.peek8(0, 0x40), m.peek8(0, 0x40));
//! ```

use crate::cpu::Cpu;
use crate::machine::{BltHandle, Machine};
use crate::phase::PhaseDriver;
use std::collections::HashMap;
use t3d_perf::OpKind;
use t3d_shell::blt::BltDirection;
use t3d_shell::FuncCode;

/// A virtual address as its annex register and local offset (register
/// 0 is the issuing PE's own memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Va {
    /// Annex register index.
    pub annex: usize,
    /// Offset in the target PE's memory.
    pub off: u64,
}

/// One logged call: each variant holds the call's arguments, in the
/// call's order (an address split into a [`Va`]). Results are not kept:
/// replay recomputes them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuOp {
    /// [`Cpu::advance`] by this many cycles.
    Advance(u64),
    /// [`Cpu::annex_set`]: register, PE, function code.
    AnnexSet(usize, u32, FuncCode),
    /// [`Cpu::ld`] of this many bytes.
    Ld(Va, usize),
    /// [`Cpu::st`] of these bytes.
    St(Va, Box<[u8]>),
    /// [`Cpu::memory_barrier`].
    Fence,
    /// [`Cpu::poll_status`].
    StatusPoll,
    /// [`Cpu::wait_write_acks`].
    AckWait,
    /// [`Cpu::fetch`] of the word at this address.
    Fetch(Va),
    /// [`Cpu::pop_prefetch`].
    Pop,
    /// [`Cpu::blt_start`]: direction, local offset, target PE, remote
    /// offset, bytes.
    Blt(BltDirection, u64, usize, u64, u64),
    /// [`Cpu::blt_start_strided`]: direction, local offset, target PE,
    /// remote offset, element count, element bytes, stride bytes.
    BltStrided(BltDirection, u64, usize, u64, u64, u64, u64),
    /// [`Cpu::blt_wait`] on this handle.
    BltWait(BltHandle),
    /// [`Cpu::msg_send`]: destination PE, words.
    MsgSend(usize, [u64; 4]),
    /// [`Cpu::msg_receive`].
    MsgRecv,
    /// [`Cpu::fetch_inc`]: target PE, register.
    FetchInc(usize, usize),
    /// [`Cpu::swap_load`] of this value.
    SwapLoad(u64),
    /// [`Cpu::atomic_swap`] at this address.
    Swap(Va),
    /// [`Cpu::poke_mem`] (or [`Machine::poke_mem`]): offset, bytes.
    Poke(u64, Box<[u8]>),
    /// [`Cpu::flush_line`] of the line holding this address.
    FlushLine(Va),
    /// [`Cpu::invalidate_l1`].
    InvalidateL1,
    /// This PE's part of [`Machine::barrier_all`] after its fence (the
    /// fences are logged as [`CpuOp::Fence`] entries before it).
    Barrier,
    /// [`Machine::fuzzy_barrier_start`].
    BarrierStart,
    /// This PE's part of [`Machine::fuzzy_barrier_end_all`].
    BarrierEnd,
    /// A sharded phase whose shards made the next this-many entries, in
    /// PE order (logged as PE 0's: from its clock at phase entry, over
    /// its cycles in the phase).
    Phase(usize),
}

impl CpuOp {
    /// The kind the op is counted and sampled under; `None` for the
    /// calls that are not ops (`advance`, pokes, cache maintenance and
    /// phase markers).
    pub fn kind(&self) -> Option<OpKind> {
        Some(match self {
            CpuOp::AnnexSet(..) => OpKind::AnnexSet,
            CpuOp::Ld(Va { annex: 0, .. }, _) => OpKind::LdLocal,
            CpuOp::Ld(..) => OpKind::LdRemote,
            CpuOp::St(Va { annex: 0, .. }, _) => OpKind::StLocal,
            CpuOp::St(..) => OpKind::StRemote,
            CpuOp::Fence => OpKind::Fence,
            CpuOp::StatusPoll => OpKind::StatusPoll,
            CpuOp::AckWait => OpKind::AckWait,
            CpuOp::Fetch(_) => OpKind::Fetch,
            CpuOp::Pop => OpKind::Pop,
            CpuOp::Blt(..) | CpuOp::BltStrided(..) => OpKind::BltStart,
            CpuOp::BltWait(_) => OpKind::BltWait,
            CpuOp::MsgSend(..) => OpKind::MsgSend,
            CpuOp::MsgRecv => OpKind::MsgRecv,
            CpuOp::FetchInc(..) => OpKind::FetchInc,
            CpuOp::SwapLoad(_) => OpKind::SwapLoad,
            CpuOp::Swap(_) => OpKind::Swap,
            CpuOp::Barrier | CpuOp::BarrierEnd => OpKind::Barrier,
            CpuOp::BarrierStart => OpKind::BarrierStart,
            CpuOp::Advance(_) | CpuOp::Poke(..) | CpuOp::FlushLine(_) => return None,
            CpuOp::InvalidateL1 | CpuOp::Phase(_) => return None,
        })
    }

    /// Makes this call again through `cpu`. A barrier entry acts for the
    /// whole machine, once, at PE 0's entry, so `cpu` must be the direct
    /// engine's for those.
    ///
    /// # Panics
    ///
    /// On a [`CpuOp::Phase`] entry, which only [`Machine::replay`] can
    /// re-run, and on a barrier entry inside a sharded phase.
    pub fn issue(&self, cpu: &mut Cpu) {
        let (pe, va) = (cpu.pe(), |cpu: &Cpu, a: &Va| cpu.va(a.annex, a.off));
        match self {
            CpuOp::Advance(cycles) => cpu.advance(*cycles),
            CpuOp::AnnexSet(idx, target, func) => cpu.annex_set(*idx, *target, *func),
            CpuOp::Ld(a, len) => cpu.ld(va(cpu, a), &mut vec![0; *len]),
            CpuOp::St(a, data) => cpu.st(va(cpu, a), data),
            CpuOp::Fence => cpu.memory_barrier(),
            CpuOp::StatusPoll => _ = cpu.poll_status(),
            CpuOp::AckWait => cpu.wait_write_acks(),
            CpuOp::Fetch(a) => _ = cpu.fetch(va(cpu, a)),
            CpuOp::Pop => _ = cpu.pop_prefetch(),
            CpuOp::Blt(d, l, t, r, n) => _ = cpu.blt_start(*d, *l, *t, *r, *n),
            CpuOp::BltStrided(d, l, t, r, n, e, s) => {
                _ = cpu.blt_start_strided(*d, *l, *t, *r, *n, *e, *s);
            }
            CpuOp::BltWait(handle) => cpu.blt_wait(*handle),
            CpuOp::MsgSend(dst, words) => cpu.msg_send(*dst, *words),
            CpuOp::MsgRecv => _ = cpu.msg_receive(),
            CpuOp::FetchInc(target, reg) => _ = cpu.fetch_inc(*target, *reg),
            CpuOp::SwapLoad(value) => cpu.swap_load(*value),
            CpuOp::Swap(a) => _ = cpu.atomic_swap(va(cpu, a)),
            CpuOp::Poke(off, data) => cpu.poke_mem(*off, data),
            CpuOp::FlushLine(a) => cpu.flush_line(va(cpu, a)),
            CpuOp::InvalidateL1 => cpu.invalidate_l1(),
            CpuOp::Barrier if pe == 0 => cpu.machine().barrier_wire(),
            CpuOp::BarrierEnd if pe == 0 => cpu.machine().fuzzy_barrier_end_all(),
            CpuOp::Barrier | CpuOp::BarrierEnd => {}
            CpuOp::BarrierStart => cpu.machine().fuzzy_barrier_start(pe),
            CpuOp::Phase(_) => panic!("a sharded phase replays through Machine::replay"),
        }
    }
}

/// One call of a run: the PE that made it, the call, the PE's clock when
/// it began and the cycles it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Issuing PE.
    pub pe: u32,
    /// The call and its arguments.
    pub op: CpuOp,
    /// The PE's clock when the call began.
    pub start: u64,
    /// Cycles the call cost the PE.
    pub cycles: u64,
}

/// Every entry of `log` with the PE its op acts on: the annex target of
/// an access through a register, the named PE of a BLT, message or
/// fetch&increment, the new target of an annex update, and the issuer
/// otherwise. Registers resolve as the log's own `AnnexSet` entries left
/// them (a register never set names PE 0, as on a fresh machine), so
/// the targets are exact for a log recorded from a fresh machine.
pub fn targets(log: &[LogEntry]) -> impl Iterator<Item = (&LogEntry, u32)> {
    let mut regs: HashMap<(u32, usize), u32> = HashMap::new();
    log.iter().map(move |e| {
        let target = match &e.op {
            CpuOp::AnnexSet(idx, pe, _) => *regs.entry((e.pe, *idx)).insert_entry(*pe).get(),
            CpuOp::Blt(_, _, t, ..) | CpuOp::BltStrided(_, _, t, ..) => *t as u32,
            CpuOp::MsgSend(t, _) | CpuOp::FetchInc(t, _) => *t as u32,
            CpuOp::Ld(a, _)
            | CpuOp::St(a, _)
            | CpuOp::Fetch(a)
            | CpuOp::Swap(a)
            | CpuOp::FlushLine(a)
                if a.annex != 0 =>
            {
                regs.get(&(e.pe, a.annex)).copied().unwrap_or(0)
            }
            _ => e.pe,
        };
        (e, target)
    })
}

impl Machine {
    /// Makes every call of `log` again, in order, each sharded phase
    /// under `driver`. A log recorded from a fresh machine, replayed on
    /// a fresh machine of the same configuration, reproduces its clocks,
    /// memory, op counts and ledgers, whatever driver recorded it.
    pub fn replay(&mut self, log: &[LogEntry], driver: PhaseDriver) {
        let mut rest = log;
        while let Some((e, tail)) = rest.split_first() {
            rest = tail;
            let CpuOp::Phase(n) = e.op else {
                e.op.issue(&mut Cpu::new(self, e.pe as usize));
                continue;
            };
            let (shards, tail) = rest.split_at(n);
            rest = tail;
            let mut of_pe = vec![&shards[..0]; self.nodes()];
            for calls in shards.chunk_by(|a, b| a.pe == b.pe) {
                of_pe[calls[0].pe as usize] = calls;
            }
            self.sharded_phase_zip(driver, &mut of_pe, |cpu, calls| {
                calls.iter().for_each(|e| e.op.issue(cpu));
            });
        }
    }
}
