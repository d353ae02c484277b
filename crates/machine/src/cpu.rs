//! A processor-eye view of the machine: the one per-PE handle every
//! probe, phase closure and Split-C runtime primitive issues its ops
//! through.
//!
//! A `Cpu` is bound to one PE and holds the op core (`OpCore`, in
//! `ops.rs`) of the backend it runs on: the whole [`Machine`] for
//! the direct engine, or one shard of a sharded phase. Every method is
//! one call into that core for this PE, so the same probe code runs
//! under both. A shard's handle is built only by the phase driver, for
//! the shard's own PE, so a phase closure cannot issue ops as another
//! PE. While the machine logs ops, every method also appends its call
//! to the [op log](crate::oplog), through one helper.

use crate::machine::{BltHandle, Machine};
use crate::node::Node;
use crate::oplog::{CpuOp, Va};
use crate::ops::OpCore;
use t3d_shell::blt::BltDirection;
use t3d_shell::{AnnexEntry, FuncCode, Message, PopError};

/// Exclusive access to the machine from the point of view of one node.
///
/// Probes written against `Cpu` read like the paper's assembly probes:
/// loads, stores, `fetch` hints, memory barriers, annex updates.
///
/// # Example
///
/// ```
/// use t3d_machine::{Cpu, Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::t3d(2));
/// let mut cpu = Cpu::new(&mut m, 0);
/// cpu.st8(0x100, 7);
/// assert_eq!(cpu.ld8(0x100), 7);
/// ```
pub struct Cpu<'m> {
    pub(crate) m: &'m mut dyn OpCore,
    pub(crate) pe: usize,
    /// Whether the backend logs this handle's calls (see [`crate::oplog`]).
    logging: bool,
}

impl<'m> Cpu<'m> {
    /// Binds a CPU handle to node `pe` of the direct engine.
    ///
    /// # Panics
    ///
    /// Panics if `pe` does not exist.
    pub fn new(m: &'m mut Machine, pe: usize) -> Self {
        assert!(pe < m.nodes(), "PE {pe} out of range");
        let logging = m.log.is_some();
        Cpu::bind(m, pe, logging)
    }

    /// Binds a handle to PE `pe` of `core`, logging its calls or not.
    pub(crate) fn bind(m: &'m mut dyn OpCore, pe: usize, logging: bool) -> Self {
        Cpu { m, pe, logging }
    }

    /// A handle to the same PE that borrows this one, for callers that
    /// hold a `Cpu` for a shorter time than its backend lives.
    #[inline]
    pub fn reborrow(&mut self) -> Cpu<'_> {
        Cpu::bind(&mut *self.m, self.pe, self.logging)
    }

    /// Makes one call and, when the backend logs, appends it as the op
    /// `op` builds: the one place a `Cpu` call is logged.
    #[inline]
    fn log<R>(&mut self, op: impl FnOnce(&Self) -> CpuOp, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.logging {
            return f(self);
        }
        let start = self.clock();
        let out = f(self);
        let op = op(self);
        self.m.log_op(self.pe, op, start);
        out
    }

    /// `va` as its annex register and offset.
    fn split(&self, va: u64) -> Va {
        let (annex, off) = t3d_shell::annex::split_pa(va, self.m.cfg().mem.offset_bits);
        Va { annex, off }
    }

    /// This node's id.
    #[inline]
    pub fn pe(&self) -> usize {
        self.pe
    }

    /// Number of nodes in the machine.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.m.pe_count()
    }

    /// The underlying machine.
    ///
    /// # Panics
    ///
    /// Panics inside a sharded phase, where whole-machine access would
    /// break shard isolation; use the per-op methods instead.
    pub fn machine(&mut self) -> &mut Machine {
        self.m
            .as_machine()
            .expect("whole-machine access is not available inside a sharded phase")
    }

    /// This node's state.
    #[inline]
    pub fn node(&self) -> &Node {
        self.m.part(self.pe).0
    }

    /// Folds this node's remote-write arrival log up to its clock (see
    /// [`Node::arrivals`]): every arrival at or before now collapses into
    /// the last of them. Exact for every later `storeSync` query of this
    /// node, since the folded answers are all in its past; bookkeeping,
    /// not an op, so nothing is logged or counted.
    #[inline]
    pub fn fold_arrivals(&mut self) {
        let (node, hot) = self.m.parts(self.pe);
        node.fold_arrivals(hot.clock);
    }

    /// Node `pe`'s state, read-only.
    ///
    /// # Panics
    ///
    /// Panics inside a sharded phase if `pe` is not this node: a shard
    /// sees only its own node.
    #[inline]
    pub fn node_of(&self, pe: usize) -> &Node {
        self.m.part(pe).0
    }

    /// This node's virtual time in cycles.
    #[inline]
    pub fn clock(&self) -> u64 {
        self.m.part(self.pe).1.clock
    }

    /// This node's virtual time in nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        self.clock() as f64 * self.m.cfg().cycle_ns()
    }

    /// Charges computation cycles.
    #[inline]
    pub fn advance(&mut self, cycles: u64) {
        self.log(|_| CpuOp::Advance(cycles), |c| c.m.advance(c.pe, cycles));
    }

    /// Builds a virtual address from an annex index and offset.
    #[inline]
    pub fn va(&self, annex_idx: usize, offset: u64) -> u64 {
        t3d_shell::annex::pa_with_annex(offset, annex_idx, self.m.cfg().mem.offset_bits)
    }

    /// Updates annex register `idx` (23 cycles) to name PE `pe` with
    /// function code `func`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is 0 or PE `pe` does not exist.
    #[inline]
    pub fn annex_set(&mut self, idx: usize, pe: u32, func: FuncCode) {
        let op = |_: &Self| CpuOp::AnnexSet(idx, pe, func);
        self.log(op, |c| c.m.annex_set(c.pe, idx, AnnexEntry { pe, func }));
    }

    /// Loads a 64-bit word.
    #[inline]
    pub fn ld8(&mut self, va: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.ld(va, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Loads `buf.len()` bytes at `va` (annex-translated). Remote loads
    /// must not cross a cache line.
    ///
    /// Issuing a remote load through an annex entry whose function code
    /// is not a read flavour (e.g. `Swap`) is a program error: debug
    /// builds fail a `debug_assert!`; release builds perform the access
    /// as `Uncached` (the defined behavior — the real shell would issue
    /// the request with the flavour bits it was given).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range accesses.
    #[inline]
    pub fn ld(&mut self, va: u64, buf: &mut [u8]) {
        let len = buf.len();
        self.log(|c| CpuOp::Ld(c.split(va), len), |c| c.m.ld(c.pe, va, buf));
    }

    /// Stores a 64-bit word (non-blocking).
    #[inline]
    pub fn st8(&mut self, va: u64, value: u64) {
        self.st(va, &value.to_le_bytes());
    }

    /// Stores `bytes` at `va` (annex-translated). The store is
    /// non-blocking: it enters the write buffer and, for remote targets,
    /// is acknowledged asynchronously (poll with
    /// [`Cpu::wait_write_acks`] after a [`Cpu::memory_barrier`]).
    ///
    /// # Panics
    ///
    /// Panics if the store crosses a cache line or is out of range.
    #[inline]
    pub fn st(&mut self, va: u64, bytes: &[u8]) {
        self.log(
            |c| CpuOp::St(c.split(va), bytes.into()),
            |c| c.m.st(c.pe, va, bytes),
        );
    }

    /// Issues a memory barrier: drains the write buffer (pushing out any
    /// pending prefetch requests with it).
    #[inline]
    pub fn memory_barrier(&mut self) {
        self.log(|_| CpuOp::Fence, |c| c.m.memory_barrier(c.pe));
    }

    /// Polls the remote-write status bit once: `true` if no remote write
    /// *known to the shell* is outstanding. Writes still in the write
    /// buffer are invisible — the Section 4.3 trap.
    #[inline]
    pub fn poll_status(&mut self) -> bool {
        self.log(|_| CpuOp::StatusPoll, |c| c.m.poll_status(c.pe))
    }

    /// Spins until every remote write that has left the processor is
    /// acknowledged. (Fence first — see [`Cpu::poll_status`].)
    #[inline]
    pub fn wait_write_acks(&mut self) {
        self.log(|_| CpuOp::AckWait, |c| c.m.wait_write_acks(c.pe));
    }

    /// Issues a binding prefetch of the word at `va`. Returns `false` if
    /// the 16-entry queue is full (the caller must pop first).
    #[inline]
    pub fn fetch(&mut self, va: u64) -> bool {
        self.log(|c| CpuOp::Fetch(c.split(va)), |c| c.m.fetch(c.pe, va))
    }

    /// Pops the prefetch queue (a 23-cycle off-chip load), waiting for
    /// the data to arrive if necessary.
    ///
    /// # Errors
    ///
    /// [`PopError::Empty`] if nothing is outstanding;
    /// [`PopError::NotDeparted`] if the oldest fetch is still in the
    /// write buffer (fence first).
    #[inline]
    pub fn pop_prefetch(&mut self) -> Result<u64, PopError> {
        self.log(|_| CpuOp::Pop, |c| c.m.pop_prefetch(c.pe))
    }

    /// Starts a BLT transfer of `bytes` between this PE's local memory at
    /// `local_off` and `target_pe`'s memory at `remote_off`. The
    /// initiating processor is stalled for the OS invocation (180 µs);
    /// the DMA itself completes at [`BltHandle::completion`] and can be
    /// overlapped. Data moves immediately in simulation; destination
    /// cache lines are invalidated (DMA bypasses caches).
    #[inline]
    pub fn blt_start(
        &mut self,
        dir: BltDirection,
        local_off: u64,
        target_pe: usize,
        remote_off: u64,
        bytes: u64,
    ) -> BltHandle {
        let op = |_: &Self| CpuOp::Blt(dir, local_off, target_pe, remote_off, bytes);
        let call = |c: &mut Self| {
            c.m.blt_start(c.pe, dir, local_off, target_pe, remote_off, bytes)
        };
        self.log(op, call)
    }

    /// Starts a *strided* BLT transfer: `count` elements of
    /// `elem_bytes`, read from consecutive positions on the local side
    /// and placed `stride_bytes` apart on the remote side (`Write`), or
    /// gathered from `stride_bytes` apart remotely into consecutive
    /// local positions (`Read`). The engine moves the same number of
    /// bytes as the contiguous form but pays the remote DRAM's page
    /// behaviour on every element.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `elem_bytes` is zero, or if
    /// `stride_bytes < elem_bytes` (overlapping elements).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn blt_start_strided(
        &mut self,
        dir: BltDirection,
        local_off: u64,
        target_pe: usize,
        remote_off: u64,
        count: u64,
        elem_bytes: u64,
        stride_bytes: u64,
    ) -> BltHandle {
        let (t, r, n, e, s) = (target_pe, remote_off, count, elem_bytes, stride_bytes);
        let op = |_: &Self| CpuOp::BltStrided(dir, local_off, t, r, n, e, s);
        let call = |c: &mut Self| c.m.blt_start_strided(c.pe, dir, local_off, t, r, n, e, s);
        self.log(op, call)
    }

    /// Blocks until a BLT transfer completes.
    #[inline]
    pub fn blt_wait(&mut self, handle: BltHandle) {
        self.log(|_| CpuOp::BltWait(handle), |c| c.m.blt_wait(c.pe, handle));
    }

    /// Sends a four-word message to `dst` (the 122-cycle PAL call).
    #[inline]
    pub fn msg_send(&mut self, dst: usize, words: [u64; 4]) {
        let op = |_: &Self| CpuOp::MsgSend(dst, words);
        self.log(op, |c| c.m.msg_send(c.pe, dst, words));
    }

    /// Receives the oldest arrived message, paying the 25 µs interrupt
    /// (plus dispatch, in handler mode). `None` if nothing has arrived.
    #[inline]
    pub fn msg_receive(&mut self) -> Option<Message> {
        self.log(|_| CpuOp::MsgRecv, |c| c.m.msg_receive(c.pe))
    }

    /// Remote fetch&increment on `target_pe`'s register `reg`.
    #[inline]
    pub fn fetch_inc(&mut self, target_pe: usize, reg: usize) -> u64 {
        let op = |_: &Self| CpuOp::FetchInc(target_pe, reg);
        self.log(op, |c| c.m.fetch_inc(c.pe, target_pe, reg))
    }

    /// Loads this node's swap operand register.
    #[inline]
    pub fn swap_load(&mut self, value: u64) {
        self.log(|_| CpuOp::SwapLoad(value), |c| c.m.swap_load(c.pe, value));
    }

    /// Atomically exchanges the swap register with the word at `va`
    /// (annex function code `Swap` for remote targets). Returns the old
    /// memory value (now also in the register).
    ///
    /// # Panics
    ///
    /// Panics inside a sharded phase if `va` names another PE.
    #[inline]
    pub fn atomic_swap(&mut self, va: u64) -> u64 {
        self.log(|c| CpuOp::Swap(c.split(va)), |c| c.m.atomic_swap(c.pe, va))
    }

    /// Flushes this node's cached copy of the line holding `va` (the
    /// explicit flush a compiler emits after cached remote reads),
    /// charging its 23 cycles as computation.
    pub fn flush_line(&mut self, va: u64) {
        self.log(
            |c| CpuOp::FlushLine(c.split(va)),
            |c| {
                let cost = c.m.parts(c.pe).0.port.flush_line(va);
                c.m.advance(c.pe, cost);
            },
        );
    }

    /// Invalidates this node's whole L1 cache, taking no cycles (callers
    /// charge the flush loop they model).
    pub fn invalidate_l1(&mut self) {
        let call = |c: &mut Self| c.m.parts(c.pe).0.port.l1_mut().invalidate_all();
        self.log(|_| CpuOp::InvalidateL1, call);
    }

    /// Functional memory write (no timing); flushes any cached copy.
    #[inline]
    pub fn poke_mem(&mut self, off: u64, bytes: &[u8]) {
        let call = |c: &mut Self| c.m.parts(c.pe).0.poke_and_invalidate(off, bytes);
        self.log(|_| CpuOp::Poke(off, bytes.into()), call);
    }

    /// Functional 64-bit read (no timing).
    #[inline]
    pub fn peek8(&self, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.node().port.peek_mem(off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Functional 64-bit write (no timing).
    #[inline]
    pub fn poke8(&mut self, off: u64, v: u64) {
        self.poke_mem(off, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn cpu_forwards_to_machine() {
        let mut m = Machine::new(MachineConfig::t3d(2));
        let mut cpu = Cpu::new(&mut m, 1);
        cpu.st8(0x40, 5);
        cpu.memory_barrier();
        assert_eq!(cpu.ld8(0x40), 5);
        assert!(cpu.clock() > 0);
        assert_eq!(cpu.pe(), 1);
        assert_eq!(cpu.nodes(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_pe_panics() {
        let mut m = Machine::new(MachineConfig::t3d(2));
        let _ = Cpu::new(&mut m, 5);
    }
}
