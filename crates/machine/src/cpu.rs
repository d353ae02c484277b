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
//! PE.

use crate::machine::{BltHandle, Machine};
use crate::node::Node;
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
}

impl<'m> Cpu<'m> {
    /// Binds a CPU handle to node `pe` of the direct engine.
    ///
    /// # Panics
    ///
    /// Panics if `pe` does not exist.
    pub fn new(m: &'m mut Machine, pe: usize) -> Self {
        assert!(pe < m.nodes(), "PE {pe} out of range");
        Cpu { m, pe }
    }

    /// A handle to the same PE that borrows this one, for callers that
    /// hold a `Cpu` for a shorter time than its backend lives.
    #[inline]
    pub fn reborrow(&mut self) -> Cpu<'_> {
        Cpu {
            m: &mut *self.m,
            pe: self.pe,
        }
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

    /// This node's state, mutably (advanced probes).
    #[inline]
    pub fn node_mut(&mut self) -> &mut Node {
        self.m.parts(self.pe).0
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
        self.m.advance(self.pe, cycles);
    }

    /// Builds a virtual address from an annex index and offset.
    #[inline]
    pub fn va(&self, annex_idx: usize, offset: u64) -> u64 {
        t3d_shell::annex::pa_with_annex(offset, annex_idx, self.m.cfg().mem.offset_bits)
    }

    /// Updates an annex register (23 cycles). See [`Machine::annex_set`].
    #[inline]
    pub fn annex_set(&mut self, idx: usize, pe: u32, func: FuncCode) {
        self.m.annex_set(self.pe, idx, AnnexEntry { pe, func });
    }

    /// Loads a 64-bit word.
    #[inline]
    pub fn ld8(&mut self, va: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.m.ld(self.pe, va, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Loads bytes. See [`Machine::ld`].
    #[inline]
    pub fn ld(&mut self, va: u64, buf: &mut [u8]) {
        self.m.ld(self.pe, va, buf);
    }

    /// Stores a 64-bit word (non-blocking).
    #[inline]
    pub fn st8(&mut self, va: u64, value: u64) {
        self.m.st(self.pe, va, &value.to_le_bytes());
    }

    /// Stores bytes (non-blocking, within one cache line). See
    /// [`Machine::st`].
    #[inline]
    pub fn st(&mut self, va: u64, bytes: &[u8]) {
        self.m.st(self.pe, va, bytes);
    }

    /// Memory barrier.
    #[inline]
    pub fn memory_barrier(&mut self) {
        self.m.memory_barrier(self.pe);
    }

    /// Polls the remote-write status bit once. See
    /// [`Machine::poll_status`].
    #[inline]
    pub fn poll_status(&mut self) -> bool {
        self.m.poll_status(self.pe)
    }

    /// Waits for all remote writes that left the processor to be
    /// acknowledged.
    #[inline]
    pub fn wait_write_acks(&mut self) {
        self.m.wait_write_acks(self.pe);
    }

    /// Issues a binding prefetch; `false` if the queue is full.
    #[inline]
    pub fn fetch(&mut self, va: u64) -> bool {
        self.m.fetch(self.pe, va)
    }

    /// Pops the prefetch queue.
    ///
    /// # Errors
    ///
    /// See [`Machine::pop_prefetch`].
    #[inline]
    pub fn pop_prefetch(&mut self) -> Result<u64, PopError> {
        self.m.pop_prefetch(self.pe)
    }

    /// Starts a BLT transfer. See [`Machine::blt_start`].
    #[inline]
    pub fn blt_start(
        &mut self,
        dir: BltDirection,
        local_off: u64,
        target_pe: usize,
        remote_off: u64,
        bytes: u64,
    ) -> BltHandle {
        self.m
            .blt_start(self.pe, dir, local_off, target_pe, remote_off, bytes)
    }

    /// Starts a strided BLT transfer. See [`Machine::blt_start_strided`].
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
        self.m.blt_start_strided(
            self.pe,
            dir,
            local_off,
            target_pe,
            remote_off,
            count,
            elem_bytes,
            stride_bytes,
        )
    }

    /// Waits for a BLT transfer to complete.
    #[inline]
    pub fn blt_wait(&mut self, handle: BltHandle) {
        self.m.blt_wait(self.pe, handle);
    }

    /// Sends a four-word message.
    #[inline]
    pub fn msg_send(&mut self, dst: usize, words: [u64; 4]) {
        self.m.msg_send(self.pe, dst, words);
    }

    /// Receives a message, if one has arrived.
    #[inline]
    pub fn msg_receive(&mut self) -> Option<Message> {
        self.m.msg_receive(self.pe)
    }

    /// Remote fetch&increment.
    #[inline]
    pub fn fetch_inc(&mut self, target_pe: usize, reg: usize) -> u64 {
        self.m.fetch_inc(self.pe, target_pe, reg)
    }

    /// Loads the swap operand register.
    #[inline]
    pub fn swap_load(&mut self, value: u64) {
        self.m.swap_load(self.pe, value);
    }

    /// Atomic exchange of the swap register with the word at `va`. See
    /// [`Machine::atomic_swap`].
    ///
    /// # Panics
    ///
    /// Panics inside a sharded phase if `va` names another PE.
    #[inline]
    pub fn atomic_swap(&mut self, va: u64) -> u64 {
        self.m.atomic_swap(self.pe, va)
    }

    /// Functional memory write (no timing); flushes any cached copy.
    #[inline]
    pub fn poke_mem(&mut self, off: u64, bytes: &[u8]) {
        self.node_mut().poke_and_invalidate(off, bytes);
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
