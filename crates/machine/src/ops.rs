//! The operation surface a simulated processor programs against,
//! abstracted over execution backends.
//!
//! Two backends implement [`MachineOps`]:
//!
//! * [`Machine`] — the direct engine: every operation
//!   acts on the whole machine immediately (remote stores charge the
//!   target's DRAM inline, and so on). Node closures run strictly
//!   sequentially.
//! * [`PhasePe`](crate::phase::PhasePe) — one PE's shard of a
//!   *sharded phase*: the node mutates only its own state, remote
//!   effects are appended to a timestamped log, and the logs are merged
//!   deterministically at the end of the phase. Shards are independent,
//!   so a phase can run its PEs on parallel threads with results
//!   bit-identical to running them one after another.
//!
//! [`Cpu`](crate::Cpu) and the Split-C runtime hold `&mut dyn
//! MachineOps`, so probe and application code is written once and runs
//! under either engine.

use crate::machine::{BltHandle, Machine};
use crate::node::{Node, OpStats};
use t3d_shell::blt::BltDirection;
use t3d_shell::{AnnexEntry, Message, PopError};

/// Processor-visible operations of the simulated T3D, with the issuing
/// PE passed explicitly (mirrors [`Machine`]'s inherent methods).
///
/// A backend may restrict which PEs it accepts: a [`Machine`] accepts
/// all of them, a `PhasePe` only its own (calls naming another PE
/// panic — that is the sharded-phase correctness contract surfacing).
pub trait MachineOps {
    /// Number of processing elements.
    fn nodes(&self) -> usize;
    /// Nanoseconds per cycle.
    fn cycle_ns(&self) -> f64;
    /// Number of physical-address bits forming the local offset.
    fn offset_bits(&self) -> u32;

    /// Immutable access to a node's state.
    fn node(&self, pe: usize) -> &Node;
    /// Mutable access to a node's state.
    fn node_mut(&mut self, pe: usize) -> &mut Node;

    /// A node's virtual time, in cycles.
    fn clock(&self, pe: usize) -> u64;
    /// Charges `cycles` of computation to a node.
    fn advance(&mut self, pe: usize, cycles: u64);

    /// Updates an annex register (23 cycles).
    fn annex_set(&mut self, pe: usize, idx: usize, entry: AnnexEntry);
    /// Reads an annex register (free: it is processor state).
    fn annex_entry(&self, pe: usize, idx: usize) -> AnnexEntry;

    /// Loads `buf.len()` bytes at `va` (annex-translated).
    fn ld(&mut self, pe: usize, va: u64, buf: &mut [u8]);
    /// Stores `bytes` at `va` (annex-translated, non-blocking).
    fn st(&mut self, pe: usize, va: u64, bytes: &[u8]);
    /// Issues a memory barrier (drains the write buffer).
    fn memory_barrier(&mut self, pe: usize);
    /// Polls the remote-write status bit once.
    fn poll_status(&mut self, pe: usize) -> bool;
    /// Spins until every departed remote write is acknowledged.
    fn wait_write_acks(&mut self, pe: usize);

    /// Issues a binding prefetch; `false` if the queue is full.
    fn fetch(&mut self, pe: usize, va: u64) -> bool;
    /// Pops the prefetch queue.
    ///
    /// # Errors
    ///
    /// See [`Machine::pop_prefetch`].
    fn pop_prefetch(&mut self, pe: usize) -> Result<u64, PopError>;

    /// Starts a BLT transfer.
    fn blt_start(
        &mut self,
        pe: usize,
        dir: BltDirection,
        local_off: u64,
        target_pe: usize,
        remote_off: u64,
        bytes: u64,
    ) -> BltHandle;
    /// Starts a strided BLT transfer.
    #[allow(clippy::too_many_arguments)]
    fn blt_start_strided(
        &mut self,
        pe: usize,
        dir: BltDirection,
        local_off: u64,
        target_pe: usize,
        remote_off: u64,
        count: u64,
        elem_bytes: u64,
        stride_bytes: u64,
    ) -> BltHandle;
    /// Blocks until a BLT transfer completes.
    fn blt_wait(&mut self, pe: usize, handle: BltHandle);

    /// Sends a four-word message.
    fn msg_send(&mut self, pe: usize, dst: usize, words: [u64; 4]);
    /// Receives the oldest arrived message, if any.
    fn msg_receive(&mut self, pe: usize) -> Option<Message>;

    /// Remote fetch&increment on `target_pe`'s register `reg`.
    fn fetch_inc(&mut self, pe: usize, target_pe: usize, reg: usize) -> u64;
    /// Loads this node's swap operand register.
    fn swap_load(&mut self, pe: usize, value: u64);
    /// Atomic exchange of the swap register with the word at `va`.
    fn atomic_swap(&mut self, pe: usize, va: u64) -> u64;

    /// Reads a node's memory functionally (no timing).
    fn peek_mem(&self, pe: usize, off: u64, buf: &mut [u8]);
    /// Writes a node's memory functionally (no timing), flushing any
    /// cached copy.
    fn poke_mem(&mut self, pe: usize, off: u64, bytes: &[u8]);

    /// A node's operation counters.
    fn op_stats(&self, pe: usize) -> OpStats;
    /// Completions a node's waits have run past.
    fn event_stats(&self, pe: usize) -> crate::node::EventStats {
        self.node(pe).events
    }
    /// Earliest virtual time at which `target_bytes` of remote-write
    /// data had arrived at `pe`.
    fn arrival_time_of(&self, pe: usize, target_bytes: u64) -> Option<u64>;
    /// Clears a node's arrival log (a new `storeSync` epoch).
    fn clear_incoming(&mut self, pe: usize);

    /// The whole machine, when this backend is the direct engine.
    /// `None` inside a sharded phase — whole-machine access would break
    /// shard isolation.
    fn as_machine(&mut self) -> Option<&mut Machine>;

    // ---- derived helpers (same for every backend) --------------------

    /// Builds a virtual address from an annex index and local offset.
    fn va(&self, annex_idx: usize, offset: u64) -> u64 {
        t3d_shell::annex::pa_with_annex(offset, annex_idx, self.offset_bits())
    }

    /// Splits a virtual address into `(annex index, local offset)`.
    fn split_va(&self, va: u64) -> (usize, u64) {
        t3d_shell::annex::split_pa(va, self.offset_bits())
    }

    /// Loads a 64-bit word at `va`.
    fn ld8(&mut self, pe: usize, va: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.ld(pe, va, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Stores a 64-bit word at `va`.
    fn st8(&mut self, pe: usize, va: u64, value: u64) {
        self.st(pe, va, &value.to_le_bytes());
    }

    /// Reads a u64 functionally.
    fn peek8(&self, pe: usize, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.peek_mem(pe, off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a u64 functionally.
    fn poke8(&mut self, pe: usize, off: u64, v: u64) {
        self.poke_mem(pe, off, &v.to_le_bytes());
    }
}

impl MachineOps for Machine {
    fn nodes(&self) -> usize {
        Machine::nodes(self)
    }
    fn cycle_ns(&self) -> f64 {
        Machine::cycle_ns(self)
    }
    fn offset_bits(&self) -> u32 {
        Machine::offset_bits(self)
    }
    fn node(&self, pe: usize) -> &Node {
        Machine::node(self, pe)
    }
    fn node_mut(&mut self, pe: usize) -> &mut Node {
        Machine::node_mut(self, pe)
    }
    fn clock(&self, pe: usize) -> u64 {
        Machine::clock(self, pe)
    }
    fn advance(&mut self, pe: usize, cycles: u64) {
        Machine::advance(self, pe, cycles);
    }
    fn annex_set(&mut self, pe: usize, idx: usize, entry: AnnexEntry) {
        Machine::annex_set(self, pe, idx, entry);
    }
    fn annex_entry(&self, pe: usize, idx: usize) -> AnnexEntry {
        Machine::annex_entry(self, pe, idx)
    }
    fn ld(&mut self, pe: usize, va: u64, buf: &mut [u8]) {
        Machine::ld(self, pe, va, buf);
    }
    fn st(&mut self, pe: usize, va: u64, bytes: &[u8]) {
        Machine::st(self, pe, va, bytes);
    }
    fn memory_barrier(&mut self, pe: usize) {
        Machine::memory_barrier(self, pe);
    }
    fn poll_status(&mut self, pe: usize) -> bool {
        Machine::poll_status(self, pe)
    }
    fn wait_write_acks(&mut self, pe: usize) {
        Machine::wait_write_acks(self, pe);
    }
    fn fetch(&mut self, pe: usize, va: u64) -> bool {
        Machine::fetch(self, pe, va)
    }
    fn pop_prefetch(&mut self, pe: usize) -> Result<u64, PopError> {
        Machine::pop_prefetch(self, pe)
    }
    fn blt_start(
        &mut self,
        pe: usize,
        dir: BltDirection,
        local_off: u64,
        target_pe: usize,
        remote_off: u64,
        bytes: u64,
    ) -> BltHandle {
        Machine::blt_start(self, pe, dir, local_off, target_pe, remote_off, bytes)
    }
    fn blt_start_strided(
        &mut self,
        pe: usize,
        dir: BltDirection,
        local_off: u64,
        target_pe: usize,
        remote_off: u64,
        count: u64,
        elem_bytes: u64,
        stride_bytes: u64,
    ) -> BltHandle {
        Machine::blt_start_strided(
            self,
            pe,
            dir,
            local_off,
            target_pe,
            remote_off,
            count,
            elem_bytes,
            stride_bytes,
        )
    }
    fn blt_wait(&mut self, pe: usize, handle: BltHandle) {
        Machine::blt_wait(self, pe, handle);
    }
    fn msg_send(&mut self, pe: usize, dst: usize, words: [u64; 4]) {
        Machine::msg_send(self, pe, dst, words);
    }
    fn msg_receive(&mut self, pe: usize) -> Option<Message> {
        Machine::msg_receive(self, pe)
    }
    fn fetch_inc(&mut self, pe: usize, target_pe: usize, reg: usize) -> u64 {
        Machine::fetch_inc(self, pe, target_pe, reg)
    }
    fn swap_load(&mut self, pe: usize, value: u64) {
        Machine::swap_load(self, pe, value);
    }
    fn atomic_swap(&mut self, pe: usize, va: u64) -> u64 {
        Machine::atomic_swap(self, pe, va)
    }
    fn peek_mem(&self, pe: usize, off: u64, buf: &mut [u8]) {
        Machine::peek_mem(self, pe, off, buf);
    }
    fn poke_mem(&mut self, pe: usize, off: u64, bytes: &[u8]) {
        Machine::poke_mem(self, pe, off, bytes);
    }
    fn op_stats(&self, pe: usize) -> OpStats {
        Machine::op_stats(self, pe)
    }
    fn arrival_time_of(&self, pe: usize, target_bytes: u64) -> Option<u64> {
        Machine::arrival_time_of(self, pe, target_bytes)
    }
    fn clear_incoming(&mut self, pe: usize) {
        Machine::clear_incoming(self, pe);
    }
    fn as_machine(&mut self) -> Option<&mut Machine> {
        Some(self)
    }
}
