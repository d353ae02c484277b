//! Annex register management policies (Section 3.4).
//!
//! A key compiler question on the T3D is how to manage the 32 DTB Annex
//! registers. The paper weighs three schemes and settles on the first:
//!
//! * [`AnnexPolicy::SingleRegister`] — use annex register 1 for every
//!   remote access, updating it each time (23 cycles). Simple, safe, and
//!   — given how cheap the update is — never clearly beaten.
//! * [`AnnexPolicy::SingleRegisterCached`] — same, but skip the update
//!   when the compiler can prove the target PE is unchanged (the paper's
//!   "skipping the Annex update if ... successive accesses are to the
//!   same processor").
//! * [`AnnexPolicy::HashedMulti`] — hash the PE over registers 1..31
//!   with a runtime table; costs a memory read and a branch (~10 cycles)
//!   per access, and by construction never creates synonyms (one PE maps
//!   to one register).
//! * [`AnnexPolicy::UnsafeMulti`] — allocate registers round-robin with
//!   no synonym check. This is the scheme the paper shows to be
//!   *incorrect*: two registers can name the same PE, and the write
//!   buffer then admits stale reads. It exists here to reproduce that
//!   probe; do not use it for real programs.

use t3d_machine::Cpu;
use t3d_shell::FuncCode;

/// How a node assigns annex registers to remote accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnnexPolicy {
    /// One register, updated on every access (the paper's choice).
    #[default]
    SingleRegister,
    /// One register, update skipped when the PE and flavour match.
    SingleRegisterCached,
    /// PE hashed over many registers with a runtime table (10-cycle
    /// lookup); synonym-free by construction.
    HashedMulti,
    /// Round-robin over many registers with no synonym avoidance —
    /// deliberately unsafe, for the Section 3.4 hazard probe.
    UnsafeMulti,
}

/// Per-node annex management state.
#[derive(Debug, Clone)]
pub struct AnnexState {
    policy: AnnexPolicy,
    /// What each register currently holds, as known to the runtime.
    shadow: Vec<Option<(u32, FuncCode)>>,
    /// Next register for round-robin allocation (UnsafeMulti).
    next_rr: usize,
    /// Updates actually performed (instrumentation).
    updates: u64,
    /// Lookups that skipped the update (instrumentation).
    skips: u64,
}

/// Cost of the HashedMulti table lookup: "a memory read and a branch".
const HASH_LOOKUP_CY: u64 = 10;
/// Cost of the SingleRegisterCached same-PE check.
const CACHE_CHECK_CY: u64 = 2;

impl AnnexState {
    /// Creates management state for `registers` annex entries.
    pub fn new(policy: AnnexPolicy, registers: usize) -> Self {
        AnnexState {
            policy,
            shadow: vec![None; registers],
            next_rr: 1,
            updates: 0,
            skips: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> AnnexPolicy {
        self.policy
    }

    /// Ensures some annex register names `(target_pe, func)` and returns
    /// its index, charging the policy's costs to `cpu`'s node.
    pub fn ensure(&mut self, cpu: &mut Cpu, target_pe: u32, func: FuncCode) -> usize {
        match self.policy {
            AnnexPolicy::SingleRegister => {
                self.set(cpu, 1, target_pe, func);
                1
            }
            AnnexPolicy::SingleRegisterCached => {
                cpu.advance(CACHE_CHECK_CY);
                if self.shadow[1] != Some((target_pe, func)) {
                    self.set(cpu, 1, target_pe, func);
                } else {
                    self.skips += 1;
                }
                1
            }
            AnnexPolicy::HashedMulti => {
                cpu.advance(HASH_LOOKUP_CY);
                let idx = 1 + (target_pe as usize % (self.shadow.len() - 1));
                if self.shadow[idx] != Some((target_pe, func)) {
                    self.set(cpu, idx, target_pe, func);
                } else {
                    self.skips += 1;
                }
                idx
            }
            AnnexPolicy::UnsafeMulti => {
                let idx = self.next_rr;
                self.next_rr = 1 + (self.next_rr % (self.shadow.len() - 1));
                self.set(cpu, idx, target_pe, func);
                idx
            }
        }
    }

    fn set(&mut self, cpu: &mut Cpu, idx: usize, target_pe: u32, func: FuncCode) {
        cpu.annex_set(idx, target_pe, func);
        self.shadow[idx] = Some((target_pe, func));
        self.updates += 1;
    }

    /// Annex updates actually performed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Accesses that skipped the update.
    pub fn skips(&self) -> u64 {
        self.skips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3d_machine::{Machine, MachineConfig};

    fn machine() -> Machine {
        Machine::new(MachineConfig::t3d(4))
    }

    #[test]
    fn single_register_always_updates() {
        let mut m = machine();
        let mut st = AnnexState::new(AnnexPolicy::SingleRegister, 32);
        for _ in 0..3 {
            assert_eq!(
                st.ensure(&mut Cpu::new(&mut m, 0), 2, FuncCode::Uncached),
                1
            );
        }
        assert_eq!(st.updates(), 3);
        assert_eq!(m.clock(0), 3 * 23);
    }

    #[test]
    fn cached_register_skips_repeats() {
        let mut m = machine();
        let mut st = AnnexState::new(AnnexPolicy::SingleRegisterCached, 32);
        st.ensure(&mut Cpu::new(&mut m, 0), 2, FuncCode::Uncached);
        st.ensure(&mut Cpu::new(&mut m, 0), 2, FuncCode::Uncached);
        st.ensure(&mut Cpu::new(&mut m, 0), 3, FuncCode::Uncached);
        assert_eq!(st.updates(), 2);
        assert_eq!(st.skips(), 1);
        // Changing the flavour forces an update too.
        st.ensure(&mut Cpu::new(&mut m, 0), 3, FuncCode::Cached);
        assert_eq!(st.updates(), 3);
    }

    #[test]
    fn hashed_multi_is_synonym_free() {
        let mut m = machine();
        let mut st = AnnexState::new(AnnexPolicy::HashedMulti, 32);
        let i2 = st.ensure(&mut Cpu::new(&mut m, 0), 2, FuncCode::Uncached);
        let i3 = st.ensure(&mut Cpu::new(&mut m, 0), 3, FuncCode::Uncached);
        let i2b = st.ensure(&mut Cpu::new(&mut m, 0), 2, FuncCode::Uncached);
        assert_eq!(i2, i2b, "one PE always maps to one register");
        assert_ne!(i2, i3);
        assert_eq!(st.updates(), 2);
        assert_eq!(st.skips(), 1);
        assert!(m.node(0).annex.synonyms_of(2).len() <= 1);
    }

    #[test]
    fn unsafe_multi_creates_synonyms() {
        let mut m = machine();
        let mut st = AnnexState::new(AnnexPolicy::UnsafeMulti, 32);
        let a = st.ensure(&mut Cpu::new(&mut m, 0), 2, FuncCode::Uncached);
        let b = st.ensure(&mut Cpu::new(&mut m, 0), 2, FuncCode::Uncached);
        assert_ne!(a, b, "round-robin hands out a fresh register");
        assert_eq!(
            m.node(0).annex.synonyms_of(2).len(),
            2,
            "synonym pair exists"
        );
    }

    #[test]
    fn hashed_lookup_is_cheaper_than_update_only_sometimes() {
        // The paper's point: a ~10-cycle lookup saves little against a
        // 23-cycle update, so the single register suffices.
        let mut m = machine();
        let mut st = AnnexState::new(AnnexPolicy::HashedMulti, 32);
        // Alternate PEs: every access still pays lookup, none update
        // after warm-up.
        for _ in 0..4 {
            st.ensure(&mut Cpu::new(&mut m, 0), 2, FuncCode::Uncached);
            st.ensure(&mut Cpu::new(&mut m, 0), 3, FuncCode::Uncached);
        }
        let hashed = m.clock(0);
        let mut m2 = machine();
        let mut st2 = AnnexState::new(AnnexPolicy::SingleRegister, 32);
        for _ in 0..4 {
            st2.ensure(&mut Cpu::new(&mut m2, 0), 2, FuncCode::Uncached);
            st2.ensure(&mut Cpu::new(&mut m2, 0), 3, FuncCode::Uncached);
        }
        let single = m2.clock(0);
        assert!(hashed < single, "hashed wins on alternating PEs");
        let ratio = single as f64 / hashed as f64;
        assert!(ratio < 2.0, "but by less than 2x ({ratio:.2})");
    }
}
