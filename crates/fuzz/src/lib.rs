//! t3d-fuzz — differential fuzzing of the Split-C runtime against a
//! flat reference model.
//!
//! The fuzzer closes the loop the hand-written test suites can't: it
//! *generates* SPMD Split-C programs over the full primitive surface —
//! reads and writes, split-phase get/put, signaling stores, dense and
//! strided bulk transfers, AM-queue adds, locks, barriers — and checks
//! every program three ways:
//!
//! 1. **Seq vs Par**: the same program under [`PhaseDriver::Seq`] and
//!    `PhaseDriver::Par(n)` must produce bit-identical memory, virtual
//!    clocks and results at every barrier, the same phase count, op
//!    counters, attribution ledgers and sanitizer findings (the phase
//!    engine's merge determinism contract).
//! 2. **Machine vs reference**: both must match [`refmodel`], a
//!    flat per-PE word-array interpreter with none of the runtime's
//!    machinery — if they disagree at a barrier, a mechanism broke.
//! 3. **Sanitizer silence**: generated programs are zone-disciplined
//!    (disjoint read/write spans per sharded phase, one writer per
//!    cell, single AM depositor per target, locks only in direct
//!    phases), so `t3dsan` in `Collect` mode must report nothing.
//!
//! Failures are auto-[`shrink()`]-ed to a minimal reproducer replayable
//! from its printed seed: every case's seed is derived as
//! [`case_seed`]`(master, index)` and case 0 of a master seed is the
//! master itself, so `t3d-fuzz --cases 1 --seed <case seed>` replays
//! exactly one program.
//!
//! [`PhaseDriver::Seq`]: t3d_machine::PhaseDriver

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod genprog;
pub mod harness;
pub mod lintbridge;
pub mod mutate;
pub mod program;
pub mod refmodel;
pub mod shrink;

pub use genprog::gen_program;
pub use harness::{check_case, run_program, Fault, RunRecord};
pub use lintbridge::{lint_case, lint_program};
pub use mutate::{inject, Mutation};
pub use program::{
    Action, ActionKind, Cell, LoweredPhase, Phase, PhaseKind, Program, Terminator, WORD,
};
pub use refmodel::{interpret, RefOutcome};
pub use shrink::{shrink, DEFAULT_BUDGET};

use t3d_prng::Rng;

/// Weyl step between consecutive case seeds (odd, so all 2^64 seeds
/// cycle before repeating).
const CASE_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seed of case `case` in a `--seed master` run. Case 0 *is* the
/// master seed, so any failing case replays alone via
/// `--cases 1 --seed <case seed>`.
pub fn case_seed(master: u64, case: usize) -> u64 {
    master.wrapping_add((case as u64).wrapping_mul(CASE_STEP))
}

/// Parses a seed argument: `0x…` hex first, then decimal, and as a
/// last resort the FNV-1a hash of the string — so mnemonic seeds like
/// `0xT3D` (not valid hex) still name a reproducible run.
pub fn parse_seed(s: &str) -> u64 {
    let t = s.trim();
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    if let Ok(v) = t.parse::<u64>() {
        return v;
    }
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in t.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The program a single case seed denotes: one fresh generator stream,
/// one program. This is the replay entry point — the whole fuzzer is a
/// loop over `program_for_seed(case_seed(master, i))`.
pub fn program_for_seed(seed: u64) -> Program {
    let mut rng = Rng::seed_from_u64(seed);
    gen_program(&mut rng)
}

/// The deterministic fault a seed denotes for `--inject-fault` runs:
/// drawn from a stream decorrelated from the program's, so the chosen
/// phase, remote write and byte don't track program shape.
pub fn fault_for_seed(seed: u64) -> Fault {
    let mut rng = Rng::seed_from_u64(seed ^ 0xFA17_FA17_FA17_FA17);
    Fault {
        phase: rng.gen_range(0u64..64) as usize,
        write: rng.gen_range(0u64..64) as usize,
        byte: rng.gen_range(0u64..8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_zero_is_the_master_seed() {
        assert_eq!(case_seed(0xABCD, 0), 0xABCD);
        assert_ne!(case_seed(0xABCD, 1), 0xABCD);
    }

    #[test]
    fn case_seeds_replay_as_their_own_case_zero() {
        let master = 0x5EED;
        for i in [1usize, 7, 300] {
            let s = case_seed(master, i);
            assert_eq!(program_for_seed(s), program_for_seed(case_seed(s, 0)));
        }
    }

    #[test]
    fn parse_seed_accepts_hex_decimal_and_mnemonics() {
        assert_eq!(parse_seed("0x10"), 16);
        assert_eq!(parse_seed("0X10"), 16);
        assert_eq!(parse_seed("42"), 42);
        // Not valid hex, not decimal: hashed, but stable.
        assert_eq!(parse_seed("0xT3D"), parse_seed("0xT3D"));
        assert_ne!(parse_seed("0xT3D"), parse_seed("0xT3E"));
    }

    #[test]
    fn faults_are_seed_deterministic() {
        assert_eq!(fault_for_seed(9), fault_for_seed(9));
    }
}
