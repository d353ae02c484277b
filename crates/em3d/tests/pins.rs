//! Exact timing and phase structure of every EM3D version.
//!
//! A change that reorders a phase, drops a barrier or moves a single
//! cycle fails here, under `cargo test`, not only in the `t3d-perf`
//! bench gate. Only a change meant to move EM3D timing updates these
//! constants, together with `BENCH_em3d.json`.

use em3d::{run_version_observed, run_version_with, Em3dParams, Version};
use splitc::{RecEvent, SanitizeMode};
use t3d_machine::PhaseDriver;

const PES: u32 = 4;

/// One version's pinned run at `Em3dParams::tiny(20.0)` on 4 PEs.
struct Pin {
    version: Version,
    cycles: u64,
    clock_fnv: u64,
    mem_fnv: u64,
    /// SPMD phases per leapfrog step.
    phases_per_step: usize,
    /// Global barriers per leapfrog step.
    barriers_per_step: usize,
}

const PINS: [Pin; 7] = [
    Pin {
        version: Version::Simple,
        cycles: 32043,
        clock_fnv: 0x3fe4_2619_5f98_4719,
        mem_fnv: 0x7fbd_bfa1_f0cd_29a6,
        phases_per_step: 4,
        barriers_per_step: 4,
    },
    Pin {
        version: Version::Bundle,
        cycles: 27863,
        clock_fnv: 0x7a79_8c63_e80f_edb5,
        mem_fnv: 0xe9cd_090f_164b_1703,
        phases_per_step: 4,
        barriers_per_step: 4,
    },
    Pin {
        version: Version::Unroll,
        cycles: 25463,
        clock_fnv: 0x701f_799d_c4ed_dd35,
        mem_fnv: 0xb639_093e_f4c5_6283,
        phases_per_step: 4,
        barriers_per_step: 4,
    },
    Pin {
        version: Version::Get,
        cycles: 20483,
        clock_fnv: 0xa089_e675_8833_f725,
        mem_fnv: 0x568f_98c3_6018_fae3,
        phases_per_step: 4,
        barriers_per_step: 4,
    },
    Pin {
        version: Version::Put,
        cycles: 19777,
        clock_fnv: 0xa104_c949_19ee_9b05,
        mem_fnv: 0x4cb3_8783_3f0b_9633,
        phases_per_step: 6,
        barriers_per_step: 6,
    },
    Pin {
        version: Version::Bulk,
        cycles: 18865,
        clock_fnv: 0x2736_f1df_b278_5125,
        mem_fnv: 0x6bdf_a881_a843_a604,
        phases_per_step: 6,
        barriers_per_step: 6,
    },
    Pin {
        version: Version::StoreSync,
        cycles: 18809,
        clock_fnv: 0x6f4c_8364_47ee_a4f1,
        mem_fnv: 0xc2c7_0bd3_c9d1_b63f,
        phases_per_step: 4,
        barriers_per_step: 0,
    },
];

#[test]
fn every_version_keeps_its_cycles_and_fingerprints() {
    for pin in &PINS {
        let r = run_version_with(PhaseDriver::Seq, PES, Em3dParams::tiny(20.0), pin.version);
        let label = pin.version.label();
        assert_eq!(r.cycles, pin.cycles, "{label}: cycles");
        assert_eq!(r.clock_fnv, pin.clock_fnv, "{label}: clock_fnv");
        assert_eq!(r.mem_fnv, pin.mem_fnv, "{label}: mem_fnv");
    }
}

#[test]
fn every_version_keeps_its_phase_and_barrier_structure() {
    let params = Em3dParams::tiny(20.0);
    // The warm-up step plus the measured steps, then one fence barrier
    // before verification.
    let steps = 1 + params.steps;
    for pin in &PINS {
        let (_, log, _) = run_version_observed(
            PhaseDriver::Seq,
            PES,
            params,
            pin.version,
            true,
            SanitizeMode::Off,
        );
        let label = pin.version.label();
        let count = |want: &RecEvent| log[0].iter().filter(|e| *e == want).count();
        assert_eq!(
            count(&RecEvent::PhaseEnd),
            pin.phases_per_step * steps,
            "{label}: phases"
        );
        assert_eq!(
            count(&RecEvent::Barrier),
            pin.barriers_per_step * steps + 1,
            "{label}: barriers"
        );
    }
}
