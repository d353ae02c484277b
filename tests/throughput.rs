//! Integration tests for the simulator-throughput benchmark layer: the
//! determinism checksum must be identical across phase drivers and
//! repeated runs, and a corrupted run must fail the measurement instead
//! of posting a rate — a fast-but-wrong engine never benchmarks well.

use t3d_machine::{Cpu, Machine, MachineConfig, PhaseDriver};
use t3d_microbench::probes::attribution;
use t3d_perf::{measure, RunSample, ThroughputSpec};

/// Runs one scenario under `measure` and returns its throughput block.
fn measured(name: &str, driver: PhaseDriver) -> t3d_perf::Throughput {
    let s = attribution::all()
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no scenario {name}"));
    measure(ThroughputSpec { warmup: 1, runs: 2 }, || {
        let run = s.run(driver);
        RunSample {
            sim_cycles: run.report.total(),
            sim_ops: 0,
            checksum: run.checksum,
        }
    })
    .unwrap_or_else(|e| panic!("{name} under {driver:?}: {e}"))
}

#[test]
fn checksums_are_identical_across_drivers_and_repeated_runs() {
    // `measure` itself enforces run-to-run identity (warmup included);
    // across drivers the whole throughput fingerprint must also agree.
    for name in ["phase.exchange", "splitc.getput", "sync.barrier"] {
        let seq = measured(name, PhaseDriver::Seq);
        let par = measured(name, PhaseDriver::Par(4));
        assert_eq!(seq.checksum, par.checksum, "{name}: state diverged");
        assert_eq!(seq.sim_cycles, par.sim_cycles, "{name}: cycles diverged");
    }
}

#[test]
fn every_scenario_is_measurable_under_both_drivers() {
    for s in attribution::all() {
        for driver in [PhaseDriver::Seq, PhaseDriver::Par(4)] {
            let t = measure(ThroughputSpec { warmup: 0, runs: 2 }, || {
                let run = s.run(driver);
                RunSample {
                    sim_cycles: run.report.total(),
                    sim_ops: 0,
                    checksum: run.checksum,
                }
            })
            .unwrap_or_else(|e| panic!("{} under {driver:?}: {e}", s.name));
            assert!(t.cycles_per_sec.mean > 0.0, "{}: no rate", s.name);
        }
    }
}

#[test]
fn a_corrupted_run_fails_with_a_checksum_mismatch() {
    let mut runs = 0u32;
    let err = measure(ThroughputSpec { warmup: 0, runs: 3 }, || {
        let mut m = Machine::new(MachineConfig::t3d(2));
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.st8(0x100, 7);
        cpu.memory_barrier();
        runs += 1;
        if runs == 3 {
            // The fuzzer's fault-injection hook: one flipped byte in
            // the snapshot region must sink the whole measurement.
            m.corrupt_byte(1, 0x200);
        }
        RunSample {
            sim_cycles: m.clock(0),
            sim_ops: 1,
            checksum: m.snapshot_region(0, 0x400).fnv64(),
        }
    })
    .expect_err("corrupted third run must fail the measurement");
    assert!(err.contains("nondeterministic"), "unexpected error: {err}");
    assert!(err.contains("checksum"), "unexpected error: {err}");
}

#[test]
fn a_cycle_divergence_also_fails_the_measurement() {
    let mut runs = 0u64;
    let err = measure(ThroughputSpec { warmup: 0, runs: 2 }, || {
        runs += 1;
        RunSample {
            sim_cycles: 100 + runs % 2,
            sim_ops: 1,
            checksum: 42,
        }
    })
    .expect_err("wobbling cycles must fail");
    assert!(err.contains("nondeterministic"), "unexpected error: {err}");
}
