//! Integration tests for the t3d-perf profiler: conservation of
//! attributed cycles, sequential/parallel bit-identity, and the
//! pure-observation guarantee (profiling never changes virtual time).

use em3d::{run_version_profiled, run_version_with, Em3dParams, Version};
use t3d_machine::{Cpu, Machine, MachineConfig, PerfMode, PerfReport, PhaseDriver};
use t3d_microbench::probes::attribution;

/// The conservation invariant: on every PE, the cycles attributed to
/// cost classes equal the virtual cycles that elapsed while collection
/// was on. No elapsed cycle may be unattributed or double-counted.
fn assert_conserves(name: &str, report: &PerfReport) {
    for pe in &report.pes {
        assert_eq!(
            pe.ledger.total(),
            pe.elapsed,
            "{name}: PE{} attributed {} of {} elapsed cycles",
            pe.pe,
            pe.ledger.total(),
            pe.elapsed
        );
    }
}

#[test]
fn every_scenario_conserves_cycles_under_seq() {
    for s in attribution::all() {
        assert_conserves(s.name, &(s.run)(PhaseDriver::Seq).report);
    }
}

#[test]
fn every_scenario_conserves_cycles_under_par() {
    for s in attribution::all() {
        assert_conserves(s.name, &(s.run)(PhaseDriver::Par(4)).report);
    }
}

#[test]
fn scenario_reports_are_bit_identical_across_drivers() {
    for s in attribution::all() {
        let seq = (s.run)(PhaseDriver::Seq);
        let par = (s.run)(PhaseDriver::Par(4));
        // ScenarioRun equality covers the report AND the state checksum.
        assert_eq!(seq, par, "{}: Seq and Par(4) runs differ", s.name);
        assert_eq!(
            seq.report.to_json().render_pretty(),
            par.report.to_json().render_pretty(),
            "{}: rendered JSON differs across drivers",
            s.name
        );
    }
}

#[test]
fn em3d_attribution_is_bit_identical_across_drivers() {
    let p = Em3dParams::tiny(30.0);
    for v in Version::all() {
        let (r_seq, perf_seq) = run_version_profiled(PhaseDriver::Seq, 4, p, v);
        let (r_par, perf_par) = run_version_profiled(PhaseDriver::Par(4), 4, p, v);
        assert_eq!(r_seq, r_par, "{}: results differ", v.label());
        assert_eq!(perf_seq, perf_par, "{}: attribution differs", v.label());
        assert_conserves(v.label(), &perf_seq);
    }
}

#[test]
fn em3d_profiled_reports_cover_the_measured_region() {
    let p = Em3dParams::tiny(30.0);
    let (result, perf) = run_version_profiled(PhaseDriver::Seq, 4, p, Version::Put);
    // Elapsed per PE is bounded by the measured wall (max clock delta);
    // the report was rebased after warm-up, so totals are in that range.
    for pe in &perf.pes {
        assert!(
            pe.elapsed <= result.cycles,
            "PE{} elapsed {} exceeds measured window {}",
            pe.pe,
            pe.elapsed,
            result.cycles
        );
    }
    assert!(
        !perf.phases.is_empty(),
        "the profiled run marks comm/compute phases"
    );
    let labels: Vec<&str> = perf.phases.iter().map(|p| p.label.as_str()).collect();
    for want in ["comm.e", "compute.e", "comm.h", "compute.h"] {
        assert!(labels.contains(&want), "missing phase {want}: {labels:?}");
    }
}

#[test]
fn profiling_never_changes_virtual_time() {
    // The pure-observation guarantee: identical programs with profiling
    // off and on land on identical clocks and identical results.
    let p = Em3dParams::tiny(40.0);
    for v in [Version::Simple, Version::Get, Version::Bulk] {
        let plain = run_version_with(PhaseDriver::Seq, 4, p, v);
        let (profiled, _) = run_version_profiled(PhaseDriver::Seq, 4, p, v);
        assert_eq!(
            plain,
            profiled,
            "{}: profiling perturbed the run",
            v.label()
        );
    }
}

#[test]
fn perf_off_collects_nothing_and_costs_nothing() {
    let mut m = Machine::new(MachineConfig::t3d(2));
    // Explicit Off (the default unless T3D_PERF says otherwise).
    m.set_perf_mode(PerfMode::Off);
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.st8(0x100, 7);
    cpu.memory_barrier();
    let _ = cpu.ld8(0x100);
    let report = m.perf();
    assert_eq!(report.total(), 0, "no attribution collected when off");
    assert!(report.registry.hists().next().is_none());
}

#[test]
fn timeline_mode_exports_a_chrome_trace() {
    let mut m = Machine::new(MachineConfig::t3d(2));
    m.set_perf_mode(PerfMode::Timeline);
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.st8(0x100, 7);
    cpu.memory_barrier();
    m.perf_begin_phase("work");
    let _ = Cpu::new(&mut m, 0).ld8(0x100);
    m.perf_end_phase();
    let trace = m.perf_chrome_trace();
    assert!(trace.contains("\"traceEvents\""));
    assert!(
        trace.contains("st.local"),
        "events carry op labels: {trace}"
    );
    assert!(trace.contains("\"work\""), "phase span exported");
}
