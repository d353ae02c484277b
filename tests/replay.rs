//! The op log's replay gate: a run recorded from a fresh machine and
//! replayed on a fresh machine of the same configuration reproduces
//! every PE clock, the attribution report (cycle total, classes, op
//! counters) and the memory checksum, and logs the same calls again —
//! whichever phase driver recorded it and whichever replays it.

use splitc::{GlobalPtr, SplitC};
use t3d_machine::shell::blt::BltDirection;
use t3d_machine::{Cpu, Machine, MachineConfig, PerfMode, PhaseDriver};
use t3d_microbench::probes::attribution::{self, ScenarioRun};

const DRIVERS: [PhaseDriver; 2] = [PhaseDriver::Seq, PhaseDriver::Par(2)];

/// Replays `rec`'s log on `fresh` under every driver and checks the
/// replay against the recording: clocks, report and checksum, and the
/// log the replay itself records.
fn assert_replays(name: &str, rec: &Machine, fresh: impl Fn() -> Machine) {
    let clocks = |m: &Machine| (0..m.nodes()).map(|pe| m.clock(pe)).collect::<Vec<_>>();
    assert!(!rec.op_log().is_empty(), "{name}: nothing was logged");
    for driver in DRIVERS {
        let mut m = fresh();
        m.log_ops(true);
        m.replay(rec.op_log(), driver);
        let what = format!("{name} replayed under {driver:?}");
        assert_eq!(clocks(&m), clocks(rec), "{what}: clocks");
        assert_eq!(
            ScenarioRun::of(&m, 0.0),
            ScenarioRun::of(rec, 0.0),
            "{what}"
        );
        assert!(
            m.op_log() == rec.op_log(),
            "{what}: the replay logged other calls"
        );
    }
}

#[test]
fn every_micro_scenario_replays_exactly() {
    for s in attribution::all() {
        let mut logs = Vec::new();
        for driver in DRIVERS {
            let mut m = s.machine();
            m.log_ops(true);
            let m = s.run_on(m, driver);
            assert_eq!(
                ScenarioRun::of(&m, 0.0),
                s.run(driver),
                "{}: logging is pure observation",
                s.name
            );
            assert_replays(s.name, &m, || s.machine());
            logs.push(m.op_log().to_vec());
        }
        assert!(
            logs[0] == logs[1],
            "{}: Seq and Par(2) logged differently",
            s.name
        );
    }
}

/// A 64-PE machine with profiling on, link contention as asked.
fn machine64(link_contention: bool) -> Machine {
    let mut cfg = MachineConfig::t3d(64);
    cfg.link_contention = link_contention;
    let mut m = Machine::new(cfg);
    m.set_perf_mode(PerfMode::Counters);
    m
}

#[test]
fn hotspot_and_transpose_replay_exactly_at_64_pes() {
    for contended in [false, true] {
        // Hot spot: every PE takes a ticket from PE 0's counter.
        let mut m = machine64(contended);
        m.log_ops(true);
        for pe in 1..64 {
            let _ = Cpu::new(&mut m, pe).fetch_inc(0, 0);
        }
        m.barrier_all();
        assert_replays("hotspot", &m, || machine64(contended));

        // Transpose: every PE bulk-writes 8 KB across the bisection.
        let mut m = machine64(contended);
        m.log_ops(true);
        for pe in 0..64 {
            Cpu::new(&mut m, pe).poke8(0x2000, pe as u64);
        }
        let handles: Vec<_> = (0..64)
            .map(|pe| {
                let target = (pe + 32) % 64;
                Cpu::new(&mut m, pe).blt_start(BltDirection::Write, 0x2000, target, 0x8000, 8192)
            })
            .collect();
        for (pe, h) in handles.into_iter().enumerate() {
            Cpu::new(&mut m, pe).blt_wait(h);
        }
        m.barrier_all();
        assert_replays("transpose", &m, || machine64(contended));
    }
}

#[test]
fn cached_reads_and_flushes_replay_exactly() {
    // Cached reads leave lines in PE 0's L1 that only the runtime's
    // flushes remove: a replay that missed a flush would read stale.
    let fresh = || {
        let mut m = Machine::new(MachineConfig::t3d(2));
        m.set_perf_mode(PerfMode::Counters);
        m
    };
    let mut m = fresh();
    m.log_ops(true);
    let mut sc = SplitC::from_machine(m);
    let src = sc.alloc(16 * 1024, 64);
    let dst = sc.alloc(16 * 1024, 64);
    for i in 0..2048u64 {
        sc.machine().poke8(1, src + i * 8, i);
    }
    sc.on(0, |ctx| {
        let gp = GlobalPtr::new(1, src);
        assert_eq!(ctx.read_u64_cached(gp), 0);
        ctx.flush_remote_line(gp);
        ctx.bulk_read_cached(dst, gp, 256); // flushed line by line
        ctx.bulk_read_cached(dst, gp, 8 * 1024); // one whole-cache flush
    });
    sc.barrier();
    let m = sc.into_machine();
    assert_eq!(m.peek8(0, dst + 8 * 1000), 1000);
    assert_replays("cached reads", &m, fresh);
}

#[test]
fn message_driven_stores_replay_exactly() {
    // EM3D's message-driven pattern: each round every PE stores words
    // into both neighbours, then waits for its own with `storeSync` and
    // sums them, with no barrier between rounds. Split-C folds each
    // arrival log after every wait; the fold is bookkeeping, not an
    // op, so a replay (which never folds) must reproduce the run from
    // the logged calls alone.
    const PES: u32 = 4;
    const ROUNDS: u64 = 8;
    const WORDS: u64 = 4;
    const ROUND_BYTES: u64 = 2 * WORDS * 8;
    let fresh = || {
        let mut m = Machine::new(MachineConfig::t3d(PES));
        m.set_perf_mode(PerfMode::Counters);
        m
    };
    let mut logs = Vec::new();
    for driver in DRIVERS {
        let mut m = fresh();
        m.log_ops(true);
        let mut sc = SplitC::from_machine(m);
        let inbox = sc.alloc(ROUNDS * ROUND_BYTES, 8);
        let sums = sc.alloc(ROUNDS * 8, 8);
        for round in 0..ROUNDS {
            let slots = inbox + round * ROUND_BYTES;
            sc.par_phase_with(driver, |ctx| {
                let (pe, n) = (ctx.pe() as u64, ctx.nodes() as u64);
                for (side, to) in [(0, (pe + 1) % n), (1, (pe + n - 1) % n)] {
                    for w in 0..WORDS {
                        let slot = slots + (side * WORDS + w) * 8;
                        ctx.store_u64(GlobalPtr::new(to as u32, slot), pe * 100 + round * 10 + w);
                    }
                }
            });
            sc.par_phase_with(driver, |ctx| {
                ctx.store_sync(ROUND_BYTES);
                let sum = (0..2 * WORDS).map(|i| ctx.ops().ld8(slots + i * 8)).sum();
                ctx.ops().st8(sums + round * 8, sum);
            });
        }
        for pe in 0..PES as usize {
            // Each wait folded every arrival it awaited into one entry,
            // which still counts every byte.
            let node = sc.machine_ref().node(pe);
            assert_eq!(node.arrivals().count(), 1, "PE {pe}: log not folded");
            assert_eq!(node.bytes_arrived_by(u64::MAX), ROUNDS * ROUND_BYTES);
        }
        sc.barrier();
        let m = sc.into_machine();
        for pe in 0..PES as u64 {
            let (n, at) = (PES as u64, pe as usize);
            let (right, left) = ((pe + 1) % n, (pe + n - 1) % n);
            for round in 0..ROUNDS {
                let sent = |from: u64| (0..WORDS).map(|w| from * 100 + round * 10 + w).sum::<u64>();
                assert_eq!(m.peek8(at, sums + round * 8), sent(left) + sent(right));
            }
        }
        assert_replays("message-driven stores", &m, fresh);
        logs.push(m.op_log().to_vec());
    }
    assert!(logs[0] == logs[1], "Seq and Par(2) logged differently");
}
