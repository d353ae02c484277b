//! Cycle-attribution scenarios for the `t3d-perf` harness.
//!
//! Each scenario stimulates one mechanism (like the latency probes do)
//! but returns the profiler's [`PerfReport`] instead of a latency: the
//! interesting output is *where the cycles went*. The suite doubles as
//! the conservation corpus — for every scenario, the sum of all cost
//! classes must equal the elapsed virtual cycles, under both the
//! sequential and the parallel phase driver.

use splitc::{GlobalPtr, SplitC};
use t3d_machine::{Cpu, Machine, MachineConfig, PerfMode, PerfReport, PhaseDriver};
use t3d_shell::blt::BltDirection;
use t3d_shell::FuncCode;

/// What one scenario execution produced: the attribution report plus a
/// determinism fingerprint of the final machine state.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The profiler's cycle-attribution report.
    pub report: PerfReport,
    /// FNV-1a checksum over [`Machine::snapshot_region`] (memory bytes
    /// plus the virtual clocks) at scenario end. Identical across phase
    /// drivers and repeated runs; the throughput bench compares it so a
    /// fast-but-wrong engine fails instead of posting a great rate.
    pub checksum: u64,
    /// Host seconds this run spent outside simulation: constructing the
    /// machine (arena zeroing dominates) before the scenario started,
    /// plus snapshotting and checksumming the final state after it
    /// ended. The throughput harness subtracts it from the rate
    /// denominator via [`t3d_perf::measure_split`]; it is host time, so
    /// it is excluded from equality.
    pub setup_secs: f64,
}

impl PartialEq for ScenarioRun {
    /// Equality covers only the deterministic fields — the report and
    /// the state checksum. `setup_secs` is host wall time and varies
    /// run to run.
    fn eq(&self, other: &Self) -> bool {
        self.report == other.report && self.checksum == other.checksum
    }
}

/// One named attribution scenario.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable name (the key in `BENCH_micro.json`).
    pub name: &'static str,
    /// Runs the scenario under the given phase driver, returning the
    /// attribution report and checksum. The driver is a bit-identity
    /// contract; scenarios that never enter a sharded phase ignore it.
    pub run: fn(PhaseDriver) -> ScenarioRun,
}

/// Every scenario confines its traffic to the first megabyte of each
/// node, so the checksum region covers all bytes any of them can touch.
const SNAP_BYTES: u64 = 1 << 20;

/// Captures the scenario's result: report plus state fingerprint. The
/// snapshot copy and FNV pass touch [`SNAP_BYTES`] per PE — on a tiny
/// scenario that verification sweep, not the simulation, dominates the
/// host wall time — so its host seconds join the excluded overhead.
fn finish(m: &Machine, setup_secs: f64) -> ScenarioRun {
    let t = std::time::Instant::now();
    let checksum = m.snapshot_region(0, SNAP_BYTES).fnv64();
    ScenarioRun {
        report: m.perf(),
        checksum,
        setup_secs: setup_secs + t.elapsed().as_secs_f64(),
    }
}

/// Every scenario, in report order.
pub fn all() -> &'static [Scenario] {
    &[
        Scenario {
            name: "local.read.stream",
            run: local_read_stream,
        },
        Scenario {
            name: "local.write.burst",
            run: local_write_burst,
        },
        Scenario {
            name: "remote.read.uncached",
            run: remote_read_uncached,
        },
        Scenario {
            name: "remote.read.cached",
            run: remote_read_cached,
        },
        Scenario {
            name: "remote.write.block",
            run: remote_write_block,
        },
        Scenario {
            name: "remote.write.pipeline",
            run: remote_write_pipeline,
        },
        Scenario {
            name: "prefetch.pipeline",
            run: prefetch_pipeline,
        },
        Scenario {
            name: "bulk.blt",
            run: bulk_blt,
        },
        Scenario {
            name: "sync.barrier",
            run: sync_barrier,
        },
        Scenario {
            name: "sync.fetchinc",
            run: sync_fetchinc,
        },
        Scenario {
            name: "msg.pingpong",
            run: msg_pingpong,
        },
        Scenario {
            name: "phase.exchange",
            run: phase_exchange,
        },
        Scenario {
            name: "splitc.getput",
            run: splitc_getput,
        },
    ]
}

/// Node memory for scenario machines. Scenarios confine their traffic
/// to [`SNAP_BYTES`]; the T3D's full 16 MB would only add host time
/// zero-initializing bytes no scenario can reach (memory size gates the
/// range checks, never the timing model, so virtual cycles are
/// unaffected — the throughput bench's cycle gate pins that).
const NODE_MEM: usize = 2 << 20;

fn machine(pes: u32) -> (Machine, f64) {
    let t = std::time::Instant::now();
    let mut m = Machine::new(MachineConfig::t3d_with_mem(pes, NODE_MEM));
    m.set_perf_mode(PerfMode::Counters);
    (m, t.elapsed().as_secs_f64())
}

fn aim(cpu: &mut Cpu, target: u32, func: FuncCode) -> u64 {
    cpu.annex_set(1, target, func);
    cpu.va(1, 0)
}

/// Strided local reads: a miss pass over 16 KB, then a hit pass over the
/// resident prefix — L1 hits, DRAM page hits and misses all appear.
fn local_read_stream(_d: PhaseDriver) -> ScenarioRun {
    let (mut m, setup) = machine(1);
    let mut cpu = Cpu::new(&mut m, 0);
    for i in 0..512u64 {
        let _ = cpu.ld8(i * 32);
    }
    for i in 0..256u64 {
        let _ = cpu.ld8(i * 8);
    }
    finish(&m, setup)
}

/// Local write bursts: merging stores within a line, page-hopping stores
/// that stall the write buffer, and the drain at the barrier.
fn local_write_burst(_d: PhaseDriver) -> ScenarioRun {
    let (mut m, setup) = machine(1);
    let mut cpu = Cpu::new(&mut m, 0);
    for i in 0..128u64 {
        cpu.st8(i * 8, i);
    }
    for i in 0..32u64 {
        cpu.st8(i * 16 * 1024, i);
    }
    cpu.memory_barrier();
    finish(&m, setup)
}

/// The Figure 4 uncached probe, attributed: shell launch, network and
/// remote DRAM should dominate.
fn remote_read_uncached(_d: PhaseDriver) -> ScenarioRun {
    let (mut m, setup) = machine(2);
    let mut cpu = Cpu::new(&mut m, 0);
    let base = aim(&mut cpu, 1, FuncCode::Uncached);
    for i in 0..64u64 {
        let _ = cpu.ld8(base + i * 64);
    }
    finish(&m, setup)
}

/// Cached remote reads at word stride: one line fill amortized over
/// three L1 hits.
fn remote_read_cached(_d: PhaseDriver) -> ScenarioRun {
    let (mut m, setup) = machine(2);
    let mut cpu = Cpu::new(&mut m, 0);
    let base = aim(&mut cpu, 1, FuncCode::Cached);
    for i in 0..256u64 {
        let _ = cpu.ld8(base + i * 8);
    }
    finish(&m, setup)
}

/// Blocking remote writes: store, fence, ack wait — every iteration.
fn remote_write_block(_d: PhaseDriver) -> ScenarioRun {
    let (mut m, setup) = machine(2);
    let mut cpu = Cpu::new(&mut m, 0);
    let base = aim(&mut cpu, 1, FuncCode::Uncached);
    for i in 0..32u64 {
        cpu.st8(base + i * 64, i);
        cpu.memory_barrier();
        cpu.wait_write_acks();
    }
    finish(&m, setup)
}

/// Pipelined remote writes (Figure 7's put idiom): a burst of stores,
/// one fence, one ack wait.
fn remote_write_pipeline(_d: PhaseDriver) -> ScenarioRun {
    let (mut m, setup) = machine(2);
    let mut cpu = Cpu::new(&mut m, 0);
    let base = aim(&mut cpu, 1, FuncCode::Uncached);
    for i in 0..64u64 {
        cpu.st8(base + i * 64, i);
    }
    cpu.memory_barrier();
    cpu.wait_write_acks();
    finish(&m, setup)
}

/// Prefetch groups (Figure 6's group-of-4 sweep): issue, fence, pop.
fn prefetch_pipeline(_d: PhaseDriver) -> ScenarioRun {
    let (mut m, setup) = machine(2);
    let mut cpu = Cpu::new(&mut m, 0);
    let base = aim(&mut cpu, 1, FuncCode::Uncached);
    for g in 0..16u64 {
        let mut issued = 0u64;
        for i in 0..4u64 {
            if cpu.fetch(base + (g * 4 + i) * 64) {
                issued += 1;
            }
        }
        cpu.memory_barrier();
        for _ in 0..issued {
            cpu.pop_prefetch().expect("fetched values must pop");
        }
    }
    finish(&m, setup)
}

/// One BLT block write and its completion wait.
fn bulk_blt(_d: PhaseDriver) -> ScenarioRun {
    let (mut m, setup) = machine(2);
    for i in 0..512u64 {
        m.poke_mem(0, 0x8000 + i * 8, &i.to_le_bytes());
    }
    let mut cpu = Cpu::new(&mut m, 0);
    let h = cpu.blt_start(BltDirection::Write, 0x8000, 1, 0x8000, 4096);
    cpu.blt_wait(h);
    finish(&m, setup)
}

/// Skewed barrier episodes: overhead plus wait for the laggard.
fn sync_barrier(_d: PhaseDriver) -> ScenarioRun {
    let (mut m, setup) = machine(4);
    for round in 0..8u64 {
        for pe in 0..4usize {
            Cpu::new(&mut m, pe).advance(50 + (pe as u64) * 37 + round * 11);
        }
        m.barrier_all();
    }
    finish(&m, setup)
}

/// Fetch&increment tickets against a remote register.
fn sync_fetchinc(_d: PhaseDriver) -> ScenarioRun {
    let (mut m, setup) = machine(2);
    let mut cpu = Cpu::new(&mut m, 0);
    for _ in 0..32 {
        let _ = cpu.fetch_inc(1, 0);
    }
    finish(&m, setup)
}

/// Message ping-pong: the 122-cycle PAL send and the receive dispatch.
fn msg_pingpong(_d: PhaseDriver) -> ScenarioRun {
    let (mut m, setup) = machine(2);
    for round in 0..8u64 {
        Cpu::new(&mut m, 0).msg_send(1, [round, 0, 0, 0]);
        let target = m.clock(0) + 10_000;
        let mut rx = Cpu::new(&mut m, 1);
        rx.advance(target.saturating_sub(rx.clock()));
        rx.msg_receive().expect("ping arrived");
        rx.msg_send(0, [round, 1, 0, 0]);
        let target = rx.clock() + 10_000;
        let mut tx = Cpu::new(&mut m, 0);
        tx.advance(target.saturating_sub(tx.clock()));
        tx.msg_receive().expect("pong arrived");
    }
    finish(&m, setup)
}

/// A bulk-synchronous neighbour exchange through the sharded engine —
/// the scenario that exercises the parallel driver's attribution.
fn phase_exchange(d: PhaseDriver) -> ScenarioRun {
    let (mut m, setup) = machine(4);
    for _ in 0..4 {
        m.sharded_phase(d, |cpu| {
            let pe = cpu.pe();
            let right = ((pe + 1) % cpu.nodes()) as u32;
            cpu.annex_set(1, right, FuncCode::Uncached);
            let va = cpu.va(1, 0x2000 + pe as u64 * 8);
            cpu.st8(va, (pe as u64) << 8);
            cpu.memory_barrier();
            cpu.wait_write_acks();
        });
        m.barrier_all();
        m.sharded_phase(d, |cpu| {
            let pe = cpu.pe();
            let left = (pe + cpu.nodes() - 1) % cpu.nodes();
            let v = cpu.ld8(0x2000 + left as u64 * 8);
            assert_eq!(v, (left as u64) << 8, "exchange delivered");
        });
        m.barrier_all();
    }
    finish(&m, setup)
}

/// Split-C gets and puts through the parallel phase driver.
fn splitc_getput(d: PhaseDriver) -> ScenarioRun {
    // Full-size nodes: the Split-C runtime anchors its active-message
    // region at the top of memory, so shrinking node memory would move
    // those addresses and change DRAM timing.
    let t = std::time::Instant::now();
    let mut sc = SplitC::new(MachineConfig::t3d(4));
    let src = sc.alloc(256, 8);
    let dst = sc.alloc(256, 8);
    for pe in 0..4usize {
        for i in 0..8u64 {
            sc.machine().poke8(pe, src + i * 8, pe as u64 * 100 + i);
        }
    }
    sc.machine().set_perf_mode(PerfMode::Counters);
    let setup = t.elapsed().as_secs_f64();
    for _ in 0..2 {
        sc.par_phase_with(d, |ctx| {
            let right = ((ctx.pe() + 1) % ctx.nodes()) as u32;
            for i in 0..8u64 {
                ctx.get(dst + i * 8, GlobalPtr::new(right, src + i * 8));
            }
            ctx.sync();
            ctx.put(GlobalPtr::new(right, dst + 64), ctx.pe() as u64);
            ctx.sync();
        });
        sc.barrier();
    }
    finish(sc.machine_ref(), setup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_attributes_something() {
        for s in all() {
            let run = (s.run)(PhaseDriver::Seq);
            assert!(run.report.total() > 0, "{} attributed no cycles", s.name);
            assert_ne!(run.checksum, 0, "{} produced no fingerprint", s.name);
        }
    }

    #[test]
    fn remote_scenarios_show_remote_cycles() {
        for name in ["remote.read.uncached", "remote.write.block", "bulk.blt"] {
            let s = all().iter().find(|s| s.name == name).unwrap();
            let report = (s.run)(PhaseDriver::Seq).report;
            assert!(
                report.remote_share() > 0.2,
                "{name} remote share {:.2}",
                report.remote_share()
            );
        }
    }
}
