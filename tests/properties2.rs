//! Second property suite: functional models of individual mechanisms
//! against simple references, and whole-machine determinism.
//!
//! Cases run through [`Rng::cases`] (fixed seeds, fixed case counts) so
//! every failure is reproducible and the value stream matches the
//! hand-written loop this replaces.

use em3d::{Em3dGraph, Em3dParams};
use splitc::{AnnexPolicy, GlobalPtr, SplitC, SplitcConfig};
use std::collections::HashMap;
use t3d_machine::{Cpu, Machine, MachineConfig};
use t3d_memsys::{L1Cache, MemConfig};
use t3d_prng::Rng;
use t3d_shell::{FuncCode, PrefetchUnit, ShellConfig};

/// The L1 cache is functionally a map from line address to bytes:
/// fills and updates must never corrupt data, and lookups must return
/// exactly what a reference map holds.
#[test]
fn l1_matches_reference_map() {
    Rng::cases(0x6001, 48, |_, rng| {
        let n_ops = rng.gen_range(1usize..300);
        let mut l1 = L1Cache::new(MemConfig::t3d().l1);
        // Reference: line base -> 32 bytes, for lines currently resident.
        let mut reference: HashMap<u64, [u8; 32]> = HashMap::new();
        let index_of = |line: u64| (line / 32) % 256;
        for _ in 0..n_ops {
            let op = rng.gen_range(0u8..4);
            let line_idx = rng.gen_range(0u64..64);
            let val = rng.gen_range(0u32..256) as u8;
            let line_pa = line_idx * 32;
            match op {
                0 => {
                    // Fill: evicts whatever shares the index.
                    l1.fill(line_pa, &[val; 32]);
                    reference.retain(|&k, _| index_of(k) != index_of(line_pa));
                    reference.insert(line_pa, [val; 32]);
                }
                1 => {
                    // Update one word: hits only if resident.
                    let hit = l1.update(line_pa + 8, &[val; 8]);
                    assert_eq!(hit, reference.contains_key(&line_pa));
                    if let Some(data) = reference.get_mut(&line_pa) {
                        data[8..16].copy_from_slice(&[val; 8]);
                    }
                }
                2 => {
                    l1.invalidate(line_pa);
                    reference.remove(&line_pa);
                }
                _ => match (l1.lookup(line_pa), reference.get(&line_pa)) {
                    (Some(got), Some(want)) => assert_eq!(got, want.as_slice()),
                    (None, None) => {}
                    (got, want) => panic!(
                        "presence mismatch at {line_pa:#x}: sim {:?} ref {:?}",
                        got.is_some(),
                        want.is_some()
                    ),
                },
            }
        }
    });
}

/// The prefetch queue is strictly FIFO under any interleaving of
/// issues, fences and pops, and never yields undeparted data.
#[test]
fn prefetch_queue_is_fifo() {
    Rng::cases(0x6002, 64, |_, rng| {
        let n_ops = rng.gen_range(1usize..200);
        let mut pf = PrefetchUnit::new(&ShellConfig::t3d());
        let mut now = 0u64;
        let mut next_issued = 0u64;
        let mut next_expected = 0u64;
        for _ in 0..n_ops {
            match rng.gen_range(0u8..4) {
                0 | 1 => {
                    if pf.issue(now, next_issued, 80).is_some() {
                        next_issued += 1;
                        now += 4;
                    }
                }
                2 => {
                    pf.note_memory_barrier(now);
                    now += 4;
                }
                _ => {
                    if let Ok((v, cost)) = pf.pop(now) {
                        assert_eq!(v, next_expected, "FIFO order violated");
                        next_expected += 1;
                        now += cost;
                    }
                }
            }
        }
        // Drain: everything issued must come out, in order.
        pf.note_memory_barrier(now);
        while let Ok((v, cost)) = pf.pop(now) {
            assert_eq!(v, next_expected);
            next_expected += 1;
            now += cost;
        }
        assert_eq!(next_expected, next_issued, "no prefetch lost");
    });
}

/// Safe annex policies never leave two registers naming one PE, no
/// matter the access pattern.
#[test]
fn safe_annex_policies_are_synonym_free() {
    Rng::cases(0x6003, 48, |case, rng| {
        let n_targets = rng.gen_range(1usize..80);
        let targets: Vec<u32> = (0..n_targets).map(|_| rng.gen_range(1u32..8)).collect();
        let policy = match case % 3 {
            0 => AnnexPolicy::SingleRegister,
            1 => AnnexPolicy::SingleRegisterCached,
            _ => AnnexPolicy::HashedMulti,
        };
        let mut cfg = SplitcConfig::t3d();
        cfg.annex_policy = policy;
        let mut sc = SplitC::with_config(MachineConfig::t3d(8), cfg);
        let buf = sc.alloc(8, 8);
        sc.on(0, |ctx| {
            for &t in &targets {
                let _ = ctx.read_u64(GlobalPtr::new(t, buf));
            }
        });
        for pe in 1..8 {
            assert!(
                sc.machine().node(0).annex.synonyms_of(pe).len() <= 1,
                "{policy:?} created a synonym for PE {pe}"
            );
        }
    });
}

/// The whole machine is deterministic: the same op sequence twice gives
/// bit-identical clocks and memory.
#[test]
fn machine_is_deterministic() {
    Rng::cases(0x6004, 16, |_, rng| {
        let n_ops = rng.gen_range(1usize..60);
        let ops: Vec<(u8, u64, u64)> = (0..n_ops)
            .map(|_| {
                (
                    rng.gen_range(0u8..7),
                    rng.gen_range(0u64..128),
                    rng.next_u64(),
                )
            })
            .collect();
        let run = |ops: &[(u8, u64, u64)]| -> (Vec<u64>, Vec<u64>) {
            let mut m = Machine::new(MachineConfig::t3d(4));
            for pe in 0..4usize {
                Cpu::new(&mut m, pe).annex_set(1, ((pe as u32) + 1) % 4, FuncCode::Uncached);
            }
            for &(op, slot, val) in ops {
                let pe = (val % 4) as usize;
                let off = slot * 8;
                let mut cpu = Cpu::new(&mut m, pe);
                match op {
                    0 => cpu.st8(off, val),
                    1 => {
                        let _ = cpu.ld8(off);
                    }
                    2 => cpu.st8(cpu.va(1, off), val),
                    3 => {
                        let _ = cpu.ld8(cpu.va(1, off));
                    }
                    4 => cpu.memory_barrier(),
                    5 => {
                        let _ = cpu.fetch_inc((pe + 1) % 4, 0);
                    }
                    _ => m.barrier_all(),
                }
            }
            let clocks = (0..4).map(|pe| m.clock(pe)).collect();
            let mems = (0..4)
                .map(|pe| {
                    // Hash the first 1 KB of each node's memory.
                    let mut buf = vec![0u8; 1024];
                    m.peek_mem(pe, 0, &mut buf);
                    buf.iter()
                        .fold(0u64, |h, &b| h.wrapping_mul(31).wrapping_add(b as u64))
                })
                .collect();
            (clocks, mems)
        };
        let a = run(&ops);
        let b = run(&ops);
        assert_eq!(a, b);
    });
}

/// EM3D graph generation respects its own contract for any parameters:
/// endpoints in range, remote fraction tracking the request.
#[test]
fn em3d_graphs_are_well_formed() {
    Rng::cases(0x6005, 32, |case, rng| {
        let nodes_per_pe = rng.gen_range(4usize..60);
        let degree = rng.gen_range(1usize..12);
        let pct: u8 = match case % 4 {
            0 => 0,
            1 => 100,
            _ => rng.gen_range(0u32..101) as u8,
        };
        let nprocs = rng.gen_range(2u32..12);
        let seed = rng.next_u64();
        let params = Em3dParams {
            nodes_per_pe,
            degree,
            pct_remote: pct as f64,
            steps: 1,
            seed,
        };
        let g = Em3dGraph::generate(params, nprocs);
        for (p, nodes) in g.e_deps.iter().enumerate() {
            assert_eq!(nodes.len(), nodes_per_pe);
            for deps in nodes {
                assert_eq!(deps.len(), degree);
                for ep in deps {
                    assert!(ep.pe < nprocs);
                    assert!((ep.idx as usize) < nodes_per_pe);
                    if pct == 0 {
                        assert_eq!(ep.pe as usize, p, "0% graphs are fully local");
                    }
                    if pct == 100 {
                        assert_ne!(ep.pe as usize, p, "100% graphs are fully remote");
                    }
                }
            }
        }
        let measured = g.measured_remote_fraction() * 100.0;
        let n_edges = (2 * nprocs as usize * nodes_per_pe * degree) as f64;
        let tolerance = 5.0 + 300.0 / n_edges.sqrt();
        assert!(
            (measured - pct as f64).abs() <= tolerance,
            "requested {pct}%, generated {measured:.1}% (tolerance {tolerance:.1})"
        );
    });
}

/// The write buffer delivers remote entries byte-exactly under any mix
/// of merged and separate stores: a two-node machine where node 0
/// writes random byte spans remotely must leave node 1's memory equal
/// to a flat reference array.
#[test]
fn remote_write_buffer_is_byte_exact() {
    Rng::cases(0x6006, 24, |_, rng| {
        let n_ops = rng.gen_range(1usize..120);
        let mut m = Machine::new(MachineConfig::t3d(2));
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        let mut reference = vec![0u8; 2048];
        for _ in 0..n_ops {
            let slot = rng.gen_range(0u64..256);
            let len = rng.gen_range(1usize..8).min(8);
            let val = rng.gen_range(0u32..256) as u8;
            // A len-byte store within one 8-byte word (never crossing a
            // 32-byte line).
            let off = slot * 8;
            let bytes = vec![val; len];
            cpu.st(cpu.va(1, off), &bytes);
            reference[off as usize..off as usize + len].copy_from_slice(&bytes);
        }
        cpu.memory_barrier();
        cpu.wait_write_acks();
        let mut got = vec![0u8; 2048];
        m.peek_mem(1, 0, &mut got);
        assert_eq!(got, reference);
    });
}

/// Split-C reads always return the last fenced write, across any
/// pattern of writers (single-writer-per-slot discipline).
#[test]
fn splitc_rw_linearizes() {
    Rng::cases(0x6007, 24, |_, rng| {
        let n_ops = rng.gen_range(1usize..40);
        let mut sc = SplitC::new(MachineConfig::t3d(4));
        let base = sc.alloc(32 * 8, 8);
        let mut reference = [0u64; 32];
        for _ in 0..n_ops {
            let owner = rng.gen_range(0u64..4);
            let slot = rng.gen_range(0u64..32);
            let val = rng.next_u64();
            let writer = (owner as usize + 1) % 4;
            let gp = GlobalPtr::new((slot % 4) as u32, base + slot * 8);
            sc.on(writer, |ctx| ctx.write_u64(gp, val));
            reference[slot as usize] = val;
            let reader = (owner as usize + 2) % 4;
            let got = sc.on(reader, |ctx| ctx.read_u64(gp));
            assert_eq!(got, reference[slot as usize]);
        }
    });
}
