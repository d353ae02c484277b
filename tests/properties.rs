//! Property-based tests on the core data structures and on whole-machine
//! functional correctness (random operation sequences checked against
//! flat reference models).
//!
//! The cases are drawn from the in-repo deterministic PRNG rather than
//! an external property-testing framework: each test runs its seeded
//! cases through [`Rng::cases`], so failures are reproducible by seed
//! and the value stream matches the hand-written loop this replaces.

use splitc::{GlobalPtr, SpreadArray};
use t3d_machine::{Cpu, Machine, MachineConfig};
use t3d_memsys::{MemConfig, MemPort};
use t3d_prng::Rng;
use t3d_shell::FuncCode;
use t3d_torus::{Torus, TorusConfig};

/// Global pointers round-trip through their packed representation.
#[test]
fn gptr_pack_roundtrip() {
    Rng::cases(0x5001, 512, |_, rng| {
        let pe = rng.gen_range(0u32..u16::MAX as u32 + 1);
        let addr = rng.gen_range(0u64..1 << 48);
        let p = GlobalPtr::new(pe, addr);
        assert_eq!(p.pe(), pe);
        assert_eq!(p.addr(), addr);
        assert_eq!(GlobalPtr::from_bits(p.bits()), p);
    });
}

/// Local arithmetic commutes with extraction.
#[test]
fn gptr_local_arithmetic() {
    Rng::cases(0x5002, 512, |_, rng| {
        let pe = rng.gen_range(0u32..256);
        let addr = rng.gen_range(0u64..1 << 40);
        let d = rng.gen_range(0u64..1 << 20);
        let p = GlobalPtr::new(pe, addr);
        assert_eq!(p.local_add(d).addr(), addr + d);
        assert_eq!(p.local_add(d).pe(), pe);
        assert_eq!(p.local_add(d).local_sub(d), p);
    });
}

/// Global arithmetic is associative in step counts and inverted by
/// global_index.
#[test]
fn gptr_global_arithmetic() {
    Rng::cases(0x5003, 512, |_, rng| {
        let nprocs = rng.gen_range(1u32..64);
        let a = rng.gen_range(0u64..500);
        let b = rng.gen_range(0u64..500);
        let base = GlobalPtr::new(0, 0x1000);
        let one = base.global_add(a + b, 8, nprocs);
        let two = base.global_add(a, 8, nprocs).global_add(b, 8, nprocs);
        assert_eq!(one, two, "global_add composes");
        assert_eq!(one.global_index(0x1000, 8, nprocs), a + b);
    });
}

/// Torus hop counts form a metric: symmetric, zero iff equal, and
/// obeying the triangle inequality.
#[test]
fn torus_hops_is_a_metric() {
    Rng::cases(0x5004, 256, |_, rng| {
        let dims = (
            rng.gen_range(1u32..6),
            rng.gen_range(1u32..6),
            rng.gen_range(1u32..6),
        );
        let seed = rng.next_u64();
        let t = Torus::new(TorusConfig { dims, hop_cy: 2.5 });
        let n = t.nodes();
        let a = (seed % n as u64) as u32;
        let b = ((seed >> 16) % n as u64) as u32;
        let c = ((seed >> 32) % n as u64) as u32;
        assert_eq!(t.hops(a, b), t.hops(b, a));
        assert_eq!(t.hops(a, a), 0);
        if a != b {
            assert!(t.hops(a, b) > 0);
        }
        assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
    });
}

/// Dimension-order routes have exactly `hops` links and stay in bounds,
/// and the allocation-free walk crosses exactly the route's links.
#[test]
fn torus_route_consistency() {
    let check = |t: &Torus, a: u32, b: u32| {
        let (nx, ny, nz) = t.config().dims;
        let route = t.route(a, b);
        assert_eq!(route.len() as u32, t.hops(a, b) + 1);
        for &c in &route {
            assert!(c.x < nx && c.y < ny && c.z < nz);
        }
        let links: Vec<usize> = route
            .windows(2)
            .map(|w| t.step_link_id(w[0], w[1]))
            .collect();
        let walked: Vec<usize> = t.walk(a, b).map(|(_, l)| l).collect();
        assert_eq!(walked, links, "walk {a} -> {b} on {:?}", (nx, ny, nz));
        assert_eq!(walked.len() as u32, t.hops(a, b));
    };
    Rng::cases(0x5005, 256, |_, rng| {
        let dims = (
            rng.gen_range(1u32..5),
            rng.gen_range(1u32..5),
            rng.gen_range(1u32..5),
        );
        let seed = rng.next_u64();
        let t = Torus::new(TorusConfig { dims, hop_cy: 2.5 });
        let n = t.nodes();
        let a = (seed % n as u64) as u32;
        let b = ((seed >> 20) % n as u64) as u32;
        check(&t, a, b);
    });
    // Every pair on tori whose extent-1 and extent-2 rings exercise the
    // degenerate and wire-sharing directions.
    for dims in [
        (1, 1, 1),
        (2, 1, 1),
        (1, 2, 1),
        (1, 1, 2),
        (2, 2, 2),
        (2, 3, 1),
        (1, 4, 2),
        (3, 1, 2),
    ] {
        let t = Torus::new(TorusConfig { dims, hop_cy: 2.5 });
        for a in 0..t.nodes() {
            for b in 0..t.nodes() {
                check(&t, a, b);
            }
        }
    }
    // Sampled pairs on the 1024-PE machine's 8×8×16 torus.
    let t = Torus::new(TorusConfig {
        dims: (8, 8, 16),
        hop_cy: 2.5,
    });
    Rng::cases(0x5015, 4096, |_, rng| {
        let a = rng.gen_range(0u32..1024);
        let b = rng.gen_range(0u32..1024);
        check(&t, a, b);
    });
}

/// The dimension-order route from `a` to `b`, written independently of
/// the torus crate with plain `%` arithmetic: X, then Y, then Z, each
/// the shorter way around its ring, ties going plus. One item per hop:
/// the coordinates reached and the dense id (`node * 6 + dim * 2 +
/// minus`) of the link crossed.
fn reference_route(dims: (u32, u32, u32), a: u32, b: u32) -> Vec<([u32; 3], usize)> {
    let (nx, ny, nz) = dims;
    let extent = [nx, ny, nz];
    let coord = |n: u32| [n % nx, (n / nx) % ny, n / (nx * ny)];
    let node = |c: [u32; 3]| c[0] + nx * (c[1] + ny * c[2]);
    let (mut cur, dst) = (coord(a), coord(b));
    let mut hops = Vec::new();
    for d in 0..3 {
        let e = extent[d];
        let fwd = (dst[d] + e - cur[d]) % e;
        let plus = fwd <= e - fwd;
        while cur[d] != dst[d] {
            let from = node(cur) as usize;
            cur[d] = if plus {
                (cur[d] + 1) % e
            } else {
                (cur[d] + e - 1) % e
            };
            hops.push((cur, from * 6 + d * 2 + usize::from(!plus)));
        }
    }
    hops
}

/// The torus walk crosses exactly the links of the independent
/// reference route: every pair of every torus with extents 1–5, and
/// sampled pairs of the 1024-PE machine's 16×8×8 torus.
#[test]
fn torus_walk_matches_an_independent_reference() {
    let check = |dims: (u32, u32, u32), a: u32, b: u32| {
        let t = Torus::new(TorusConfig { dims, hop_cy: 2.5 });
        let walked: Vec<([u32; 3], usize)> =
            t.walk(a, b).map(|(c, l)| ([c.x, c.y, c.z], l)).collect();
        assert_eq!(
            walked,
            reference_route(dims, a, b),
            "{a} -> {b} on {dims:?}"
        );
    };
    for nx in 1..=5 {
        for ny in 1..=5 {
            for nz in 1..=5 {
                let n = nx * ny * nz;
                for a in 0..n {
                    for b in 0..n {
                        check((nx, ny, nz), a, b);
                    }
                }
            }
        }
    }
    let dims = TorusConfig::for_nodes(1024).dims;
    assert_eq!(dims, (16, 8, 8));
    Rng::cases(0x5016, 4096, |_, rng| {
        let a = rng.gen_range(0u32..1024);
        let b = rng.gen_range(0u32..1024);
        check(dims, a, b);
    });
}

/// Spread arrays partition ownership completely and disjointly.
#[test]
fn spread_partition() {
    Rng::cases(0x5006, 64, |_, rng| {
        let len = rng.gen_range(1u64..2000);
        let nprocs = rng.gen_range(1u32..32);
        let a = SpreadArray::new(0x100, 8, len, nprocs);
        let mut owned = vec![0u32; len as usize];
        for pe in 0..nprocs {
            for i in a.owned_by(pe) {
                owned[i as usize] += 1;
                assert_eq!(a.gptr(i).pe(), pe);
            }
        }
        assert!(owned.iter().all(|&c| c == 1));
    });
}

/// The memory port is functionally a flat byte array under any sequence
/// of local reads, writes and barriers — caches, the write buffer and
/// forwarding must never change values, only timing.
#[test]
fn memport_matches_flat_memory() {
    Rng::cases(0x5007, 48, |_, rng| {
        let n_ops = rng.gen_range(1usize..200);
        let mut port = MemPort::new(MemConfig::t3d());
        let mut reference = vec![0u8; 2048 + 8];
        let mut now = 0u64;
        for _ in 0..n_ops {
            let op = rng.gen_range(0u8..3);
            let addr = rng.gen_range(0u64..2048) & !7; // aligned words
            let val = rng.next_u64();
            match op {
                0 => {
                    now += port.write(now, addr, &val.to_le_bytes());
                    reference[addr as usize..addr as usize + 8].copy_from_slice(&val.to_le_bytes());
                }
                1 => {
                    let mut buf = [0u8; 8];
                    now += port.read(now, addr, &mut buf);
                    assert_eq!(
                        &buf,
                        &reference[addr as usize..addr as usize + 8],
                        "read at {addr:#x} diverged"
                    );
                }
                _ => {
                    now += port.memory_barrier(now);
                }
            }
        }
        // After a final barrier, raw memory agrees everywhere.
        port.memory_barrier(now);
        let mut buf = vec![0u8; 2048];
        port.peek_mem(0, &mut buf);
        assert_eq!(&buf[..], &reference[..2048]);
    });
}

/// Remote reads and writes between two nodes are functionally a pair of
/// flat arrays, provided each write is fenced+acknowledged before a
/// conflicting read — the discipline Split-C's blocking ops follow.
#[test]
fn machine_remote_ops_match_reference() {
    Rng::cases(0x5008, 24, |_, rng| {
        let n_ops = rng.gen_range(1usize..60);
        let mut m = Machine::new(MachineConfig::t3d(2));
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        let mut reference = vec![0u64; 512];
        for _ in 0..n_ops {
            let op = rng.gen_range(0u8..2);
            let slot = rng.gen_range(0u64..512);
            let val = rng.next_u64();
            let va = cpu.va(1, slot * 8);
            match op {
                0 => {
                    cpu.st8(va, val);
                    cpu.memory_barrier();
                    cpu.wait_write_acks();
                    reference[slot as usize] = val;
                }
                _ => {
                    assert_eq!(cpu.ld8(va), reference[slot as usize]);
                }
            }
        }
        for (slot, val) in reference.iter().enumerate() {
            assert_eq!(m.peek8(1, slot as u64 * 8), *val);
        }
    });
}

/// Virtual time is monotone: no operation may move a node's clock
/// backwards.
#[test]
fn clocks_are_monotone() {
    Rng::cases(0x5009, 24, |_, rng| {
        let n_ops = rng.gen_range(1usize..80);
        let mut m = Machine::new(MachineConfig::t3d(2));
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        let mut last = cpu.clock();
        for _ in 0..n_ops {
            let op = rng.gen_range(0u8..6);
            let slot = rng.gen_range(0u64..256);
            let val = rng.next_u64();
            let off = slot * 8;
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
                _ => cpu.wait_write_acks(),
            }
            let now = cpu.clock();
            assert!(now >= last, "clock went backwards: {last} -> {now}");
            last = now;
        }
    });
}
