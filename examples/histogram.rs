//! A global histogram built with the shell's atomic primitives.
//!
//! Every processor classifies a local stream of samples into a histogram
//! spread cyclically over the machine. Remote bins cannot be updated
//! with plain read-modify-write (the Section 4.5 clobber problem!), so
//! two correct strategies are compared:
//!
//! * AM-equivalent `add` deposits applied at the owning node
//!   (Section 7.4's poll-based Active Messages), and
//! * per-node private histograms merged with signaling stores.
//!
//! For flavour, the broken read-modify-write variant is also run to show
//! how many increments it loses.
//!
//! ```sh
//! cargo run --example histogram
//! ```

use splitc::runtime::AM_ADD_U64;
use splitc::{GlobalPtr, SplitC, SplitcConfig, SpreadArray};
use t3d_machine::MachineConfig;
use t3d_prng::Rng;

const NODES: u32 = 8;
const BINS: u64 = 64;
const SAMPLES_PER_PE: usize = 400;

fn samples(pe: usize) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(42 + pe as u64);
    (0..SAMPLES_PER_PE)
        .map(|_| rng.gen_range(0..BINS))
        .collect()
}

fn expected() -> Vec<u64> {
    let mut h = vec![0u64; BINS as usize];
    for pe in 0..NODES as usize {
        for s in samples(pe) {
            h[s as usize] += 1;
        }
    }
    h
}

fn read_bins(sc: &mut SplitC, bins: &SpreadArray) -> Vec<u64> {
    (0..BINS)
        .map(|b| {
            let gp = bins.gptr(b);
            sc.machine().peek8(gp.pe() as usize, gp.addr())
        })
        .collect()
}

fn main() {
    let exp = expected();

    // Strategy 1: AM-equivalent atomic adds at the owner. Each node
    // receives ~350 deposits per phase, so enlarge the default 256-slot
    // queue (the runtime panics on overflow rather than losing updates).
    let mut amq_cfg = SplitcConfig::t3d();
    amq_cfg.am_slots = 1024;
    let mut sc = SplitC::with_config(MachineConfig::t3d(NODES), amq_cfg);
    let base = sc.alloc(BINS * 8, 8);
    let bins = SpreadArray::new(base, 8, BINS, NODES);
    sc.run_phase(|ctx| {
        let pe = ctx.pe();
        for s in samples(pe) {
            let gp = bins.gptr(s);
            if gp.pe() as usize == pe {
                let v = ctx.ops().ld8(gp.addr()) + 1;
                ctx.ops().st8(gp.addr(), v);
            } else {
                ctx.am_deposit(gp.pe() as usize, AM_ADD_U64, [gp.addr(), 1, 0, 0]);
            }
        }
    });
    sc.barrier();
    let am = read_bins(&mut sc, &bins);
    let am_us = sc.max_clock() as f64 / 150.0;
    assert_eq!(am, exp, "AM-based histogram must be exact");
    println!("AM-equivalent adds:     exact, {am_us:>8.1} us");

    // Strategy 2: private histograms + store-based merge.
    let mut sc = SplitC::new(MachineConfig::t3d(NODES));
    let base = sc.alloc(BINS * 8, 8);
    let bins = SpreadArray::new(base, 8, BINS, NODES);
    let private = sc.alloc(BINS * 8, 8);
    sc.run_phase(|ctx| {
        let pe = ctx.pe();
        for s in samples(pe) {
            let off = private + s * 8;
            let v = ctx.ops().ld8(off) + 1;
            ctx.ops().st8(off, v);
            ctx.advance(2);
        }
    });
    sc.barrier();
    // Merge: bin b's owner pulls every node's private count.
    sc.run_phase(|ctx| {
        let pe = ctx.pe();
        for b in bins.owned_by(pe as u32) {
            let mut total = 0u64;
            for src in 0..ctx.nodes() {
                total += if src == pe {
                    ctx.ops().ld8(private + b * 8)
                } else {
                    ctx.read_u64(GlobalPtr::new(src as u32, private + b * 8))
                };
            }
            let gp = bins.gptr(b);
            ctx.ops().st8(gp.addr(), total);
        }
    });
    sc.barrier();
    let merged = read_bins(&mut sc, &bins);
    let merge_us = sc.max_clock() as f64 / 150.0;
    assert_eq!(merged, exp, "merge-based histogram must be exact");
    println!("private + merge:        exact, {merge_us:>8.1} us");

    // Strategy 3 (broken): remote read-modify-write. Increments race.
    let mut sc = SplitC::new(MachineConfig::t3d(NODES));
    let base = sc.alloc(BINS * 8, 8);
    let bins = SpreadArray::new(base, 8, BINS, NODES);
    // Interleave: everyone reads, then everyone writes — the same-phase
    // interleaving a real machine can produce.
    let mut staged: Vec<Vec<(u64, u64)>> = Vec::new();
    for pe in 0..NODES as usize {
        let mut mine = Vec::new();
        sc.on(pe, |ctx| {
            for s in samples(pe) {
                let gp = bins.gptr(s);
                let v = ctx.read_u64(gp) + 1;
                mine.push((s, v));
            }
        });
        staged.push(mine);
    }
    for (pe, writes) in staged.into_iter().enumerate() {
        sc.on(pe, |ctx| {
            for (s, v) in writes {
                ctx.write_u64(bins.gptr(s), v);
            }
        });
    }
    sc.barrier();
    let racy = read_bins(&mut sc, &bins);
    let lost: u64 = exp
        .iter()
        .zip(&racy)
        .map(|(e, r)| e.saturating_sub(*r))
        .sum();
    println!(
        "naive read-modify-write: LOST {lost} of {} increments",
        NODES as usize * SAMPLES_PER_PE
    );
    assert!(
        lost > 0,
        "the race must actually lose updates in this schedule"
    );
}
