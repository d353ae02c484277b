//! The remote-write arrival log behind `storeSync` stays one epoch long:
//! Split-C folds each node's passed arrivals after every `storeSync`
//! and every barrier, and the fold changes no answer the runtime gives.

use splitc::{GlobalPtr, SplitC};
use t3d_machine::{MachineConfig, PhaseDriver};

const PES: usize = 4;
/// Words each PE stores to its right neighbour per round.
const WORDS: u64 = 8;
const ROUNDS: usize = 1000;

/// One node's arrival log as `(time, bytes)` entries.
type Log = Vec<(u64, u64)>;

/// Node `pe`'s arrival log.
fn log(sc: &SplitC, pe: usize) -> Log {
    sc.machine_ref().node(pe).arrivals().collect()
}

/// Runs `ROUNDS` message-driven rounds (every PE stores `WORDS` words to
/// its right neighbour, then waits for the words its left neighbour
/// stored) and then `ROUNDS` barrier epochs of the same stores, under
/// `driver`. Returns every node's log after each round and epoch, and
/// the longest log seen.
fn run(driver: PhaseDriver) -> (Vec<Vec<Log>>, usize) {
    let mut sc = SplitC::new(MachineConfig::t3d(PES as u32));
    let buf = sc.alloc(WORDS * 8, 8);
    let push = |ctx: &mut splitc::ScCtx| {
        let right = ((ctx.pe() + 1) % ctx.nodes()) as u32;
        for i in 0..WORDS {
            let v = ctx.clock() ^ i;
            ctx.store_u64(GlobalPtr::new(right, buf + i * 8), v);
        }
        ctx.ops().memory_barrier();
    };
    let mut logs = Vec::new();
    let mut longest = 0;
    let mut observe = |sc: &SplitC, logs: &mut Vec<_>| {
        let all: Vec<_> = (0..PES).map(|pe| log(sc, pe)).collect();
        longest = all.iter().map(Vec::len).max().unwrap_or(0).max(longest);
        logs.push(all);
    };
    for _ in 0..ROUNDS {
        sc.par_phase_with(driver, push);
        observe(&sc, &mut logs);
        sc.par_phase_with(driver, |ctx| {
            ctx.store_sync(WORDS * 8);
            assert_eq!(ctx.store_bytes_pending(), 0, "PE {}", ctx.pe());
        });
        observe(&sc, &mut logs);
    }
    for _ in 0..ROUNDS {
        sc.par_phase_with(driver, push);
        observe(&sc, &mut logs);
        sc.barrier();
        observe(&sc, &mut logs);
    }
    (logs, longest)
}

#[test]
fn arrival_logs_stay_one_epoch_long() {
    let (logs, longest) = run(PhaseDriver::Seq);
    // One folded entry plus one round's arrivals, after 2,000 rounds.
    assert!(
        longest <= WORDS as usize + 1,
        "a log grew to {longest} entries over {} rounds",
        2 * ROUNDS
    );
    // Nothing is lost: each log still counts every byte that arrived.
    let last = logs.last().expect("observed");
    for (pe, l) in last.iter().enumerate() {
        let bytes: u64 = l.iter().map(|&(_, b)| b).sum();
        assert_eq!(bytes, 2 * ROUNDS as u64 * WORDS * 8, "PE {pe}");
    }
}

#[test]
fn folded_logs_are_identical_under_both_drivers() {
    let (seq, _) = run(PhaseDriver::Seq);
    let (par, longest) = run(PhaseDriver::Par(2));
    assert!(
        longest <= WORDS as usize + 1,
        "{longest} entries under Par(2)"
    );
    assert_eq!(seq.len(), par.len());
    for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(a, b, "logs diverge at observation {i}");
    }
}

/// The earliest time at which the arrivals in `log` (not folded) reach
/// `target` bytes, by a linear scan.
fn model_arrival(log: &[(u64, u64)], target: u64) -> u64 {
    let mut acc = 0;
    log.iter()
        .find_map(|&(t, b)| {
            acc += b;
            (acc >= target).then_some(t)
        })
        .expect("enough bytes arrived")
}

/// A sender that lags behind the receiver's fold lands its write before
/// the folded entry; every `storeSync` still costs exactly what the
/// unfolded log says. The twin runs the same senders, but its receiver
/// never waits, so its log is never folded.
#[test]
fn a_lagging_sender_lands_before_the_fold_and_changes_no_wait() {
    let mut sc = SplitC::new(MachineConfig::t3d(PES as u32));
    let mut twin = SplitC::new(MachineConfig::t3d(PES as u32));
    let buf = sc.alloc(64, 8);
    assert_eq!(twin.alloc(64, 8), buf);
    let check = sc.config().store_sync_check_cy;
    // PE 1 writes at about 500 cycles, PE 2 (the laggard) at 0, PE 3 far
    // past the receiver.
    let send = |s: &mut SplitC, pe: usize, wait: u64, words: u64| {
        s.on(pe, |ctx| {
            ctx.advance(wait);
            for i in 0..words {
                ctx.store_u64(GlobalPtr::new(0, buf + (pe as u64 * 2 + i) * 8), i + 1);
            }
            ctx.ops().memory_barrier();
        });
    };
    for s in [&mut sc, &mut twin] {
        s.on(0, |ctx| ctx.advance(10_000));
    }
    let mut clock = twin.machine_ref().clock(0);
    let mut awaited = 0;
    // Each step: the sends as `(sender, cycles to wait first, words)`,
    // then the receiver's `storeSync(bytes)`.
    type Sends<'a> = &'a [(usize, u64, u64)];
    let steps: [(Sends, u64); 3] = [
        (&[(1, 500, 2)], 16),
        (&[(2, 0, 1), (3, 20_000, 1)], 8),
        (&[], 8),
    ];
    for (k, (sends, bytes)) in steps.into_iter().enumerate() {
        for &(pe, wait, words) in sends {
            send(&mut sc, pe, wait, words);
            send(&mut twin, pe, wait, words);
        }
        if k == 1 {
            // The laggard's write sits before the entry the first
            // `storeSync` folded PE 1's two writes into.
            let l = log(&sc, 0);
            assert_eq!(l.len(), 3, "{l:?}");
            assert_eq!((l[0].1, l[1].1, l[2].1), (8, 16, 8), "{l:?}");
            assert!(l[0].0 < l[1].0 && l[1].0 < l[2].0, "{l:?}");
        }
        sc.on(0, |ctx| ctx.store_sync(bytes));
        awaited += bytes;
        let t = model_arrival(&log(&twin, 0), awaited);
        clock = clock.max(t) + check;
        assert_eq!(sc.machine_ref().clock(0), clock, "storeSync {k}");
    }
    // The unfolded log would answer every query the same way.
    assert_eq!(log(&twin, 0).len(), 4);
    assert_eq!(log(&sc, 0).len(), 1);
    sc.on(0, |ctx| assert_eq!(ctx.store_bytes_pending(), 0));
}
