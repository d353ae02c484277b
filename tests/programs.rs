//! Cross-crate integration tests: whole SPMD programs on the simulated
//! machine, exercising the Split-C runtime the way the paper's
//! applications do.

use splitc::runtime::{AM_ADD_U64, AM_USER_BASE};
use splitc::{GlobalPtr, SplitC, SpreadArray};
use t3d_machine::MachineConfig;

/// All-to-all personalized exchange with bulk puts, then verification.
#[test]
fn all_to_all_exchange() {
    const P: u32 = 8;
    const WORDS: u64 = 16;
    let mut sc = SplitC::new(MachineConfig::t3d(P));
    let send = sc.alloc(P as u64 * WORDS * 8, 8);
    let recv = sc.alloc(P as u64 * WORDS * 8, 8);
    // Fill send buffers: word w for destination d from source s encodes
    // (s, d, w).
    for s in 0..P as usize {
        for d in 0..P as u64 {
            for w in 0..WORDS {
                sc.machine().poke8(
                    s,
                    send + (d * WORDS + w) * 8,
                    (s as u64) << 32 | d << 16 | w,
                );
            }
        }
    }
    sc.run_phase(|ctx| {
        let me = ctx.pe() as u64;
        for d in 0..ctx.nodes() as u64 {
            let dst_off = recv + me * WORDS * 8; // my slot at the receiver
            ctx.bulk_put(
                GlobalPtr::new(d as u32, dst_off),
                send + d * WORDS * 8,
                WORDS * 8,
            );
        }
        ctx.sync();
    });
    sc.barrier();
    for d in 0..P as usize {
        for s in 0..P as u64 {
            for w in 0..WORDS {
                let got = sc.machine().peek8(d, recv + (s * WORDS + w) * 8);
                assert_eq!(got, s << 32 | (d as u64) << 16 | w, "s={s} d={d} w={w}");
            }
        }
    }
}

/// Global sum reduction: leaves store partial sums at the root, which
/// waits with `store_sync` for exactly the expected data.
#[test]
fn reduction_with_store_sync() {
    const P: u32 = 16;
    let mut sc = SplitC::new(MachineConfig::t3d(P));
    let slots = sc.alloc(P as u64 * 8, 8);
    sc.run_phase(|ctx| {
        let me = ctx.pe() as u64;
        if me != 0 {
            let contribution = (me + 1) * 100;
            ctx.store_u64(GlobalPtr::new(0, slots + me * 8), contribution);
            // Push the store out so its arrival is logged.
            let pe = ctx.pe();
            ctx.machine().memory_barrier(pe);
        }
    });
    let total = sc.on(0, |ctx| {
        ctx.store_sync((P as u64 - 1) * 8);
        let mut sum = 100u64; // own contribution
        for i in 1..P as u64 {
            sum += ctx.machine().ld8(0, slots + i * 8);
        }
        sum
    });
    let expected: u64 = (1..=P as u64).map(|i| i * 100).sum();
    assert_eq!(total, expected);
}

/// Pointer-chasing across nodes: a distributed linked list walked with
/// blocking reads, as a C-like language must support (global pointers in
/// shared data structures).
#[test]
fn distributed_linked_list_walk() {
    const P: u32 = 8;
    const LEN: u64 = 64;
    let mut sc = SplitC::new(MachineConfig::t3d(P));
    let nodes = sc.alloc(LEN * 16, 16); // {value, next} pairs, one per hop
                                        // Build the list hopping between processors: element i lives on
                                        // PE (i*3) % P at slot i.
    let place = |i: u64| GlobalPtr::new(((i * 3) % P as u64) as u32, nodes + i * 16);
    for i in 0..LEN {
        let gp = place(i);
        let next = if i + 1 < LEN {
            place(i + 1)
        } else {
            GlobalPtr::NULL
        };
        sc.machine().poke8(gp.pe() as usize, gp.addr(), i * 7);
        sc.machine()
            .poke8(gp.pe() as usize, gp.addr() + 8, next.bits());
    }
    let sum = sc.on(0, |ctx| {
        let mut cur = place(0);
        let mut sum = 0u64;
        while !cur.is_null() {
            sum += ctx.read_u64(cur);
            cur = GlobalPtr::from_bits(ctx.read_u64(cur.local_add(8)));
        }
        sum
    });
    assert_eq!(sum, (0..LEN).map(|i| i * 7).sum::<u64>());
}

/// A spread-array SAXPY with global addressing: every node updates the
/// elements it owns; results checked globally.
#[test]
fn spread_array_saxpy() {
    const P: u32 = 4;
    const N: u64 = 1000;
    let mut sc = SplitC::new(MachineConfig::t3d(P));
    let xs = SpreadArray::new(sc.alloc(N * 8 / P as u64 + 8, 8), 8, N, P);
    let ys = SpreadArray::new(sc.alloc(N * 8 / P as u64 + 8, 8), 8, N, P);
    for i in 0..N {
        let (x, y) = (xs.gptr(i), ys.gptr(i));
        sc.machine()
            .poke8(x.pe() as usize, x.addr(), (i as f64).to_bits());
        sc.machine()
            .poke8(y.pe() as usize, y.addr(), (2.0 * i as f64).to_bits());
    }
    sc.run_phase(|ctx| {
        let pe = ctx.pe();
        for i in xs.owned_by(pe as u32) {
            let x = f64::from_bits(ctx.machine().ld8(pe, xs.gptr(i).addr()));
            let y = f64::from_bits(ctx.machine().ld8(pe, ys.gptr(i).addr()));
            let r = 3.0 * x + y;
            ctx.machine().st8(pe, ys.gptr(i).addr(), r.to_bits());
            ctx.advance(12);
        }
    });
    sc.barrier();
    for i in 0..N {
        let y = ys.gptr(i);
        let got = f64::from_bits(sc.machine().peek8(y.pe() as usize, y.addr()));
        assert_eq!(got, 3.0 * i as f64 + 2.0 * i as f64, "element {i}");
    }
}

/// Work queue with fetch&increment: nodes claim tasks from a shared
/// counter; every task is executed exactly once.
#[test]
fn fetch_inc_work_queue() {
    const P: u32 = 8;
    const TASKS: u64 = 100;
    let mut sc = SplitC::new(MachineConfig::t3d(P));
    let done = sc.alloc(TASKS * 8, 8);
    sc.run_phase(|ctx| loop {
        let pe = ctx.pe();
        let t = ctx.machine().fetch_inc(pe, 0, 1);
        if t >= TASKS {
            break;
        }
        // "Execute" task t: mark it with our PE + 1.
        ctx.am_deposit(0, AM_ADD_U64, [done + t * 8, ctx.pe() as u64 + 1, 0, 0]);
    });
    sc.barrier();
    for t in 0..TASKS {
        let v = sc.machine().peek8(0, done + t * 8);
        assert!(
            (1..=P as u64).contains(&v),
            "task {t} executed exactly once (marker {v})"
        );
    }
}

/// User-registered AM handlers compose with the runtime: a remote
/// compare-and-mark protocol.
#[test]
fn user_am_handler_protocol() {
    const P: u32 = 4;
    let mut sc = SplitC::new(MachineConfig::t3d(P));
    let maxes = sc.alloc(8, 8);
    let id = sc.register_handler(AM_USER_BASE + 1, |cpu, args| {
        let cur = cpu.peek8(args[0]);
        if args[1] > cur {
            cpu.poke8(args[0], args[1]);
        }
    });
    sc.run_phase(|ctx| {
        let v = [17u64, 99, 23, 45][ctx.pe()];
        ctx.am_deposit(0, id, [maxes, v, 0, 0]);
    });
    sc.barrier();
    assert_eq!(
        sc.machine().peek8(0, maxes),
        99,
        "max-reduce via AM handlers"
    );
}

/// The native message queue works end to end, albeit expensively.
#[test]
fn native_message_queue_roundtrip() {
    let mut sc = SplitC::new(MachineConfig::t3d(2));
    sc.on(0, |ctx| {
        let pe = ctx.pe();
        ctx.machine().msg_send(pe, 1, [11, 22, 33, 44]);
    });
    sc.on(1, |ctx| {
        let pe = ctx.pe();
        ctx.machine().advance(pe, 1_000);
        let t0 = ctx.clock();
        let msg = ctx.machine().msg_receive(pe).expect("delivered");
        assert_eq!(msg.words, [11, 22, 33, 44]);
        assert!(
            ctx.clock() - t0 >= 3_750,
            "the 25 us interrupt cost is unavoidable"
        );
    });
}
