//! Collective operations over the Split-C runtime.
//!
//! Split-C itself provides only barriers; real programs immediately
//! build broadcasts and reductions on top of the store/get primitives.
//! This module provides the standard binomial-tree collectives the way
//! a T3D library would have: signaling stores for data movement (the
//! fastest primitive, per Section 6.4) with `allStoreSync` rounds as
//! the tree levels' synchronization.
//!
//! All collectives are *driver-level* (called on [`SplitC`], outside
//! phases) because each tree level is a bulk-synchronous phase of its
//! own.

use crate::gptr::GlobalPtr;
use crate::runtime::SplitC;

impl SplitC {
    /// Broadcasts the word at symmetric offset `off` from `root` to the
    /// same offset on every node, in ⌈log₂ P⌉ store rounds.
    ///
    /// # Example
    ///
    /// ```
    /// use splitc::SplitC;
    /// use t3d_machine::MachineConfig;
    ///
    /// let mut sc = SplitC::new(MachineConfig::t3d(8));
    /// let off = sc.alloc(8, 8);
    /// sc.machine().poke8(3, off, 123);
    /// sc.broadcast_u64(3, off);
    /// assert_eq!(sc.machine().peek8(0, off), 123);
    /// ```
    pub fn broadcast_u64(&mut self, root: usize, off: u64) {
        let p = self.nodes();
        assert!(root < p, "root {root} out of range");
        // Virtual ranks rotate the tree onto `root`: node `s` has rank
        // `(s - root) mod p`. Entering the round of `stride`, exactly the
        // ranks below it hold the word; each sends to rank + stride.
        // Senders go in physical order.
        let mut stride = 1usize;
        while stride < p {
            for s in 0..p {
                let dst_virt = (s + p - root) % p + stride;
                if dst_virt < 2 * stride && dst_virt < p {
                    let dst = (dst_virt + root) % p;
                    self.on(s, |ctx| {
                        let pe = ctx.pe();
                        let v = ctx.machine().ld8(pe, off);
                        ctx.store_u64(GlobalPtr::new(dst as u32, off), v);
                    });
                }
            }
            self.all_store_sync();
            stride *= 2;
        }
    }

    /// Reduces the words at symmetric offset `off` with `op` onto
    /// `root`, in ⌈log₂ P⌉ rounds; returns the result. Other nodes'
    /// words are left holding partial sums (scratch), as library
    /// reductions typically do.
    pub fn reduce_u64(
        &mut self,
        root: usize,
        off: u64,
        scratch_off: u64,
        op: impl Fn(u64, u64) -> u64 + Copy,
    ) -> u64 {
        let p = self.nodes();
        assert!(root < p, "root {root} out of range");
        let mut stride = {
            let mut s = 1usize;
            while s * 2 < p {
                s *= 2;
            }
            s
        };
        while stride >= 1 {
            // Virtual ranks: node (virt + root) % p.
            for virt in 0..p {
                let partner = virt + stride;
                if virt < stride && partner < p {
                    let src = (partner + root) % p;
                    let dst = (virt + root) % p;
                    self.on(src, |ctx| {
                        let pe = ctx.pe();
                        let v = ctx.machine().ld8(pe, off);
                        ctx.store_u64(GlobalPtr::new(dst as u32, scratch_off), v);
                    });
                }
            }
            self.all_store_sync();
            for virt in 0..p {
                let partner = virt + stride;
                if virt < stride && partner < p {
                    let dst = (virt + root) % p;
                    self.on(dst, |ctx| {
                        let pe = ctx.pe();
                        let mine = ctx.machine().ld8(pe, off);
                        let theirs = ctx.machine().ld8(pe, scratch_off);
                        let r = op(mine, theirs);
                        ctx.machine().st8(pe, off, r);
                        ctx.advance(8);
                    });
                }
            }
            self.barrier();
            if stride == 1 {
                break;
            }
            stride /= 2;
        }
        self.machine().peek8(root, off)
    }

    /// All-reduce: reduce onto node 0, then broadcast the result.
    pub fn all_reduce_u64(
        &mut self,
        off: u64,
        scratch_off: u64,
        op: impl Fn(u64, u64) -> u64 + Copy,
    ) -> u64 {
        let v = self.reduce_u64(0, off, scratch_off, op);
        self.broadcast_u64(0, off);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3d_machine::MachineConfig;

    fn setup(p: u32) -> (SplitC, u64, u64) {
        let mut sc = SplitC::new(MachineConfig::t3d(p));
        let off = sc.alloc(8, 8);
        let scratch = sc.alloc(8, 8);
        (sc, off, scratch)
    }

    // Machine sizes are powers of two (`Machine::try_new` rejects the
    // rest), so the collective sweeps cover the constructible sizes;
    // the binomial trees themselves are size-agnostic.
    #[test]
    fn broadcast_reaches_every_node() {
        for p in [2u32, 4, 8, 16] {
            let (mut sc, off, _) = setup(p);
            sc.machine().poke8(1 % p as usize, off, 4242);
            sc.broadcast_u64(1 % p as usize, off);
            for pe in 0..p as usize {
                assert_eq!(sc.machine().peek8(pe, off), 4242, "P={p} PE={pe}");
            }
        }
    }

    #[test]
    fn reduce_sums_all_contributions() {
        for p in [2u32, 4, 8, 16] {
            let (mut sc, off, scratch) = setup(p);
            for pe in 0..p as usize {
                sc.machine().poke8(pe, off, (pe as u64 + 1) * 10);
            }
            let total = sc.reduce_u64(0, off, scratch, |a, b| a + b);
            let expected: u64 = (1..=p as u64).map(|i| i * 10).sum();
            assert_eq!(total, expected, "P={p}");
        }
    }

    #[test]
    fn reduce_onto_nonzero_root() {
        let (mut sc, off, scratch) = setup(8);
        for pe in 0..8 {
            sc.machine().poke8(pe, off, 1 << pe);
        }
        let total = sc.reduce_u64(5, off, scratch, |a, b| a | b);
        assert_eq!(total, 0xFF);
        assert_eq!(sc.machine().peek8(5, off), 0xFF, "result lands at the root");
    }

    #[test]
    fn all_reduce_max() {
        let (mut sc, off, scratch) = setup(8);
        for pe in 0..8 {
            sc.machine()
                .poke8(pe, off, [3u64, 9, 1, 99, 2, 8, 7, 4][pe]);
        }
        let m = sc.all_reduce_u64(off, scratch, u64::max);
        assert_eq!(m, 99);
        for pe in 0..8 {
            assert_eq!(sc.machine().peek8(pe, off), 99, "every node holds the max");
        }
    }

    #[test]
    fn broadcast_takes_logarithmic_rounds() {
        // 16 nodes: 4 store rounds; time should be far below 15 serial
        // blocking writes from the root.
        let (mut sc, off, _) = setup(16);
        sc.machine().poke8(0, off, 7);
        let t0 = sc.max_clock();
        sc.broadcast_u64(0, off);
        let tree_cy = sc.max_clock() - t0;

        let (mut sc2, off2, _) = setup(16);
        sc2.machine().poke8(0, off2, 7);
        let t0 = sc2.max_clock();
        sc2.on(0, |ctx| {
            for dst in 1..16u32 {
                ctx.write_u64(GlobalPtr::new(dst, off2), 7);
            }
        });
        sc2.barrier();
        let serial_cy = sc2.max_clock() - t0;
        assert!(
            tree_cy < serial_cy,
            "tree broadcast {tree_cy} cy vs serial root {serial_cy} cy"
        );
    }
}
