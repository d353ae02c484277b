//! The torus partition allocator: buddy carving of the machine into
//! power-of-two sub-cubes.
//!
//! Free space is a set of canonical blocks per order (origin only —
//! the shape of an order-`k` block is fixed by
//! [`shape_of_order`]). Allocation is **first fit**: the
//! smallest sufficient order with a free block, smallest origin first
//! (coordinate-lexicographic), splitting larger blocks down as needed.
//! Freeing coalesces buddies greedily back up, so an idle machine
//! always collapses to one whole-machine block. Both policies are
//! deterministic, which the scheduler's bit-identical job ledger
//! depends on.

use std::collections::BTreeSet;

use t3d_torus::subcube::{dims_pow2, shape_of_order, Dims};
use t3d_torus::{Coord, SubCube};

/// Counters describing the allocator's life so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Blocks returned.
    pub frees: u64,
    /// Block splits performed to satisfy allocations.
    pub splits: u64,
    /// Buddy coalesces performed on free.
    pub coalesces: u64,
    /// Allocation attempts that found no block (including requests
    /// larger than the machine).
    pub fit_failures: u64,
}

/// A buddy allocator over the sub-cubes of one torus.
#[derive(Debug, Clone)]
pub struct PartitionAllocator {
    machine: Dims,
    max_order: u32,
    /// Free-block origins, indexed by order.
    free: Vec<BTreeSet<Coord>>,
    free_pes: u64,
    stats: AllocStats,
}

impl PartitionAllocator {
    /// An empty machine: one whole-machine free block.
    ///
    /// # Panics
    ///
    /// Panics if any machine extent is not a power of two.
    pub fn new(machine: Dims) -> PartitionAllocator {
        assert!(
            dims_pow2(machine),
            "machine extents must be powers of two, got {machine:?}"
        );
        let total = SubCube::whole(machine).pes();
        let max_order = total.trailing_zeros();
        let mut free = vec![BTreeSet::new(); max_order as usize + 1];
        free[max_order as usize].insert(Coord::default());
        PartitionAllocator {
            machine,
            max_order,
            free,
            free_pes: total,
            stats: AllocStats::default(),
        }
    }

    /// The machine shape this allocator carves.
    pub fn machine(&self) -> Dims {
        self.machine
    }

    /// Total PEs in the machine.
    pub fn total_pes(&self) -> u64 {
        1u64 << self.max_order
    }

    /// PEs currently free.
    pub fn free_pes(&self) -> u64 {
        self.free_pes
    }

    /// PEs currently allocated.
    pub fn allocated_pes(&self) -> u64 {
        self.total_pes() - self.free_pes
    }

    /// Counters so far.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// External fragmentation: the fraction of free PEs *not* reachable
    /// through the largest free block (`1 − largest_free/free`).
    /// 0 when the free space is empty or one block.
    pub fn fragmentation(&self) -> f64 {
        if self.free_pes == 0 {
            return 0.0;
        }
        let largest = self
            .free
            .iter()
            .enumerate()
            .rev()
            .find(|(_, s)| !s.is_empty())
            .map_or(0u64, |(k, _)| 1u64 << k);
        1.0 - largest as f64 / self.free_pes as f64
    }

    /// Allocates a block for `pe_count` PEs (rounded up to a power of
    /// two): smallest sufficient order, smallest origin, splitting as
    /// needed. `None` (and a `fit_failures` tick) when nothing fits.
    pub fn alloc(&mut self, pe_count: u32) -> Option<SubCube> {
        let want = u64::from(pe_count.max(1)).next_power_of_two();
        let order = want.trailing_zeros();
        if order > self.max_order {
            self.stats.fit_failures += 1;
            return None;
        }
        // First order >= the request with a free block.
        let Some(from) = (order..=self.max_order).find(|&k| !self.free[k as usize].is_empty())
        else {
            self.stats.fit_failures += 1;
            return None;
        };
        let origin = *self.free[from as usize]
            .iter()
            .next()
            .expect("order was found non-empty");
        self.free[from as usize].remove(&origin);
        let mut block = SubCube {
            origin,
            dims: shape_of_order(self.machine, from),
        };
        // Split down to the requested order, keeping the lower half
        // (the origin) and freeing the upper.
        for _ in order..from {
            let (lo, hi) = block.split();
            self.free[hi.order() as usize].insert(hi.origin);
            self.stats.splits += 1;
            block = lo;
        }
        self.free_pes -= block.pes();
        self.stats.allocs += 1;
        Some(block)
    }

    /// Returns a block, coalescing it with free buddies as far up as
    /// possible.
    ///
    /// # Panics
    ///
    /// Panics if the block is not a canonical block of this machine or
    /// overlaps free space (a double free).
    pub fn free(&mut self, block: SubCube) {
        assert_eq!(
            block.dims,
            shape_of_order(self.machine, block.order()),
            "{block} is not a canonical block of machine {:?}",
            self.machine
        );
        // A returned block must be wholly allocated: any overlap with
        // free space is a double free (possibly of a block that has
        // since coalesced into a larger one).
        for (k, set) in self.free.iter().enumerate() {
            for &origin in set {
                let f = SubCube {
                    origin,
                    dims: shape_of_order(self.machine, k as u32),
                };
                assert!(
                    !f.overlaps(&block),
                    "double free: {block} overlaps free block {f}"
                );
            }
        }
        self.free_pes += block.pes();
        self.stats.frees += 1;
        let mut cur = block;
        loop {
            let k = cur.order() as usize;
            match cur.buddy(self.machine) {
                Some(b) if self.free[k].contains(&b.origin) => {
                    self.free[k].remove(&b.origin);
                    self.stats.coalesces += 1;
                    cur = cur.parent(self.machine).expect("buddy implies parent");
                }
                _ => {
                    self.free[k].insert(cur.origin);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: Dims = (4, 4, 2);

    #[test]
    fn whole_machine_round_trips() {
        let mut a = PartitionAllocator::new(M);
        assert_eq!(a.total_pes(), 32);
        let b = a.alloc(32).expect("whole machine fits");
        assert_eq!(b.pes(), 32);
        assert_eq!(a.free_pes(), 0);
        a.free(b);
        assert_eq!(a.free_pes(), 32);
    }

    #[test]
    fn rounds_up_to_power_of_two() {
        let mut a = PartitionAllocator::new(M);
        let b = a.alloc(3).expect("fits");
        assert_eq!(b.pes(), 4);
    }

    #[test]
    fn first_fit_prefers_smallest_origin() {
        let mut a = PartitionAllocator::new(M);
        let b1 = a.alloc(4).expect("fits");
        let b2 = a.alloc(4).expect("fits");
        assert_eq!(b1.origin, Coord::default());
        assert!(b1.origin < b2.origin);
        assert!(!b1.overlaps(&b2));
    }

    #[test]
    fn free_coalesces_back_to_one_block() {
        let mut a = PartitionAllocator::new(M);
        let blocks: Vec<SubCube> = (0..8).map(|_| a.alloc(4).expect("fits")).collect();
        assert_eq!(a.free_pes(), 0);
        for b in blocks {
            a.free(b);
        }
        assert_eq!(a.free_pes(), 32);
        assert_eq!(a.fragmentation(), 0.0);
        // Fully coalesced: the whole machine allocates again.
        assert_eq!(a.alloc(32).expect("whole").pes(), 32);
        let s = a.stats();
        assert_eq!(s.allocs, 9);
        assert_eq!(s.frees, 8);
        assert_eq!(s.splits, s.coalesces, "every split was undone");
    }

    #[test]
    fn fragmentation_reflects_split_free_space() {
        let mut a = PartitionAllocator::new(M);
        let small = a.alloc(2).expect("fits");
        // Free space is 30 PEs but the largest block is 16.
        assert!(a.fragmentation() > 0.0);
        a.free(small);
        assert_eq!(a.fragmentation(), 0.0);
    }

    #[test]
    fn too_big_requests_fail_cleanly() {
        let mut a = PartitionAllocator::new(M);
        assert_eq!(a.alloc(64), None);
        assert_eq!(a.stats().fit_failures, 1);
    }

    #[test]
    fn canonical_shapes_agree_with_phase_shard_partition() {
        // One source of truth: the phase engine's sub-cube shards
        // (`t3d_torus::subcube::partition`) and the blocks this buddy
        // allocator carves are the same geometry, because both reduce
        // to `shape_of_order`. Carve an empty machine into 2^k equal
        // first-fit blocks and they must tile it exactly like the
        // shard partition of the same block count — for every order,
        // including the 256-PE machine the `sweep --pes 256` ladder
        // schedules onto.
        use t3d_torus::subcube::partition;
        for machine in [(4, 4, 2), (8, 8, 4), (8, 8, 8)] {
            let total = SubCube::whole(machine).pes();
            let mut nblocks = 1usize;
            while nblocks as u64 <= total {
                let shards = partition(machine, nblocks);
                assert_eq!(shards.len(), nblocks, "machine {machine:?}");
                let per = u32::try_from(total).expect("small machines") / nblocks as u32;
                assert_eq!(
                    shards[0].dims,
                    shape_of_order(machine, per.trailing_zeros()),
                    "shards carry the canonical shape of their order"
                );
                let mut a = PartitionAllocator::new(machine);
                let mut carved: Vec<SubCube> = (0..nblocks)
                    .map(|_| a.alloc(per).expect("equal blocks tile"))
                    .collect();
                assert_eq!(a.free_pes(), 0, "blocks cover the machine");
                carved.sort_by_key(|b| (b.origin.z, b.origin.y, b.origin.x));
                assert_eq!(
                    carved, shards,
                    "machine {machine:?}: allocator blocks != {nblocks} shard partition"
                );
                nblocks *= 2;
            }
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = PartitionAllocator::new(M);
        let b = a.alloc(4).expect("fits");
        a.free(b);
        let mut a2 = a.clone();
        a2.free(b);
    }
}
