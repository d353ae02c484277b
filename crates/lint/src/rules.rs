//! The rule catalog: stable IDs, classification, and the coverage map
//! against `t3dsan`'s dynamic diagnostic kinds.

use t3dsan::DiagKind;

/// One lint rule. `H` rules are correctness hazards mirroring the
/// dynamic sanitizer; `P` rules are performance advisories
/// parameterized from the machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// A get's local landing span is read before the issuer's `sync()`.
    H001ReadBeforeGetSync,
    /// A `store_sync` waits for more bytes than any interleaving of the
    /// program can ever deliver — the runtime's "storeSync deadlock".
    H002UnbalancedStoreSync,
    /// PEs execute different global-collective sequences (barrier /
    /// all_store_sync / phase boundaries) — a structural deadlock.
    H003BarrierDivergence,
    /// Two PEs write overlapping bytes with no ordering edge between
    /// them: the final value depends on arrival order.
    H004ConflictingPuts,
    /// A read may observe an un-synced split-phase put or un-consumed
    /// signaling store from another PE.
    H005StaleStoreRead,
    /// A write may land on a get's source while the get is still bound
    /// in the prefetch queue: the popped value predates the write.
    H006PrefetchOrderMisuse,
    /// An op's footprint leaves the configured machine (PE out of
    /// range, or a span past the end of local memory).
    H007OutOfBounds,
    /// An element-transfer loop moves enough data to cross the
    /// configured bulk crossover: one bulk transfer (or a get pipeline)
    /// would be faster.
    P001ElementLoopTransfer,
    /// A strided bulk transfer whose stride lands every element on the
    /// same DRAM bank with an off-page access each time.
    P002SameBankStride,
    /// A run of sub-word writes to distinct cache lines at least as
    /// long as the write buffer: no merging, every store stalls.
    P003NonMergingByteWrites,
    /// A `sync()` immediately after a lone get: zero overlap — batch
    /// more split-phase traffic before syncing.
    P004EagerSync,
    /// More gets outstanding than the binding prefetch queue holds: the
    /// hardware drains the queue mid-stream, serializing the pipeline.
    P005PrefetchQueueOverflow,
}

impl Rule {
    /// Every rule, hazards first, in ID order.
    pub const ALL: [Rule; 12] = [
        Rule::H001ReadBeforeGetSync,
        Rule::H002UnbalancedStoreSync,
        Rule::H003BarrierDivergence,
        Rule::H004ConflictingPuts,
        Rule::H005StaleStoreRead,
        Rule::H006PrefetchOrderMisuse,
        Rule::H007OutOfBounds,
        Rule::P001ElementLoopTransfer,
        Rule::P002SameBankStride,
        Rule::P003NonMergingByteWrites,
        Rule::P004EagerSync,
        Rule::P005PrefetchQueueOverflow,
    ];

    /// Stable rule ID (`T3D-H001`…) — tests and JSON output pin these.
    pub fn id(self) -> &'static str {
        match self {
            Rule::H001ReadBeforeGetSync => "T3D-H001",
            Rule::H002UnbalancedStoreSync => "T3D-H002",
            Rule::H003BarrierDivergence => "T3D-H003",
            Rule::H004ConflictingPuts => "T3D-H004",
            Rule::H005StaleStoreRead => "T3D-H005",
            Rule::H006PrefetchOrderMisuse => "T3D-H006",
            Rule::H007OutOfBounds => "T3D-H007",
            Rule::P001ElementLoopTransfer => "T3D-P001",
            Rule::P002SameBankStride => "T3D-P002",
            Rule::P003NonMergingByteWrites => "T3D-P003",
            Rule::P004EagerSync => "T3D-P004",
            Rule::P005PrefetchQueueOverflow => "T3D-P005",
        }
    }

    /// Short human name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::H001ReadBeforeGetSync => "ReadBeforeGetSync",
            Rule::H002UnbalancedStoreSync => "UnbalancedStoreSync",
            Rule::H003BarrierDivergence => "BarrierDivergence",
            Rule::H004ConflictingPuts => "ConflictingPuts",
            Rule::H005StaleStoreRead => "StaleStoreRead",
            Rule::H006PrefetchOrderMisuse => "PrefetchOrderMisuse",
            Rule::H007OutOfBounds => "OutOfBounds",
            Rule::P001ElementLoopTransfer => "ElementLoopTransfer",
            Rule::P002SameBankStride => "SameBankStride",
            Rule::P003NonMergingByteWrites => "NonMergingByteWrites",
            Rule::P004EagerSync => "EagerSync",
            Rule::P005PrefetchQueueOverflow => "PrefetchQueueOverflow",
        }
    }

    /// Whether this is a correctness hazard (vs. a performance
    /// advisory). The negative corpora must be free of hazards;
    /// advisories are allowed and pinned by count.
    pub fn is_hazard(self) -> bool {
        matches!(
            self,
            Rule::H001ReadBeforeGetSync
                | Rule::H002UnbalancedStoreSync
                | Rule::H003BarrierDivergence
                | Rule::H004ConflictingPuts
                | Rule::H005StaleStoreRead
                | Rule::H006PrefetchOrderMisuse
                | Rule::H007OutOfBounds
        )
    }

    /// The static rules that cover a dynamic `t3dsan` diagnostic kind:
    /// on a straight-line program, any dynamic report of `kind` must be
    /// accompanied by a static report of one of these rules. The match
    /// is exhaustive so a new dynamic kind fails compilation here until
    /// it is mapped.
    pub fn covers(kind: DiagKind) -> &'static [Rule] {
        match kind {
            DiagKind::ReadBeforeGetSync => &[Rule::H001ReadBeforeGetSync],
            DiagKind::StaleStoreRead => &[
                Rule::H005StaleStoreRead,
                Rule::H001ReadBeforeGetSync,
                Rule::H006PrefetchOrderMisuse,
            ],
            DiagKind::ConflictingPuts => &[Rule::H004ConflictingPuts],
            DiagKind::PrefetchOrderMisuse => &[Rule::H006PrefetchOrderMisuse],
            // Annex-register synonym state is invisible in the ScOp IR
            // (it depends on the runtime's annex policy, not the
            // program); the dynamic sanitizer remains the only detector.
            DiagKind::AnnexSynonymHazard => &[],
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.id(), self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_unique() {
        let ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), 12);
        for (i, id) in ids.iter().enumerate() {
            assert!(id.starts_with("T3D-"), "{id}");
            assert!(!ids[..i].contains(id), "duplicate {id}");
        }
        assert_eq!(Rule::ALL.iter().filter(|r| r.is_hazard()).count(), 7);
    }

    #[test]
    fn every_dynamic_kind_is_mapped_or_documented() {
        for kind in DiagKind::ALL {
            let rules = Rule::covers(kind);
            if kind == DiagKind::AnnexSynonymHazard {
                assert!(rules.is_empty());
            } else {
                assert!(!rules.is_empty(), "{kind:?} has no static cover");
                assert!(rules.iter().all(|r| r.is_hazard()));
            }
        }
    }
}
