//! Integration tests for `t3d-lint`, the static analyzer.
//!
//! Three corpora:
//!
//! * **positive** — one minimal program per rule ID, pinned to the
//!   exact diagnostic site (PE, target, address, op index) so the
//!   analyzer's attribution stays stable;
//! * **EM3D negative** — all seven versions' *recorded* op streams
//!   (real simulated runs) must lint free of hazard rules, with the
//!   advisory profile pinned: the lint reproduces the paper's story
//!   statically — `Simple`/`Bundle`/`Unroll` are element-loop bound
//!   (T3D-P001), `Get` overflows the 16-deep prefetch queue
//!   (T3D-P005), and `Put`/`Bulk`/`StoreSync` are clean;
//! * **fuzz negative** — every program the checked-in fuzz corpus
//!   denotes lints clean of hazard rules without being executed.

use em3d::{run_version_observed, Em3dParams, Version};
use splitc::{GlobalPtr, RecEvent, SanitizeMode, ScOp, SplitcConfig};
use t3d_fuzz::{case_seed, lint_case, program_for_seed};
use t3d_lint::{lint, LintProgram, Rule};
use t3d_machine::{MachineConfig, PhaseDriver};

/// Expected site of the one diagnostic a minimal program trips.
struct Site {
    rule: Rule,
    pe: u32,
    target: u32,
    addr: u64,
    op_idx: usize,
}

fn minimal_cases(mcfg: &MachineConfig, scfg: &SplitcConfig) -> Vec<(LintProgram, Site)> {
    let mut cases = Vec::new();

    // T3D-H001: the issuer reads the landing word before sync().
    let mut p = LintProgram::new(4);
    p.push(
        0,
        ScOp::Get {
            local_off: 64,
            src: GlobalPtr::new(1, 128),
        },
    );
    p.push(
        0,
        ScOp::ReadU64 {
            src: GlobalPtr::new(0, 64),
        },
    );
    p.push(0, ScOp::Sync);
    cases.push((
        p,
        Site {
            rule: Rule::H001ReadBeforeGetSync,
            pe: 0,
            target: 0,
            addr: 64,
            op_idx: 1,
        },
    ));

    // T3D-H002: store_sync with no store traffic to consume.
    let mut p = LintProgram::new(4);
    p.push(0, ScOp::StoreSync { bytes: 8 });
    cases.push((
        p,
        Site {
            rule: Rule::H002UnbalancedStoreSync,
            pe: 0,
            target: 0,
            addr: 0,
            op_idx: 0,
        },
    ));

    // T3D-H003: PE1's collective sequence diverges at collective 0.
    let mut p = LintProgram::new(2);
    p.streams[0].push(RecEvent::Barrier);
    p.streams[1].push(RecEvent::PhaseEnd);
    cases.push((
        p,
        Site {
            rule: Rule::H003BarrierDivergence,
            pe: 1,
            target: 0,
            addr: 0,
            op_idx: 0,
        },
    ));

    // T3D-H004: PE0 and PE1 put the same word on PE2, unordered.
    let mut p = LintProgram::new(4);
    p.push(
        0,
        ScOp::Put {
            dst: GlobalPtr::new(2, 64),
            value: 1,
        },
    );
    p.push(0, ScOp::Sync);
    p.push(
        1,
        ScOp::Put {
            dst: GlobalPtr::new(2, 64),
            value: 2,
        },
    );
    p.push(1, ScOp::Sync);
    cases.push((
        p,
        Site {
            rule: Rule::H004ConflictingPuts,
            pe: 1,
            target: 2,
            addr: 64,
            op_idx: 0,
        },
    ));

    // T3D-H005: PE1 reads a word PE0 has put but never synced.
    let mut p = LintProgram::new(4);
    p.push(
        0,
        ScOp::Put {
            dst: GlobalPtr::new(2, 64),
            value: 1,
        },
    );
    p.push(
        1,
        ScOp::ReadU64 {
            src: GlobalPtr::new(2, 64),
        },
    );
    cases.push((
        p,
        Site {
            rule: Rule::H005StaleStoreRead,
            pe: 1,
            target: 2,
            addr: 64,
            op_idx: 0,
        },
    ));

    // T3D-H006: PE1 overwrites the source of PE0's bound get.
    let mut p = LintProgram::new(4);
    p.push(
        0,
        ScOp::Get {
            local_off: 64,
            src: GlobalPtr::new(2, 128),
        },
    );
    p.push(0, ScOp::Sync);
    p.push(
        1,
        ScOp::WriteU64 {
            dst: GlobalPtr::new(2, 128),
            value: 9,
        },
    );
    cases.push((
        p,
        Site {
            rule: Rule::H006PrefetchOrderMisuse,
            pe: 0,
            target: 2,
            addr: 128,
            op_idx: 0,
        },
    ));

    // T3D-H007: a read of PE 9 on a 4-node machine.
    let mut p = LintProgram::new(4);
    p.push(
        0,
        ScOp::ReadU64 {
            src: GlobalPtr::new(9, 64),
        },
    );
    cases.push((
        p,
        Site {
            rule: Rule::H007OutOfBounds,
            pe: 0,
            target: 9,
            addr: 64,
            op_idx: 0,
        },
    ));

    // T3D-P001: an element read loop as deep as the prefetch queue —
    // attributed to the op that started the run.
    let mut p = LintProgram::new(4);
    for i in 0..mcfg.shell.prefetch_depth as u64 {
        p.push(
            0,
            ScOp::ReadU64 {
                src: GlobalPtr::new(1, 64 + 8 * i),
            },
        );
    }
    cases.push((
        p,
        Site {
            rule: Rule::P001ElementLoopTransfer,
            pe: 0,
            target: 1,
            addr: 64,
            op_idx: 0,
        },
    ));

    // T3D-P002: a stride of page x banks lands every element on one
    // DRAM bank, off-page each time.
    let stride = mcfg.mem.dram.page_bytes * mcfg.mem.dram.banks;
    let mut p = LintProgram::new(4);
    p.push(
        0,
        ScOp::BulkReadStrided {
            local_off: 0,
            src: GlobalPtr::new(1, 64),
            count: 8,
            elem_bytes: 8,
            stride_bytes: stride,
        },
    );
    cases.push((
        p,
        Site {
            rule: Rule::P002SameBankStride,
            pe: 0,
            target: 1,
            addr: 64,
            op_idx: 0,
        },
    ));

    // T3D-P003: one sub-word write per write-buffer entry, each to a
    // distinct L1 line — attributed to the run's first write.
    let line = mcfg.mem.l1.line as u64;
    let mut p = LintProgram::new(4);
    for i in 0..mcfg.mem.wbuf.entries as u64 {
        p.push(
            0,
            ScOp::ByteWrite {
                dst: GlobalPtr::new(0, 64 + i * line),
                value: 1,
            },
        );
    }
    cases.push((
        p,
        Site {
            rule: Rule::P003NonMergingByteWrites,
            pe: 0,
            target: 0,
            addr: 64,
            op_idx: 0,
        },
    ));

    // T3D-P004: sync() immediately after a lone get — attributed to
    // the sync.
    let mut p = LintProgram::new(4);
    p.push(
        0,
        ScOp::Get {
            local_off: 64,
            src: GlobalPtr::new(1, 128),
        },
    );
    p.push(0, ScOp::Sync);
    cases.push((
        p,
        Site {
            rule: Rule::P004EagerSync,
            pe: 0,
            target: 1,
            addr: 128,
            op_idx: 1,
        },
    ));

    // T3D-P005: the get that no longer fits the full queue (the
    // `prefetch_depth`-th op, counting from the first issue at 512).
    let depth = mcfg.shell.prefetch_depth as u64;
    let mut p = LintProgram::new(4);
    for i in 0..=depth + 1 {
        p.push(
            0,
            ScOp::Get {
                local_off: 8 * i,
                src: GlobalPtr::new(1, 512 + 8 * i),
            },
        );
    }
    p.push(0, ScOp::Sync);
    cases.push((
        p,
        Site {
            rule: Rule::P005PrefetchQueueOverflow,
            pe: 0,
            target: 1,
            addr: 512 + 8 * depth,
            op_idx: mcfg.shell.prefetch_depth,
        },
    ));

    let _ = scfg;
    cases
}

#[test]
fn positive_corpus_trips_every_rule_at_the_exact_site() {
    let mcfg = MachineConfig::t3d(4);
    let scfg = SplitcConfig::default();
    let cases = minimal_cases(&mcfg, &scfg);
    let mut covered: Vec<Rule> = Vec::new();
    for (prog, site) in &cases {
        let r = lint(prog, &mcfg, &scfg);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.rule == site.rule)
            .unwrap_or_else(|| panic!("{} did not fire:\n{}", site.rule, r.render_table()));
        assert_eq!(
            (d.pe, d.target, d.addr, d.op_idx),
            (site.pe, site.target, site.addr, site.op_idx),
            "{} fired at the wrong site:\n{}",
            site.rule,
            r.render_table()
        );
        covered.push(site.rule);
    }
    covered.sort_unstable();
    covered.dedup();
    assert_eq!(
        covered,
        Rule::ALL.to_vec(),
        "corpus must cover every rule ID"
    );
}

/// Rule IDs never change: tooling (CI artifacts, suppression lists)
/// keys on them.
#[test]
fn rule_ids_are_stable() {
    let ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
    assert_eq!(
        ids,
        [
            "T3D-H001", "T3D-H002", "T3D-H003", "T3D-H004", "T3D-H005", "T3D-H006", "T3D-H007",
            "T3D-P001", "T3D-P002", "T3D-P003", "T3D-P004", "T3D-P005",
        ]
    );
}

#[test]
fn em3d_versions_lint_hazard_free_with_pinned_advisories() {
    // Must match `run_version_inner`'s machine construction so the
    // advisory thresholds (and H007 bounds) see the real parameters.
    let nprocs = 4;
    let params = Em3dParams::tiny(30.0);
    let mcfg = MachineConfig::t3d_with_mem(nprocs, 4 * 1024 * 1024);
    let scfg = SplitcConfig::t3d();
    // (version, advisory profile as (rule id, total count) pairs).
    let expected: [(Version, &[(&str, u64)]); 7] = [
        (Version::Simple, &[("T3D-P001", 16)]),
        (Version::Bundle, &[("T3D-P001", 16)]),
        (Version::Unroll, &[("T3D-P001", 16)]),
        (Version::Get, &[("T3D-P005", 36)]),
        (Version::Put, &[]),
        (Version::Bulk, &[]),
        (Version::StoreSync, &[]),
    ];
    // Each version under each driver: the recorded streams must match
    // the sequential oracle's, and the pins hold for both.
    let mut oracle = Vec::new();
    for driver in [PhaseDriver::Seq, PhaseDriver::Par(2)] {
        for (i, (v, profile)) in expected.into_iter().enumerate() {
            let (_, streams, _) =
                run_version_observed(driver, nprocs, params, v, true, SanitizeMode::Off);
            if driver == PhaseDriver::Seq {
                oracle.push(streams.clone());
            } else {
                assert!(
                    streams == oracle[i],
                    "em3d.{}: {driver:?} recorded other streams than Seq",
                    v.label()
                );
            }
            let r = lint(&LintProgram::from_recorded(streams), &mcfg, &scfg);
            assert!(
                r.is_hazard_free(),
                "em3d.{} under {driver:?} has static hazards:\n{}",
                v.label(),
                r.render_table()
            );
            let counts: Vec<(&str, u64)> = r.counts_by_rule().into_iter().collect();
            assert_eq!(
                counts,
                profile,
                "em3d.{} under {driver:?}: advisory profile changed:\n{}",
                v.label(),
                r.render_table()
            );
        }
    }
}

#[test]
fn fuzz_corpus_lints_clean_of_correctness_rules() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/fuzz/corpus/seeds.txt");
    let text = std::fs::read_to_string(path).expect("checked-in corpus");
    let mut programs = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let master = t3d_fuzz::parse_seed(it.next().expect("seed"));
        let count: usize = it.next().expect("count").parse().expect("count");
        for case in 0..count {
            let seed = case_seed(master, case);
            let r = lint_case(&program_for_seed(seed), 0x100);
            assert!(
                r.is_hazard_free(),
                "corpus seed {seed:#x} has static hazards:\n{}",
                r.render_table()
            );
            programs += 1;
        }
    }
    assert!(programs >= 50, "corpus shrank to {programs} programs");
}
