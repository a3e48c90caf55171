//! `hic-fuzz` — a coverage-guided differential fuzzing campaign that
//! audits the static linter's soundness.
//!
//! The repository carries three views of the same program: the runnable
//! closure the simulator executes, the declarative [`ProgramRecord`]
//! `hic-lint` abstractly interprets, and the dynamic sanitizer's
//! happens-before trace (`hic-check`). This crate stress-tests the
//! claimed relationship between them — *every dynamic staleness finding
//! is explained by a static finding* — on randomly generated programs
//! instead of hand-written ones:
//!
//! * [`desc`] defines the case grammar ([`CaseDesc`]) and its canonical
//!   one-line key; generation is seeded, biased by campaign coverage.
//! * [`build`] materializes a description into BOTH artifacts from one
//!   shared definition (the plans come from a single `plans_for`), so
//!   record and run cannot drift.
//! * [`run`] executes the five-way differential (subject scheme with
//!   and without a recoverable fault plan, MESI, Dragon, flat
//!   reference), audits lint coverage of every sanitizer finding, and
//!   re-runs `optimize`'s minimized plans strict-clean.
//! * [`campaign`] drives seeded deterministic batches, steers
//!   generation toward rarely-exercised features, delta-debugs
//!   interesting cases and persists them to `corpus/` as replayable
//!   one-liners.
//!
//! The CLI (`hic-fuzz`) prints a byte-stable summary on stdout; see
//! DESIGN.md §16.
//!
//! [`ProgramRecord`]: hic_runtime::ProgramRecord

pub mod build;
pub mod campaign;
pub mod desc;
pub mod run;

pub use build::{plans_for, record_of, run_dynamic, Backend, DynOutcome};
pub use campaign::{
    case_seed, corpus_line, load_corpus, minimize, parse_corpus_line, run_campaign, write_corpus,
    CampaignOpts, CampaignSummary,
};
pub use desc::{
    scheme_tag, CaseDesc, EdgeDesc, GenBias, MutKind, MutationDesc, RoundDesc, SyncShape,
};
pub use run::{run_case, CaseOutcome, Verdict, Violation};

/// Replay one corpus line: parse, classify, and return the outcome with
/// the expectation recorded in the line. The caller asserts
/// `outcome.verdict.expect_tag() == expected`.
pub fn replay_line(line: &str) -> Result<(CaseOutcome, String), String> {
    let (desc, expected) = parse_corpus_line(line)?;
    Ok((run_case(&desc), expected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_runtime::InterConfig;
    use hic_sim::SplitMix64;

    fn clean_base_case() -> CaseDesc {
        CaseDesc {
            scheme: InterConfig::Addr,
            blocks: 2,
            cores_per_block: 2,
            threads: 3,
            slice: 8,
            rounds: vec![
                RoundDesc {
                    sync: SyncShape::Barrier,
                    edges: vec![
                        EdgeDesc {
                            p: 0,
                            c: 1,
                            lo: 0,
                            hi: 4,
                        },
                        EdgeDesc {
                            p: 2,
                            c: 0,
                            lo: 2,
                            hi: 8,
                        },
                    ],
                },
                RoundDesc {
                    sync: SyncShape::Flags,
                    edges: vec![EdgeDesc {
                        p: 1,
                        c: 2,
                        lo: 0,
                        hi: 8,
                    }],
                },
            ],
            racy: false,
            fault_seed: 7,
            corrupt: false,
            mutation: None,
        }
    }

    #[test]
    fn key_round_trips() {
        let mut rng = SplitMix64::new(0xf0a2_2026);
        let bias = GenBias::default();
        for _ in 0..200 {
            let d = CaseDesc::generate(&mut rng, &bias);
            let parsed = CaseDesc::parse_key(&d.key()).expect("key parses");
            assert_eq!(parsed, d, "round-trip of {}", d.key());
        }
    }

    #[test]
    fn clean_case_is_clean() {
        let out = run_case(&clean_base_case());
        assert_eq!(out.verdict.expect_tag(), "clean", "{}", out.detail);
    }

    #[test]
    fn deleting_any_plan_op_is_caught() {
        // The acceptance criterion: on Addr/AddrL (range-scoped ops with
        // pairwise-distinct producers per round), deleting ANY single
        // WB or INV op must surface as covered sanitizer findings.
        let base = clean_base_case();
        for (r, round) in base.rounds.iter().enumerate() {
            for e in 0..round.edges.len() {
                for wb in [true, false] {
                    let mut d = base.clone();
                    d.mutation = Some(MutationDesc {
                        kind: MutKind::Delete,
                        wb,
                        round: r,
                        edge: e,
                        amount: 0,
                    });
                    let out = run_case(&d);
                    match &out.verdict {
                        Verdict::Findings(_) => {}
                        v => panic!(
                            "delete {}:{}:{} not caught: {} ({})",
                            r,
                            e,
                            if wb { "wb" } else { "inv" },
                            v.expect_tag(),
                            out.detail
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn duplicate_and_widen_stay_clean() {
        for (kind, amount) in [(MutKind::Duplicate, 1), (MutKind::Widen, 5)] {
            let mut d = clean_base_case();
            d.mutation = Some(MutationDesc {
                kind,
                wb: true,
                round: 0,
                edge: 0,
                amount,
            });
            let out = run_case(&d);
            assert_eq!(
                out.verdict.expect_tag(),
                "clean",
                "{kind:?}: {}",
                out.detail
            );
        }
    }

    #[test]
    fn racy_case_is_precision_not_violation() {
        let mut d = clean_base_case();
        d.racy = true;
        let out = run_case(&d);
        assert_eq!(
            out.verdict.expect_tag(),
            "precision:write-race",
            "{}",
            out.detail
        );
    }

    #[test]
    fn recovery_audit_survives_on_a_clean_case() {
        let mut d = clean_base_case();
        d.corrupt = true;
        let out = run_case(&d);
        assert_eq!(out.verdict.expect_tag(), "clean", "{}", out.detail);
        assert!(d.key().ends_with(";corrupt=1"), "{}", d.key());
    }

    #[test]
    fn keys_without_the_corrupt_field_still_parse() {
        // Corpus lines written before the recovery audit existed carry
        // no corrupt field; they must parse (default false) and
        // re-render to the same key.
        let legacy = clean_base_case();
        assert!(!legacy.key().contains("corrupt"), "{}", legacy.key());
        let parsed = CaseDesc::parse_key(&legacy.key()).unwrap();
        assert!(!parsed.corrupt);
        assert_eq!(parsed.key(), legacy.key());
    }

    #[test]
    fn campaign_is_deterministic() {
        let opts = CampaignOpts {
            seed: 7,
            cases: 8,
            ..CampaignOpts::default()
        };
        let a = run_campaign(&opts).render();
        let b = run_campaign(&opts).render();
        assert_eq!(a, b);
        assert!(a.contains("run=8"), "{a}");
    }

    #[test]
    fn minimize_preserves_expectation() {
        let mut d = clean_base_case();
        d.racy = true;
        d.fault_seed = 123_456;
        let expect = run_case(&d).verdict.expect_tag();
        let min = minimize(&d, &expect, 24);
        assert_eq!(run_case(&min).verdict.expect_tag(), expect);
        assert!(
            min.key().len() <= d.key().len(),
            "{} vs {}",
            min.key(),
            d.key()
        );
    }

    #[test]
    fn corpus_line_round_trips() {
        let d = clean_base_case();
        let line = corpus_line(&d, "clean");
        let (parsed, expect) = parse_corpus_line(&line).unwrap();
        assert_eq!(parsed, d);
        assert_eq!(expect, "clean");
    }
}
