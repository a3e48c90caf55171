//! Property test for the incoherence sanitizer: on randomly generated
//! epoch programs (model 2, §V), deleting any single WB or INV edge from
//! the communication plan must always trip the sanitizer with the right
//! finding kind, while the unmodified plan never trips it.
//!
//! Randomized with the in-repo deterministic `SplitMix64` (fixed seeds,
//! no external RNG crates) so failures are reproducible.

#[path = "common/schedules.rs"]
mod schedules;

use hic_runtime::{FindingKind, InterConfig};
use hic_sim::SplitMix64;
use schedules::{random_schedule, run_schedule};

#[test]
fn unmodified_plans_never_trip_the_sanitizer() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for case in 0..12 {
        let schedule = random_schedule(&mut rng);
        let cfg = if case % 2 == 0 {
            InterConfig::Addr
        } else {
            InterConfig::AddrL
        };
        let diag = run_schedule(cfg, &schedule, None);
        assert!(
            diag.is_clean(),
            "case {case} ({}) schedule {schedule:?}: {diag:?}",
            cfg.name()
        );
        assert!(diag.checks > 0, "the sanitizer did observe the reads");
    }
}

#[test]
fn deleting_any_wb_or_inv_always_trips_the_sanitizer() {
    let mut rng = SplitMix64::new(0xBADC0DE);
    for case in 0..12 {
        let schedule = random_schedule(&mut rng);
        let cfg = if case % 2 == 0 {
            InterConfig::Addr
        } else {
            InterConfig::AddrL
        };
        // Pick a random plan entry and delete either its WB or its INV.
        let r = (rng.next_u64() % schedule.len() as u64) as usize;
        let ei = (rng.next_u64() % schedule[r].len() as u64) as usize;
        let drop_wb = rng.next_u64().is_multiple_of(2);
        let edge = schedule[r][ei];
        let diag = run_schedule(cfg, &schedule, Some((r, ei, drop_wb)));
        let expect = if drop_wb {
            FindingKind::MissingWb
        } else {
            FindingKind::MissingInv
        };
        assert!(
            diag.count(expect) >= 1,
            "case {case} ({}) deleted {} of {edge:?} in round {r}: {diag:?}",
            cfg.name(),
            if drop_wb { "WB" } else { "INV" },
        );
        // The finding names the sabotaged pair.
        let f = diag.findings.iter().find(|f| f.kind == expect).unwrap();
        assert_eq!(
            (f.actor.0, f.writer.0),
            (edge.c, edge.p),
            "case {case}: {f:?}"
        );
    }
}
