//! Pin of the campaign summary `hic-fuzz --seed 2026 --cases 200
//! --no-corpus` prints: verdict counts, dynamic and static finding
//! counts, and the lint coverage counters. Any change to the lowering,
//! the linter, the sanitizer or a backend that moves one case's verdict
//! or one lowered instruction shows up here as a text diff.
//!
//! CI's `fuzz-smoke` job diffs the CLI's stdout against the same file.
//! Re-pin only with a change that says why the summary moves: copy the
//! `got` text this test prints over `golden/seed2026_cases200.txt`.

use hic_fuzz::{run_campaign, CampaignOpts};

const GOLDEN: &str = include_str!("golden/seed2026_cases200.txt");

#[test]
fn seed_2026_campaign_summary_matches_the_golden() {
    let summary = run_campaign(&CampaignOpts {
        seed: 2026,
        cases: 200,
        ..CampaignOpts::default()
    });
    let got = summary.render();
    assert!(
        got == GOLDEN,
        "campaign summary drifted from golden/seed2026_cases200.txt; got:\n{got}"
    );
}
