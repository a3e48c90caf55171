//! The `fuzz` workload: a `hic-fuzz` differential campaign. The campaign
//! runs as consecutive resumed chunks (`from = k * CHUNK`), each one timed
//! unit; resuming resets the generator's steering at every chunk, as
//! `hic-fuzz --from` does.
//!
//! Every audit violation the campaign reports fails its unit. The
//! benchmark seed therefore picks one of [`CAMPAIGN_SEEDS`], the campaigns
//! that report no violation when the benchmark was defined; a violation
//! means a change broke the analyses or the simulator they audit.

use std::collections::BTreeMap;
use std::time::Instant;

use hic_fuzz::{run_campaign, CampaignOpts};

use crate::trace::Tracer;
use crate::{add, procfs, Bench, Round, Sizes};

/// The campaign seeds in 0..48 whose 600-case campaign (in chunks of
/// `CHUNK`) reports no audit violation. The other thirteen (10, 12, 14,
/// 16, 22, 26, 27, 29, 30, 31, 33, 37, 44) each report one: a stale read
/// that `hic-lint` does not flag after a deleted or narrowed WB under
/// Addr or Addr+L, or (seed 12) an optimizer round-trip failure.
const CAMPAIGN_SEEDS: [u64; 35] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15, 17, 18, 19, 20, 21, 23, 24, 25, 28, 32, 34, 35, 36,
    38, 39, 40, 41, 42, 43, 45, 46, 47,
];
/// Cases per `run_campaign` call (one timed unit).
const CHUNK: usize = 20;
/// Cases of the warm-up campaign run during every set-up, on a fixed seed
/// so set-up costs the same on every benchmark seed.
const WARMUP_CASES: usize = 10;

pub struct FuzzBench {
    seed: u64,
    cases: usize,
    warmup_failures: Vec<String>,
}

/// The campaign options of chunk `k` of a `cases`-case campaign.
fn chunk_opts(seed: u64, cases: usize, k: usize) -> CampaignOpts {
    let from = k * CHUNK;
    CampaignOpts {
        seed,
        cases: CHUNK.min(cases - from),
        from,
        corpus_dir: None,
        ..CampaignOpts::default()
    }
}

/// The campaign seed a benchmark seed runs.
fn campaign_seed(seed: u64) -> u64 {
    CAMPAIGN_SEEDS[(seed % CAMPAIGN_SEEDS.len() as u64) as usize]
}

impl FuzzBench {
    pub fn setup(seed: u64, sizes: Sizes) -> FuzzBench {
        let warm = run_campaign(&CampaignOpts {
            seed: 0,
            cases: WARMUP_CASES,
            corpus_dir: None,
            ..CampaignOpts::default()
        });
        FuzzBench {
            seed: campaign_seed(seed),
            cases: sizes.fuzz_cases,
            warmup_failures: warm
                .violations
                .iter()
                .map(|v| format!("warm-up campaign: {v}"))
                .collect(),
        }
    }
}

impl Bench for FuzzBench {
    fn round(&mut self, tracer: &Tracer) -> Round {
        let mut round = Round::default();
        let mut layer = BTreeMap::new();
        let cpu0 = procfs::cpu_times();
        let t0 = Instant::now();
        for k in 0..self.cases.div_ceil(CHUNK) {
            let opts = chunk_opts(self.seed, self.cases, k);
            let t = Instant::now();
            let summary = tracer.span("fuzz.campaign", k as u64 + 1, || run_campaign(&opts));
            round.unit_ms.push(t.elapsed().as_secs_f64() * 1e3);

            round.attempted += summary.run as u64;
            round.failures.extend(
                summary
                    .violations
                    .iter()
                    .map(|v| format!("fuzz chunk {k}: {v}")),
            );
            for (key, v) in [
                ("fuzz.verdict.clean", summary.verdicts[0]),
                ("fuzz.verdict.findings", summary.verdicts[1]),
                ("fuzz.verdict.precision", summary.verdicts[2]),
                ("fuzz.verdict.violation", summary.verdicts[3]),
                ("fuzz.recovery_audits", summary.corrupt),
                ("fault.rollbacks", summary.rollbacks),
            ] {
                add(&mut layer, key, v as f64);
            }
        }
        round.elapsed_s = t0.elapsed().as_secs_f64();
        round.wall_s = round.elapsed_s;
        round.cpu = procfs::cpu_times().since(&cpu0);
        round.layer = layer;
        round
    }

    fn warmup_failures(&self) -> Vec<String> {
        self.warmup_failures.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_tile_the_campaign() {
        let a = chunk_opts(9, 50, 0);
        let b = chunk_opts(9, 50, 1);
        let last = chunk_opts(9, 50, 2);
        assert_eq!((a.seed, a.from, a.cases), (9, 0, 20));
        assert_eq!((b.seed, b.from, b.cases), (9, 20, 20));
        assert_eq!((last.from, last.cases), (40, 10));
        assert!(
            a.corpus_dir.is_none(),
            "the benchmark never writes a corpus"
        );
        // Same seed, same cases (and their fault seeds); another seed,
        // other cases.
        let cases = |seed| {
            (0..8)
                .map(|i| {
                    let mut rng = hic_sim::SplitMix64::new(hic_fuzz::case_seed(seed, i));
                    hic_fuzz::CaseDesc::generate(&mut rng, &hic_fuzz::GenBias::default())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(cases(9), cases(9));
        assert_ne!(cases(9), cases(10));
        let seeds = |seed| cases(seed).iter().map(|c| c.fault_seed).collect::<Vec<_>>();
        assert_ne!(seeds(9), seeds(10));
    }

    #[test]
    fn benchmark_seeds_cycle_through_the_clean_campaigns() {
        assert_eq!(campaign_seed(1), 1);
        assert_eq!(campaign_seed(10), 11);
        assert_eq!(campaign_seed(35), campaign_seed(0));
        assert_eq!(
            campaign_seed(u64::MAX),
            CAMPAIGN_SEEDS[(u64::MAX % 35) as usize]
        );
        assert!(CAMPAIGN_SEEDS.windows(2).all(|w| w[0] < w[1]));
    }
}
