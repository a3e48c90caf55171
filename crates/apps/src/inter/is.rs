//! IS — NAS "Integer Sort" analogue: bucket sort by counting.
//!
//! Phases (each an epoch bounded by barriers):
//!
//! 1. every thread histograms its key chunk into its own row of a
//!    per-thread counts matrix, and folds its counts into a global
//!    histogram inside a critical section (the **reduction**);
//! 2. every thread reads the *whole* counts matrix to compute exclusive
//!    scatter offsets — every row has every thread as a consumer, so the
//!    compiler cannot name a single consumer and must write back globally
//!    (multi-consumer data gets a single global WB, §V-A1);
//! 3. every thread scatters its keys to their final positions.
//!
//! Like EP, the reduction structure leaves nothing for level-adaptive
//! instructions to localize: `Addr+L` matches `Addr` (paper Figure 11).

use hic_runtime::{CommOp, EpochPlan, ProgramBuilder};
use hic_sim::rng::SplitMix64;

use crate::{App, AppRun, PatternInfo, RunRequest, Scale, SyncPattern};

pub struct Is {
    scale: Scale,
    n: usize,
    buckets: usize,
}

impl Is {
    pub fn new(scale: Scale) -> Is {
        let (n, buckets) = match scale {
            Scale::Test => (256, 16),
            Scale::Small => (8192, 32),
            Scale::Medium => (1 << 14, 64),
            Scale::Large => (1 << 15, 256),
            Scale::Paper => (1 << 16, 1024),
        };
        Is { scale, n, buckets }
    }

    fn keys(&self) -> Vec<u32> {
        let mut rng = SplitMix64::new(0x15 + self.n as u64);
        (0..self.n)
            .map(|_| rng.below(self.buckets as u64) as u32)
            .collect()
    }
}

impl App for Is {
    fn name(&self) -> &'static str {
        "IS"
    }

    fn patterns(&self) -> PatternInfo {
        PatternInfo::new(&[SyncPattern::Critical], &[SyncPattern::Barrier])
    }

    fn scale(&self) -> Scale {
        self.scale
    }

    fn run_req(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let n = self.n;
        let nb = self.buckets;
        let keys_in = self.keys();

        let mut p = ProgramBuilder::new(config);
        p.apply_request(req);
        let nthreads = p.num_threads();
        let keys = p.alloc(n as u64);
        let counts = p.alloc((nthreads * nb) as u64); // row per thread
        let hist = p.alloc(nb as u64); // global histogram (reduction)
        let sorted = p.alloc(n as u64);
        for (i, k) in keys_in.iter().enumerate() {
            p.init(keys, i as u64, *k);
        }
        for i in 0..(nthreads * nb) as u64 {
            p.init(counts, i, 0);
        }
        for i in 0..nb as u64 {
            p.init(hist, i, 0);
        }
        let red_lock = p.lock_occ(false);
        let bar = p.barrier();

        let out = p.run_tasks(nthreads, async move |ctx| {
            let t = ctx.tid();
            let nthreads = ctx.nthreads();
            let chunk = n.div_ceil(nthreads);
            let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(n));
            let my_row = counts.slice((t * nb) as u64, ((t + 1) * nb) as u64);

            // Phase 1: local histogram of own keys.
            let mut local = vec![0u32; nb];
            for i in lo..hi {
                let k = ctx.read(keys, i as u64).await as usize;
                local[k] += 1;
                ctx.tick(2);
            }
            for (b, c) in local.iter().enumerate() {
                ctx.write(counts, (t * nb + b) as u64, *c).await;
            }
            // Reduction into the global histogram (critical section).
            ctx.lock(red_lock).await;
            for (b, c) in local.iter().enumerate() {
                if *c > 0 {
                    let cur = ctx.read(hist, b as u64).await;
                    ctx.write(hist, b as u64, cur + c).await;
                }
            }
            ctx.unlock(red_lock).await;
            // The counts matrix has every thread as a consumer: global WB.
            let plan = EpochPlan::new().with_wb(CommOp::unknown(my_row));
            ctx.epoch_boundary(bar, &plan).await;

            // Phase 2: read the whole counts matrix (multi-producer data:
            // invalidate it all; producers unknown at this granularity).
            let plan = EpochPlan::new().with_inv(CommOp::unknown(counts));
            ctx.plan_inv(&plan).await;
            // offset[b] = total keys in buckets < b, plus keys equal to b
            // from threads before t.
            let mut bucket_start = vec![0u32; nb];
            let mut acc = 0u32;
            for b in 0..nb {
                bucket_start[b] = acc;
                for tt in 0..nthreads {
                    acc += ctx.read(counts, (tt * nb + b) as u64).await;
                    ctx.tick(1);
                }
            }
            let mut my_offset = vec![0u32; nb];
            for b in 0..nb {
                let mut off = bucket_start[b];
                for tt in 0..t {
                    off += ctx.read(counts, (tt * nb + b) as u64).await;
                }
                my_offset[b] = off;
            }

            // Phase 3: scatter own keys (write positions are data-dependent:
            // unanalyzable -> global WB of the output).
            for i in lo..hi {
                let k = ctx.read(keys, i as u64).await as usize;
                ctx.write(sorted, my_offset[k] as u64, k as u32).await;
                my_offset[k] += 1;
                ctx.tick(2);
            }
            let plan = EpochPlan::new().with_wb(CommOp::unknown(sorted));
            ctx.epoch_boundary(bar, &plan).await;
        });

        // Verify: sorted output equals the host sort, and the global
        // histogram matches.
        let mut want = keys_in.clone();
        want.sort_unstable();
        let mut ok = true;
        for i in 0..n {
            ok &= out.peek(sorted, i as u64) == want[i];
        }
        let mut wh = vec![0u32; nb];
        for &k in &keys_in {
            wh[k as usize] += 1;
        }
        for b in 0..nb {
            ok &= out.peek(hist, b as u64) == wh[b];
        }
        AppRun::finish(
            self.name(),
            config,
            &out,
            ok,
            format!("n={n}, {nb} buckets"),
        )
    }
}
