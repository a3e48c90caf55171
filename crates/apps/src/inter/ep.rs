//! EP — NAS "Embarrassingly Parallel" analogue.
//!
//! Each thread generates random pairs, filters them through the unit-disk
//! acceptance test, computes Gaussian deviates, and accumulates sums plus
//! annulus counts. The only communication is the terminal **reduction**
//! into global accumulators (a critical section) — a pattern with no
//! producer-consumer ordering, so level-adaptive WB/INV cannot help and
//! `Addr+L` degenerates to `Addr` (paper §VII-C: "EP and IS show no
//! impact").

use hic_runtime::{BarrierId, CommOp, Config, EpochPlan, ProgramBuilder, ProgramRecord};
use hic_sim::rng::SplitMix64;
use hic_sim::ThreadId;

use crate::{App, AppRun, PatternInfo, RunRequest, Scale, SyncPattern};

const BINS: usize = 10;

pub struct Ep {
    scale: Scale,
    pairs_per_thread: usize,
}

impl Ep {
    pub fn new(scale: Scale) -> Ep {
        let pairs_per_thread = match scale {
            Scale::Test => 64,
            Scale::Small => 8192,
            Scale::Medium => 1 << 14,
            Scale::Large => 1 << 15,
            Scale::Paper => 1 << 16,
        };
        Ep {
            scale,
            pairs_per_thread,
        }
    }

    /// Host reference of one thread's generation loop.
    fn host_thread(t: usize, pairs: usize) -> (f32, f32, [u32; BINS]) {
        let mut rng = SplitMix64::new(0xE9 + t as u64 * 7919);
        let (mut sx, mut sy) = (0.0f32, 0.0f32);
        let mut q = [0u32; BINS];
        for _ in 0..pairs {
            let x = rng.unit_f32() * 2.0 - 1.0;
            let y = rng.unit_f32() * 2.0 - 1.0;
            let t2 = x * x + y * y;
            if t2 <= 1.0 && t2 > 0.0 {
                let f = (-2.0 * t2.ln() / t2).sqrt();
                let gx = x * f;
                let gy = y * f;
                sx += gx;
                sy += gy;
                let m = gx.abs().max(gy.abs()) as usize;
                q[m.min(BINS - 1)] += 1;
            }
        }
        (sx, sy, q)
    }
}

impl App for Ep {
    fn name(&self) -> &'static str {
        "EP"
    }

    fn patterns(&self) -> PatternInfo {
        PatternInfo::new(&[SyncPattern::Critical], &[SyncPattern::Barrier])
    }

    fn scale(&self) -> Scale {
        self.scale
    }

    fn run_req(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let pairs = self.pairs_per_thread;

        let mut p = ProgramBuilder::new(config);
        p.apply_request(req);
        let nthreads = p.num_threads();
        let q_global = p.alloc(BINS as u64);
        let sums = p.alloc(2);
        for i in 0..BINS as u64 {
            p.init(q_global, i, 0);
        }
        p.init_f32(sums, 0, 0.0);
        p.init_f32(sums, 1, 0.0);
        let red_lock = p.lock_occ(false);
        let bar = p.barrier();

        let out = p.run(nthreads, move |ctx| {
            let t = ctx.tid();
            // Generation is pure compute: charge its cost.
            let (sx, sy, q) = Ep::host_thread(t, pairs);
            ctx.tick(pairs as u64 * 18);
            // Reduction with no producer-consumer order: a critical
            // section over the global accumulators.
            ctx.lock(red_lock);
            for (b, qb) in q.iter().enumerate() {
                let cur = ctx.read(q_global, b as u64);
                ctx.write(q_global, b as u64, cur + qb);
            }
            let gx = ctx.read_f32(sums, 0);
            let gy = ctx.read_f32(sums, 1);
            ctx.write_f32(sums, 0, gx + sx);
            ctx.write_f32(sums, 1, gy + sy);
            ctx.unlock(red_lock);
            // Epoch boundary: the reduced values flow to the verifying
            // reader. Consumers of a reduction are unknown -> global ops.
            let plan = EpochPlan::new()
                .with_wb(CommOp::unknown(q_global))
                .with_wb(CommOp::unknown(sums));
            ctx.epoch_boundary(bar, &plan);
            // Thread 0 reads the result (the serial "print" section).
            if t == 0 {
                let plan = EpochPlan::new()
                    .with_inv(CommOp::unknown(q_global))
                    .with_inv(CommOp::unknown(sums));
                ctx.plan_inv(&plan);
                let mut total = 0u32;
                for b in 0..BINS as u64 {
                    total += ctx.read(q_global, b);
                }
                ctx.tick(total as u64 / 1000 + 1);
            }
        });

        // Host reference: sum over threads.
        let (mut wx, mut wy) = (0.0f32, 0.0f32);
        let mut wq = [0u32; BINS];
        for t in 0..nthreads {
            let (sx, sy, q) = Ep::host_thread(t, pairs);
            wx += sx;
            wy += sy;
            for b in 0..BINS {
                wq[b] += q[b];
            }
        }
        let mut ok = true;
        for b in 0..BINS {
            ok &= out.peek(q_global, b as u64) == wq[b];
        }
        // f32 sums reassociate across lock-grant order: loose tolerance.
        let ex = (out.peek_f32(sums, 0) - wx).abs();
        let ey = (out.peek_f32(sums, 1) - wy).abs();
        ok &= ex <= 1e-2 * wx.abs().max(1.0) && ey <= 1e-2 * wy.abs().max(1.0);
        AppRun::finish(
            self.name(),
            config,
            &out,
            ok,
            format!(
                "{} pairs/thread, counts {:?}, sum err ({ex:.2e}, {ey:.2e})",
                pairs, wq
            ),
        )
    }
}

/// The paper's suggested rewrite (§VII-C): "one could re-write the code to
/// have hierarchical reductions, which reduce first inside the block and
/// then globally". This extension variant gathers per-thread partials to a
/// block leader (a producer-consumer pair level-adaptive instructions CAN
/// localize), then reduces the four block sums globally — so `Addr+L`
/// finally has something to win on in a reduction code.
pub struct EpHier {
    scale: Scale,
    pairs_per_thread: usize,
}

impl EpHier {
    pub fn new(scale: Scale) -> EpHier {
        let pairs_per_thread = match scale {
            Scale::Test => 64,
            Scale::Small => 8192,
            Scale::Medium => 1 << 14,
            Scale::Large => 1 << 15,
            Scale::Paper => 1 << 16,
        };
        EpHier {
            scale,
            pairs_per_thread,
        }
    }

    /// Builder with allocations and barriers. Shared by [`App::run_req`]
    /// and [`App::record`].
    fn setup(&self, config: Config) -> (ProgramBuilder, EpHierSetup) {
        let mut p = ProgramBuilder::new(config);
        let nthreads = p.num_threads();
        let mc = config.machine_config();
        let cpb = mc.cores_per_block();
        let nblocks = mc.num_blocks();
        // Per-thread partial counts (one bin set per thread, line-spaced),
        // per-block sums, and the global result.
        let partials = p.alloc_named("partials", (nthreads * BINS) as u64);
        let block_sums = p.alloc_named("block_sums", (nblocks * BINS) as u64);
        let global = p.alloc_named("global", BINS as u64);
        let block_bars: Vec<_> = (0..nblocks).map(|_| p.barrier_of(cpb)).collect();
        let bar = p.barrier();
        (
            p,
            EpHierSetup {
                nthreads,
                cpb,
                nblocks,
                partials,
                block_sums,
                global,
                block_bars,
                bar,
            },
        )
    }
}

/// Everything [`EpHier::setup`] derives from the builder.
struct EpHierSetup {
    nthreads: usize,
    cpb: usize,
    nblocks: usize,
    partials: hic_mem::Region,
    block_sums: hic_mem::Region,
    global: hic_mem::Region,
    block_bars: Vec<BarrierId>,
    bar: BarrierId,
}

impl App for EpHier {
    fn name(&self) -> &'static str {
        "EP-hier"
    }

    fn patterns(&self) -> PatternInfo {
        PatternInfo::new(&[SyncPattern::Barrier], &[])
    }

    fn scale(&self) -> Scale {
        self.scale
    }

    fn record(&self, config: Config) -> Option<ProgramRecord> {
        let (p, s) = self.setup(config);
        let mut rec = p.record(s.nthreads);
        rec.host_reads(s.global);
        let bins = BINS as u64;
        for t in 0..s.nthreads {
            let block = t / s.cpb;
            let leader = block * s.cpb;
            let mine = s.partials.slice(t as u64 * bins, (t as u64 + 1) * bins);
            let mut th = rec.thread(t);
            // Level 1: publish partials to the block leader.
            th.writes(mine);
            th.plan_wb(&EpochPlan::new().with_wb(CommOp::known(mine, ThreadId(leader))));
            th.plan_barrier(s.block_bars[block]);
            // Level 2: leaders combine their block, publish globally.
            if t == leader {
                let all = s.partials.slice(
                    (block * s.cpb) as u64 * bins,
                    ((block + 1) * s.cpb) as u64 * bins,
                );
                th.plan_inv(&EpochPlan::new().with_inv(CommOp::unknown(all)));
                th.reads(all);
                let mine_bs = s
                    .block_sums
                    .slice(block as u64 * bins, (block as u64 + 1) * bins);
                th.writes(mine_bs);
                th.plan_wb(&EpochPlan::new().with_wb(CommOp::known(mine_bs, ThreadId(0))));
            }
            th.plan_barrier(s.bar);
            // Level 3: thread 0 combines the block sums.
            if t == 0 {
                th.plan_inv(&EpochPlan::new().with_inv(CommOp::unknown(s.block_sums)));
                th.reads(s.block_sums);
                th.writes(s.global);
                th.plan_wb(&EpochPlan::new().with_wb(CommOp::unknown(s.global)));
            }
            th.plan_barrier(s.bar);
        }
        Some(rec)
    }

    fn run_req(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let pairs = self.pairs_per_thread;
        let (mut p, s) = self.setup(config);
        p.apply_request(req);
        let EpHierSetup {
            nthreads,
            cpb,
            nblocks,
            partials,
            block_sums,
            global,
            block_bars,
            bar,
        } = s;

        let out = p.run(nthreads, move |ctx| {
            let t = ctx.tid();
            let block = t / cpb;
            let leader = block * cpb;
            let (sx, sy, q) = Ep::host_thread(t, pairs);
            let _ = (sx, sy);
            ctx.tick(pairs as u64 * 18);
            // Level 1: publish partials to the block leader — a known
            // producer-consumer pair in the same block, so WB_CONS stays
            // local under Addr+L.
            let mine = partials.slice((t * BINS) as u64, ((t + 1) * BINS) as u64);
            for (b, qb) in q.iter().enumerate() {
                ctx.write(partials, (t * BINS + b) as u64, *qb);
            }
            ctx.plan_wb(&EpochPlan::new().with_wb(CommOp::known(mine, ctx.thread(leader))));
            ctx.plan_barrier(block_bars[block]);
            // Level 2: leaders combine their block, publish globally.
            if t == leader {
                let all = partials.slice(
                    (block * cpb * BINS) as u64,
                    ((block + 1) * cpb * BINS) as u64,
                );
                ctx.plan_inv(&EpochPlan::new().with_inv(CommOp::unknown(all)));
                let mut sums = [0u32; BINS];
                for local in 0..cpb {
                    for (b, s) in sums.iter_mut().enumerate() {
                        *s += ctx.read(partials, ((block * cpb + local) * BINS + b) as u64);
                    }
                }
                for (b, s) in sums.iter().enumerate() {
                    ctx.write(block_sums, (block * BINS + b) as u64, *s);
                }
                let mine = block_sums.slice((block * BINS) as u64, ((block + 1) * BINS) as u64);
                ctx.plan_wb(&EpochPlan::new().with_wb(CommOp::known(mine, ctx.thread(0))));
            }
            ctx.plan_barrier(bar);
            // Level 3: thread 0 combines the block sums.
            if t == 0 {
                ctx.plan_inv(&EpochPlan::new().with_inv(CommOp::unknown(block_sums)));
                for b in 0..BINS {
                    let mut s = 0u32;
                    for blk in 0..nblocks {
                        s += ctx.read(block_sums, (blk * BINS + b) as u64);
                    }
                    ctx.write(global, b as u64, s);
                }
                ctx.plan_wb(&EpochPlan::new().with_wb(CommOp::unknown(global)));
            }
            ctx.plan_barrier(bar);
        });

        let mut wq = [0u32; BINS];
        for t in 0..nthreads {
            let (_, _, q) = Ep::host_thread(t, pairs);
            for b in 0..BINS {
                wq[b] += q[b];
            }
        }
        let mut ok = true;
        for b in 0..BINS {
            ok &= out.peek(global, b as u64) == wq[b];
        }
        AppRun::finish(
            self.name(),
            config,
            &out,
            ok,
            format!("{pairs} pairs/thread, hierarchical reduction, counts {wq:?}"),
        )
    }
}
