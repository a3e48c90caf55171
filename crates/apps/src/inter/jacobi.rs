//! Jacobi — the paper's 2D Jacobi application, fully instrumented by the
//! `hic-analysis` DEF-USE pass.
//!
//! The grid is row-banded over threads; each sweep reads a 3-row stencil
//! and writes one row, so the only cross-thread data are the band-edge
//! (halo) rows. The analyzer extracts exactly those producer-consumer
//! pairs and emits `WB_CONS` / `INV_PROD` per neighbor — which `Addr+L`
//! resolves to *local* operations whenever both threads share a block.
//! This is the application where level-adaptive instructions shine
//! (paper Figure 11: Jacobi's global WB/INV drop sharply under Addr+L).

use hic_analysis::{Access, Analyzer, ArrayId, Chunks, Node, NodePlans, Pattern, Program};
use hic_mem::Region;
use hic_runtime::{BarrierId, CommOp, Config, EpochPlan, ProgramBuilder, ProgramRecord};
use hic_sim::rng::SplitMix64;

use crate::{App, AppRun, PatternInfo, RunRequest, Scale, SyncPattern};

pub struct Jacobi {
    scale: Scale,
    rows: usize,
    cols: usize,
    iters: usize,
}

impl Jacobi {
    pub fn new(scale: Scale) -> Jacobi {
        let (rows, cols, iters) = match scale {
            Scale::Test => (34, 16, 2),
            Scale::Small => (130, 16, 3),
            Scale::Medium => (258, 32, 4),
            Scale::Large => (514, 64, 6),
            Scale::Paper => (1024, 1024, 10),
        };
        Jacobi {
            scale,
            rows,
            cols,
            iters,
        }
    }

    fn input(&self) -> Vec<f32> {
        let mut rng = SplitMix64::new(0x1AC0B1 + self.rows as u64);
        (0..self.rows * self.cols).map(|_| rng.unit_f32()).collect()
    }

    fn host(&self) -> Vec<f32> {
        let (r, c) = (self.rows, self.cols);
        let mut a = self.input();
        let mut b = a.clone();
        for _ in 0..self.iters {
            for i in 1..r - 1 {
                for j in 1..c - 1 {
                    b[i * c + j] = 0.25
                        * (a[(i - 1) * c + j]
                            + a[(i + 1) * c + j]
                            + a[i * c + j - 1]
                            + a[i * c + j + 1]);
                }
            }
            for i in 1..r - 1 {
                for j in 1..c - 1 {
                    a[i * c + j] = 0.25
                        * (b[(i - 1) * c + j]
                            + b[(i + 1) * c + j]
                            + b[i * c + j - 1]
                            + b[i * c + j + 1]);
                }
            }
        }
        a
    }

    /// Builder with allocations, inputs, barrier, and the analyzer's
    /// plans. Shared by [`App::run_req`] and [`App::record`] so the
    /// record describes exactly the program that runs (same addresses,
    /// same plan call sites in the same order).
    fn setup(&self, config: Config) -> (ProgramBuilder, JacobiSetup) {
        let (r, c) = (self.rows, self.cols);
        let input = self.input();

        let mut p = ProgramBuilder::new(config);
        let nthreads = p.num_threads();
        let ga = p.alloc_named("ga", (r * c) as u64);
        let gb = p.alloc_named("gb", (r * c) as u64);
        for i in 0..r * c {
            p.init_f32(ga, i as u64, input[i]);
            p.init_f32(gb, i as u64, input[i]);
        }
        let bar = p.barrier();

        // The affine program the "compiler" sees: two sweeps per
        // iteration (A->B and B->A), looping.
        let interior = (r - 2) as u64;
        let cw = c as i64;
        let program = Program {
            arrays: vec![ga, gb],
            nodes: vec![
                Node::ParFor {
                    iters: interior,
                    reads: vec![Access::new(
                        ArrayId(0),
                        Pattern::Range {
                            scale: cw,
                            lo: 0,
                            hi: 3 * cw,
                        },
                    )],
                    writes: vec![Access::new(
                        ArrayId(1),
                        Pattern::Range {
                            scale: cw,
                            lo: cw,
                            hi: 2 * cw,
                        },
                    )],
                },
                Node::ParFor {
                    iters: interior,
                    reads: vec![Access::new(
                        ArrayId(1),
                        Pattern::Range {
                            scale: cw,
                            lo: 0,
                            hi: 3 * cw,
                        },
                    )],
                    writes: vec![Access::new(
                        ArrayId(0),
                        Pattern::Range {
                            scale: cw,
                            lo: cw,
                            hi: 2 * cw,
                        },
                    )],
                },
            ],
            repeat: true,
        };
        let plans = Analyzer::new(&program, nthreads).analyze();
        let chunks = Chunks::new(interior, nthreads);
        (
            p,
            JacobiSetup {
                nthreads,
                ga,
                gb,
                bar,
                plans,
                chunks,
            },
        )
    }

    /// The final-writeback plan thread `t` posts for verification (only
    /// threads with a non-empty band).
    fn final_wb(&self, s: &JacobiSetup, t: usize) -> Option<EpochPlan> {
        let (ilo, ihi) = s.chunks.range(t);
        if ihi <= ilo {
            return None;
        }
        let c = self.cols as u64;
        let lo_w = (ilo + 1) * c;
        let hi_w = (ihi + 1) * c;
        Some(EpochPlan::new().with_wb(CommOp::unknown(s.ga.slice(lo_w, hi_w))))
    }
}

/// Everything [`Jacobi::setup`] derives from the builder.
struct JacobiSetup {
    nthreads: usize,
    ga: Region,
    gb: Region,
    bar: BarrierId,
    plans: NodePlans,
    chunks: Chunks,
}

impl App for Jacobi {
    fn name(&self) -> &'static str {
        "Jacobi"
    }

    fn patterns(&self) -> PatternInfo {
        PatternInfo::new(&[SyncPattern::Barrier], &[])
    }

    fn scale(&self) -> Scale {
        self.scale
    }

    fn record(&self, config: Config) -> Option<ProgramRecord> {
        let (p, s) = self.setup(config);
        let (c, iters) = (self.cols, self.iters);
        let mut rec = p.record(s.nthreads);
        rec.host_reads(s.ga);
        for t in 0..s.nthreads {
            let (ilo, ihi) = s.chunks.range(t);
            let final_wb = self.final_wb(&s, t);
            let mut th = rec.thread(t);
            let grids = [s.ga, s.gb];
            for _ in 0..iters {
                for node in 0..2 {
                    th.plan_inv(&s.plans.start[node][t]);
                    if ihi > ilo {
                        let src = grids[node];
                        let dst = grids[1 - node];
                        // Stencil rows [ilo, ihi+2) read; band rows
                        // [ilo+1, ihi+1) written (full-row summaries,
                        // matching the patterns the analyzer saw).
                        th.reads(src.slice(ilo * c as u64, (ihi + 2) * c as u64));
                        th.writes(dst.slice((ilo + 1) * c as u64, (ihi + 1) * c as u64));
                    }
                    th.plan_wb(&s.plans.end[node][t]);
                    th.plan_barrier(s.bar);
                }
            }
            if let Some(wb) = &final_wb {
                th.plan_wb(wb);
            }
            th.plan_barrier(s.bar);
        }
        Some(rec)
    }

    fn run_req(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let (r, c, iters) = (self.rows, self.cols, self.iters);
        let (mut p, s) = self.setup(config);
        p.apply_request(req);
        let JacobiSetup {
            nthreads,
            ga,
            gb,
            bar,
            plans,
            chunks,
        } = s;

        let out = p.run(nthreads, move |ctx| {
            let t = ctx.tid();
            let (ilo, ihi) = chunks.range(t);
            let grids = [ga, gb];
            for _ in 0..iters {
                for node in 0..2 {
                    // Consume: invalidate the halo rows the analyzer found.
                    ctx.plan_inv(&plans.start[node][t]);
                    let src = grids[node];
                    let dst = grids[1 - node];
                    for it in ilo..ihi {
                        let i = it as usize + 1; // interior row
                        for j in 1..c - 1 {
                            let up = ctx.read_f32(src, ((i - 1) * c + j) as u64);
                            let dn = ctx.read_f32(src, ((i + 1) * c + j) as u64);
                            let lf = ctx.read_f32(src, (i * c + j - 1) as u64);
                            let rt = ctx.read_f32(src, (i * c + j + 1) as u64);
                            let v = 0.25 * (up + dn + lf + rt);
                            ctx.write_f32(dst, (i * c + j) as u64, v);
                            ctx.tick(5);
                        }
                    }
                    // Produce: write back the band-edge rows to the
                    // neighbors the analyzer named.
                    ctx.plan_wb(&plans.end[node][t]);
                    ctx.plan_barrier(bar);
                }
            }
            // Post the final grid for verification.
            if ihi > ilo {
                let lo_w = ((ilo as usize + 1) * c) as u64;
                let hi_w = ((ihi as usize + 1) * c) as u64;
                ctx.plan_wb(
                    &hic_runtime::EpochPlan::new()
                        .with_wb(hic_runtime::CommOp::unknown(ga.slice(lo_w, hi_w))),
                );
            }
            ctx.plan_barrier(bar);
        });

        let want = self.host();
        let mut max_err = 0.0f32;
        for i in 0..r * c {
            max_err = max_err.max((out.peek_f32(ga, i as u64) - want[i]).abs());
        }
        AppRun::finish(
            self.name(),
            config,
            &out,
            max_err <= 1e-5,
            format!("{r}x{c}, {iters} iters, max err {max_err:.2e}"),
        )
    }
}
