//! CG — conjugate gradient with a sparse random matrix (NAS CG analogue),
//! the paper's irregular application (§V-A2, Figure 8).
//!
//! The sparse matrix-vector product reads `p[col[j]]` through
//! indirection, so the producer of each consumed element is unknown at
//! compile time. An **inspector** loop (simulated, run once and amortized
//! over the solver iterations) resolves, for every remotely-produced
//! element a thread reads, the producing thread; the executor then issues
//! `INV_PROD` only where needed. Writebacks of the updated vectors go to
//! L3 wholesale — "to reduce the complexity of the analysis, we write
//! everything to L3" — which is why level-adaptive support trims CG's
//! global INVs but not its global WBs (paper Figure 11: INVs drop to
//! ~78%, WBs stay at 100%).
//!
//! Column indices are uniform over all rows, so ~3/4 of remote reads
//! cross a block boundary (24 of 31 foreign chunks are in other blocks) —
//! matching the paper's measured 78%.

use hic_analysis::{inspect_indirect, Chunks};
use hic_mem::Region;
use hic_runtime::{BarrierId, CommOp, Config, EpochPlan, ProgramBuilder, ProgramRecord};
use hic_sim::rng::SplitMix64;

use crate::{App, AppRun, PatternInfo, RunRequest, Scale, SyncPattern};

pub struct Cg {
    scale: Scale,
    n: usize,
    nnz_per_row: usize,
    iters: usize,
}

struct Csr {
    rowptr: Vec<u32>,
    col: Vec<u32>,
    val: Vec<f32>,
}

impl Cg {
    pub fn new(scale: Scale) -> Cg {
        let (n, nnz, iters) = match scale {
            Scale::Test => (64, 4, 2),
            Scale::Small => (1024, 8, 3),
            Scale::Medium => (2048, 10, 4),
            Scale::Large => (6000, 12, 8),
            Scale::Paper => (14000, 13, 15), // NAS CG class-S-ish shape
        };
        Cg {
            scale,
            n,
            nnz_per_row: nnz,
            iters,
        }
    }

    /// Deterministic sparse SPD-ish matrix: random off-diagonals plus a
    /// dominant diagonal.
    fn matrix(&self) -> Csr {
        let n = self.n;
        let mut rng = SplitMix64::new(0xC6 + n as u64);
        let mut rowptr = vec![0u32];
        let mut col = Vec::new();
        let mut val = Vec::new();
        for i in 0..n {
            let mut cols: Vec<u32> = (0..self.nnz_per_row - 1)
                .map(|_| rng.below(n as u64) as u32)
                .filter(|&c| c != i as u32)
                .collect();
            cols.push(i as u32);
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                col.push(c);
                val.push(if c == i as u32 {
                    self.nnz_per_row as f32 + 1.0
                } else {
                    0.1 + 0.4 * rng.unit_f32()
                });
            }
            rowptr.push(col.len() as u32);
        }
        Csr { rowptr, col, val }
    }

    /// Host CG, mirroring the simulated op order (chunked dots summed in
    /// thread order).
    fn host_cg(&self, m: &Csr, nthreads: usize) -> Vec<f32> {
        let n = self.n;
        let chunks = Chunks::new(n as u64, nthreads);
        let mut x = vec![0.0f32; n];
        let mut r = vec![1.0f32; n];
        let mut pv = vec![1.0f32; n];
        let mut q = vec![0.0f32; n];
        let dot = |a: &[f32], b: &[f32]| -> f32 {
            // Partial dots per thread chunk, reduced in thread order.
            let mut total = 0.0f32;
            for t in 0..nthreads {
                let (lo, hi) = chunks.range(t);
                let mut s = 0.0f32;
                for i in lo..hi {
                    s += a[i as usize] * b[i as usize];
                }
                total += s;
            }
            total
        };
        let mut rsold = dot(&r, &r);
        for _ in 0..self.iters {
            for i in 0..n {
                let mut s = 0.0f32;
                for j in m.rowptr[i] as usize..m.rowptr[i + 1] as usize {
                    s += m.val[j] * pv[m.col[j] as usize];
                }
                q[i] = s;
            }
            let alpha = rsold / dot(&pv, &q);
            for i in 0..n {
                x[i] += alpha * pv[i];
                r[i] -= alpha * q[i];
            }
            let rsnew = dot(&r, &r);
            let beta = rsnew / rsold;
            for i in 0..n {
                pv[i] = r[i] + beta * pv[i];
            }
            rsold = rsnew;
        }
        x
    }

    /// Builder with allocations, inputs, barrier, and the inspector's
    /// per-thread plans. Shared by [`App::run_req`] and [`App::record`]
    /// so the record describes exactly the program that runs.
    fn setup(&self, config: Config) -> (ProgramBuilder, CgSetup) {
        let n = self.n;
        let m = self.matrix();
        let nnz = m.col.len();

        let mut p = ProgramBuilder::new(config);
        let nthreads = p.num_threads();
        let chunks = Chunks::new(n as u64, nthreads);
        let rowptr = p.alloc_named("rowptr", n as u64 + 1);
        let colr = p.alloc_named("col", nnz as u64);
        let valr = p.alloc_named("val", nnz as u64);
        let xv = p.alloc_named("x", n as u64);
        let rv = p.alloc_named("r", n as u64);
        let pvr = p.alloc_named("p", n as u64);
        let qv = p.alloc_named("q", n as u64);
        let conflict = p.alloc_named("conflict", nnz as u64); // the inspector's output array
        let scalars = p.alloc_named("scalars", 4); // 0: dot accumulator, 1: rsold, 2: alpha, 3: beta
        for (i, v) in m.rowptr.iter().enumerate() {
            p.init(rowptr, i as u64, *v);
        }
        for i in 0..nnz {
            p.init(colr, i as u64, m.col[i]);
            p.init_f32(valr, i as u64, m.val[i]);
        }
        let partials = p.alloc_named("partials", nthreads as u64); // per-thread dot partials
        for i in 0..n as u64 {
            p.init_f32(xv, i, 0.0);
            p.init_f32(rv, i, 1.0);
            p.init_f32(pvr, i, 1.0);
            p.init_f32(qv, i, 0.0);
        }
        let bar = p.barrier();

        // The inspector's *result* is also computed host-side so the
        // executor threads can index their plans; the simulated inspector
        // loop pays the corresponding simulated cost.
        let reads_by_thread: Vec<Vec<u64>> = (0..nthreads)
            .map(|t| {
                let (lo, hi) = chunks.range(t);
                (m.rowptr[lo as usize]..m.rowptr[hi as usize])
                    .map(|j| m.col[j as usize] as u64)
                    .collect()
            })
            .collect();
        let plans = inspect_indirect(&reads_by_thread, chunks, pvr)
            .into_iter()
            .enumerate()
            .map(|(t, inv_p)| {
                let (lo, hi) = chunks.range(t);
                let wb = |r: Region| EpochPlan::new().with_wb(CommOp::unknown(r));
                CgPlans {
                    inv_p,
                    wb_partial: wb(partials.slice(t as u64, t as u64 + 1)),
                    wb_p: wb(pvr.slice(lo, hi)),
                    wb_x: wb(xv.slice(lo, hi)),
                }
            })
            .collect();
        (
            p,
            CgSetup {
                m,
                nthreads,
                chunks,
                rowptr,
                colr,
                valr,
                xv,
                rv,
                pvr,
                qv,
                conflict,
                scalars,
                partials,
                bar,
                reads_by_thread,
                plans,
                inv_partials: EpochPlan::new().with_inv(CommOp::unknown(partials)),
                wb_scalars: EpochPlan::new().with_wb(CommOp::unknown(scalars)),
                inv_scalars: EpochPlan::new().with_inv(CommOp::unknown(scalars)),
            },
        )
    }
}

/// Everything [`Cg::setup`] derives from the builder.
struct CgSetup {
    m: Csr,
    nthreads: usize,
    chunks: Chunks,
    rowptr: Region,
    colr: Region,
    valr: Region,
    xv: Region,
    rv: Region,
    pvr: Region,
    qv: Region,
    conflict: Region,
    scalars: Region,
    partials: Region,
    bar: BarrierId,
    reads_by_thread: Vec<Vec<u64>>,
    /// Per thread: its own epoch plans.
    plans: Vec<CgPlans>,
    /// Thread 0 invalidates every dot partial before combining them.
    inv_partials: EpochPlan,
    /// Thread 0 publishes the scalars it computed.
    wb_scalars: EpochPlan,
    /// Every thread invalidates the scalars before reading alpha/beta.
    inv_scalars: EpochPlan,
}

/// One thread's epoch plans, built once by [`Cg::setup`]: the record
/// declares exactly the plans the kernel issues.
struct CgPlans {
    /// The inspector's targeted INV of the remotely produced `p`
    /// elements this thread reads.
    inv_p: EpochPlan,
    /// Publish this thread's dot partial (a reduction: global scope).
    wb_partial: EpochPlan,
    /// Publish this thread's chunk of `p` for the next matvec.
    wb_p: EpochPlan,
    /// Publish this thread's chunk of `x` for the host verifier.
    wb_x: EpochPlan,
}

/// Maximal contiguous runs of a (possibly unsorted, duplicated) element
/// set — the precise read summary of an indirect access.
fn element_runs(elems: &[u64]) -> Vec<(u64, u64)> {
    let mut sorted: Vec<u64> = elems.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &e in &sorted {
        match runs.last_mut() {
            Some((_, hi)) if *hi == e => *hi = e + 1,
            _ => runs.push((e, e + 1)),
        }
    }
    runs
}

impl App for Cg {
    fn name(&self) -> &'static str {
        "CG"
    }

    fn patterns(&self) -> PatternInfo {
        PatternInfo::new(&[SyncPattern::Barrier], &[])
    }

    fn scale(&self) -> Scale {
        self.scale
    }

    fn record(&self, config: Config) -> Option<ProgramRecord> {
        let (p, s) = self.setup(config);
        let iters = self.iters;
        let mut rec = p.record(s.nthreads);
        rec.host_reads(s.xv);
        let empty = EpochPlan::new();
        for t in 0..s.nthreads {
            let (lo, hi) = s.chunks.range(t);
            let (jlo, jhi) = (
                s.m.rowptr[lo as usize] as u64,
                s.m.rowptr[hi as usize] as u64,
            );
            let my_chunk = |r: Region| r.slice(lo, hi);
            let my_partial = s.partials.slice(t as u64, t as u64 + 1);
            let plans = &s.plans[t];
            let pvr_runs = element_runs(&s.reads_by_thread[t]);
            let mut th = rec.thread(t);

            // dot(a, b) as the closure records it: partials written and
            // published, thread 0 combines.
            macro_rules! dot {
                ($a:expr, $b:expr) => {
                    th.reads(my_chunk($a)).reads(my_chunk($b));
                    th.writes(my_partial);
                    th.plan_wb(&plans.wb_partial).plan_barrier(s.bar);
                    if t == 0 {
                        th.plan_inv(&s.inv_partials);
                        th.reads(s.partials);
                        th.writes(s.scalars.slice(0, 1));
                    }
                };
            }

            // Inspector epoch.
            th.reads(s.rowptr.slice(lo, hi + 1));
            th.reads(s.colr.slice(jlo, jhi));
            th.writes(s.conflict.slice(jlo, jhi));
            th.epoch_boundary(s.bar, &empty);

            // rsold = dot(r, r).
            dot!(s.rv, s.rv);
            if t == 0 {
                th.reads(s.scalars.slice(0, 1));
                th.writes(s.scalars.slice(1, 2));
                th.plan_wb(&s.wb_scalars);
            }
            th.plan_barrier(s.bar);

            for _ in 0..iters {
                // q = A p over own rows, p consumed through indirection.
                th.plan_inv(&plans.inv_p);
                th.reads(s.rowptr.slice(lo, hi + 1));
                th.reads(s.colr.slice(jlo, jhi));
                th.reads(s.valr.slice(jlo, jhi));
                th.reads(s.conflict.slice(jlo, jhi));
                for &(elo, ehi) in &pvr_runs {
                    th.reads(s.pvr.slice(elo, ehi));
                }
                th.writes(my_chunk(s.qv));
                th.epoch_boundary(s.bar, &empty);

                // alpha = rsold / dot(p, q).
                dot!(s.pvr, s.qv);
                if t == 0 {
                    th.reads(s.scalars.slice(0, 2));
                    th.writes(s.scalars.slice(2, 3));
                    th.plan_wb(&s.wb_scalars);
                }
                th.plan_barrier(s.bar);
                th.plan_inv(&s.inv_scalars);
                th.reads(s.scalars.slice(2, 3));

                // x += alpha p; r -= alpha q (own chunks).
                th.reads(my_chunk(s.xv))
                    .reads(my_chunk(s.pvr))
                    .reads(my_chunk(s.rv))
                    .reads(my_chunk(s.qv));
                th.writes(my_chunk(s.xv)).writes(my_chunk(s.rv));
                th.epoch_boundary(s.bar, &empty);

                // rsnew = dot(r, r); beta = rsnew / rsold.
                dot!(s.rv, s.rv);
                if t == 0 {
                    th.reads(s.scalars.slice(0, 2));
                    th.writes(s.scalars.slice(3, 4));
                    th.writes(s.scalars.slice(1, 2));
                    th.plan_wb(&s.wb_scalars);
                }
                th.plan_barrier(s.bar);
                th.plan_inv(&s.inv_scalars);
                th.reads(s.scalars.slice(3, 4));

                // p = r + beta p (own chunk).
                th.reads(my_chunk(s.rv)).reads(my_chunk(s.pvr));
                th.writes(my_chunk(s.pvr));
                th.plan_wb(&plans.wb_p).plan_barrier(s.bar);
            }
            // Final: publish x for the host verifier.
            th.plan_wb(&plans.wb_x);
            th.plan_barrier(s.bar);
        }
        Some(rec)
    }

    fn run_req(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let n = self.n;
        let iters = self.iters;
        let (mut p, s) = self.setup(config);
        p.apply_request(req);
        let CgSetup {
            m,
            nthreads,
            chunks,
            rowptr,
            colr,
            valr,
            xv,
            rv,
            pvr,
            qv,
            conflict,
            scalars,
            partials,
            bar,
            reads_by_thread: _,
            plans,
            inv_partials,
            wb_scalars,
            inv_scalars,
        } = s;
        let nnz = m.col.len();

        let out = p.run_tasks(nthreads, async move |ctx| {
            let t = ctx.tid();
            let (lo, hi) = chunks.range(t);
            let (lo, hi) = (lo as usize, hi as usize);

            // --- Simulated inspector (Figure 8, lines 5-13): for each of
            // this thread's nonzeros, record the producing thread of the
            // element it reads. Runs once; amortized over iterations.
            let jlo = ctx.read(rowptr, lo as u64).await;
            let jhi = ctx.read(rowptr, hi as u64).await;
            for j in jlo..jhi {
                let c = ctx.read(colr, j as u64).await as u64;
                let owner = chunks.owner(c) as u32;
                ctx.write(conflict, j as u64, owner).await;
                ctx.tick(3);
            }
            ctx.epoch_boundary(bar, &EpochPlan::new()).await;

            let plans = &plans[t];

            // dot(a, b): per-thread partials combined serially by thread
            // 0, the usual translation of an OpenMP reduction clause. The
            // combine order is thread order, which the host mirrors.
            let dot = async |a: hic_mem::Region, b: hic_mem::Region| {
                let mut s = 0.0f32;
                for i in lo..hi {
                    s += ctx.read_f32(a, i as u64).await * ctx.read_f32(b, i as u64).await;
                    ctx.tick(2);
                }
                ctx.write_f32(partials, t as u64, s).await;
                // Reduction: consumers of partials cannot be ordered
                // against the producers, so the writeback goes global.
                ctx.plan_wb(&plans.wb_partial).await;
                ctx.plan_barrier(bar).await;
                if t == 0 {
                    ctx.plan_inv(&inv_partials).await;
                    let mut total = 0.0f32;
                    for tt in 0..ctx.nthreads() as u64 {
                        total += ctx.read_f32(partials, tt).await;
                        ctx.tick(1);
                    }
                    ctx.write_f32(scalars, 0, total).await;
                }
            };

            // rsold = dot(r, r).
            dot(rv, rv).await;
            if t == 0 {
                let rsold = ctx.read_f32(scalars, 0).await;
                ctx.write_f32(scalars, 1, rsold).await;
                ctx.plan_wb(&wb_scalars).await;
            }
            ctx.plan_barrier(bar).await;

            for _ in 0..iters {
                // q = A p over own rows; p consumed through indirection:
                // the executor invalidates exactly the remotely-produced
                // elements the inspector found (INV_PROD under Addr+L).
                ctx.plan_inv(&plans.inv_p).await;
                for i in lo..hi {
                    let jl = ctx.read(rowptr, i as u64).await;
                    let jh = ctx.read(rowptr, i as u64 + 1).await;
                    let mut s = 0.0f32;
                    for j in jl..jh {
                        let c = ctx.read(colr, j as u64).await as u64;
                        let v = ctx.read_f32(valr, j as u64).await;
                        // The executor consults the conflict array (a
                        // simulated read, as in Figure 8 line 21).
                        let _owner = ctx.read(conflict, j as u64).await;
                        s += v * ctx.read_f32(pvr, c).await;
                        ctx.tick(4);
                    }
                    ctx.write_f32(qv, i as u64, s).await;
                }
                ctx.epoch_boundary(bar, &EpochPlan::new()).await;

                // alpha = rsold / dot(p, q).
                dot(pvr, qv).await;
                if t == 0 {
                    let pq = ctx.read_f32(scalars, 0).await;
                    let rsold = ctx.read_f32(scalars, 1).await;
                    ctx.write_f32(scalars, 2, rsold / pq).await;
                    ctx.plan_wb(&wb_scalars).await;
                }
                ctx.plan_barrier(bar).await;
                ctx.plan_inv(&inv_scalars).await;
                let alpha = ctx.read_f32(scalars, 2).await;

                // x += alpha p; r -= alpha q (own chunks, no comm).
                for i in lo..hi {
                    let nx = ctx.read_f32(xv, i as u64).await
                        + alpha * ctx.read_f32(pvr, i as u64).await;
                    ctx.write_f32(xv, i as u64, nx).await;
                    let nr =
                        ctx.read_f32(rv, i as u64).await - alpha * ctx.read_f32(qv, i as u64).await;
                    ctx.write_f32(rv, i as u64, nr).await;
                    ctx.tick(4);
                }
                ctx.epoch_boundary(bar, &EpochPlan::new()).await;

                // rsnew = dot(r, r); beta = rsnew / rsold.
                dot(rv, rv).await;
                if t == 0 {
                    let rsnew = ctx.read_f32(scalars, 0).await;
                    let rsold = ctx.read_f32(scalars, 1).await;
                    ctx.write_f32(scalars, 3, rsnew / rsold).await;
                    ctx.write_f32(scalars, 1, rsnew).await;
                    ctx.plan_wb(&wb_scalars).await;
                }
                ctx.plan_barrier(bar).await;
                ctx.plan_inv(&inv_scalars).await;
                let beta = ctx.read_f32(scalars, 3).await;

                // p = r + beta p (own chunk): p is the next matvec's
                // input — written back wholesale to L3 (paper: "we write
                // everything to L3" on the producer side).
                for i in lo..hi {
                    let np =
                        ctx.read_f32(rv, i as u64).await + beta * ctx.read_f32(pvr, i as u64).await;
                    ctx.write_f32(pvr, i as u64, np).await;
                    ctx.tick(3);
                }
                ctx.plan_wb(&plans.wb_p).await;
                ctx.plan_barrier(bar).await;
            }
            // Final: write back x so the verifier sees it.
            ctx.plan_wb(&plans.wb_x).await;
            ctx.plan_barrier(bar).await;
        });

        let want = self.host_cg(&m, nthreads);
        let mut max_err = 0.0f32;
        for i in 0..n {
            let got = out.peek_f32(xv, i as u64);
            max_err = max_err.max((got - want[i]).abs() / want[i].abs().max(1e-3));
        }
        AppRun::finish(
            self.name(),
            config,
            &out,
            max_err <= 1e-2,
            format!("n={n}, nnz={nnz}, {iters} iters, max rel err {max_err:.2e}"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CG is a solver: the residual ||b - A x|| after the host run must be
    /// far below the initial ||b|| (b = ones, x0 = 0).
    #[test]
    fn host_cg_reduces_the_residual() {
        let cg = Cg {
            scale: Scale::Test,
            n: 128,
            nnz_per_row: 6,
            iters: 8,
        };
        let m = cg.matrix();
        let x = cg.host_cg(&m, 8);
        let n = 128;
        let mut res2 = 0.0f64;
        for i in 0..n {
            let mut ax = 0.0f64;
            for j in m.rowptr[i] as usize..m.rowptr[i + 1] as usize {
                ax += m.val[j] as f64 * x[m.col[j] as usize] as f64;
            }
            let r = 1.0 - ax;
            res2 += r * r;
        }
        let initial2 = n as f64; // ||b||^2 with b = ones
        assert!(
            res2 < 1e-4 * initial2,
            "residual^2 {res2} vs initial {initial2}: CG failed to converge"
        );
    }

    /// The generated matrix is structurally sane: sorted unique columns
    /// per row, a diagonal in every row, strict diagonal dominance.
    #[test]
    fn matrix_is_diagonally_dominant_csr() {
        let cg = Cg {
            scale: Scale::Test,
            n: 64,
            nnz_per_row: 5,
            iters: 1,
        };
        let m = cg.matrix();
        for i in 0..64usize {
            let row = &m.col[m.rowptr[i] as usize..m.rowptr[i + 1] as usize];
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "row {i} not sorted/unique"
            );
            assert!(row.contains(&(i as u32)), "row {i} missing diagonal");
            let (mut diag, mut off) = (0.0f32, 0.0f32);
            for j in m.rowptr[i] as usize..m.rowptr[i + 1] as usize {
                if m.col[j] == i as u32 {
                    diag = m.val[j];
                } else {
                    off += m.val[j].abs();
                }
            }
            assert!(diag > off, "row {i} not diagonally dominant");
        }
    }
}
