//! Ocean — 2D grid relaxation with barrier phases and a lock-protected
//! global residual reduction (SPLASH-2 Ocean analogue), in the two
//! layouts the paper runs:
//!
//! * **contiguous**: the grid's row pitch is padded to a cache-line
//!   multiple, so different threads' row bands never share lines;
//! * **non-contiguous**: an unpadded pitch makes band-boundary rows share
//!   lines across threads (false-sharing prone in coherent machines,
//!   harmless-but-chatty in incoherent ones).
//!
//! Table I: main **Barrier, Critical**.

use hic_runtime::ProgramBuilder;
use hic_sim::rng::SplitMix64;

use crate::{App, AppRun, PatternInfo, RunRequest, Scale, SyncPattern};

pub struct Ocean {
    scale: Scale,
    rows: usize,
    cols: usize,
    iters: usize,
    contiguous: bool,
}

impl Ocean {
    pub fn new(scale: Scale, contiguous: bool) -> Ocean {
        let (rows, cols, iters) = match scale {
            Scale::Test => (18, 10, 2),
            Scale::Small => (34, 18, 4),
            Scale::Medium => (66, 34, 6),
            Scale::Large => (130, 66, 10),
            Scale::Paper => (258, 258, 20), // the paper's 258x258
        };
        Ocean {
            scale,
            rows,
            cols,
            iters,
            contiguous,
        }
    }

    /// Row pitch in words: padded to a full line for the contiguous
    /// layout, exactly `cols` otherwise.
    fn pitch(&self) -> usize {
        if self.contiguous {
            self.cols.next_multiple_of(16)
        } else {
            self.cols
        }
    }

    fn input(&self) -> Vec<f32> {
        let mut rng = SplitMix64::new(0x0CEA + self.rows as u64);
        (0..self.rows * self.cols).map(|_| rng.unit_f32()).collect()
    }

    /// Host reference: Jacobi sweeps with the same op order; returns the
    /// final grid and the per-iteration global residuals.
    fn host(&self) -> (Vec<f32>, Vec<f32>) {
        let (r, c) = (self.rows, self.cols);
        let mut a = self.input();
        let mut b = a.clone();
        let mut residuals = Vec::new();
        for _ in 0..self.iters {
            let mut maxdiff = 0.0f32;
            for i in 1..r - 1 {
                for j in 1..c - 1 {
                    let v = 0.25
                        * (a[(i - 1) * c + j]
                            + a[(i + 1) * c + j]
                            + a[i * c + j - 1]
                            + a[i * c + j + 1]);
                    b[i * c + j] = v;
                    maxdiff = maxdiff.max((v - a[i * c + j]).abs());
                }
            }
            residuals.push(maxdiff);
            std::mem::swap(&mut a, &mut b);
        }
        (a, residuals)
    }
}

impl App for Ocean {
    fn name(&self) -> &'static str {
        if self.contiguous {
            "Ocean cont"
        } else {
            "Ocean non-cont"
        }
    }

    fn patterns(&self) -> PatternInfo {
        PatternInfo::new(&[SyncPattern::Barrier, SyncPattern::Critical], &[])
    }

    fn scale(&self) -> Scale {
        self.scale
    }

    fn run_req(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let (r, c, iters) = (self.rows, self.cols, self.iters);
        let pitch = self.pitch();
        let input = self.input();

        let mut p = ProgramBuilder::new(config);
        p.apply_request(req);
        let nthreads = p.num_threads();
        // Two grids; packed allocation so the non-contiguous layout really
        // shares lines at band boundaries.
        let ga = p.alloc_packed((r * pitch) as u64);
        let gb = p.alloc_packed((r * pitch) as u64);
        let residual = p.alloc(1);
        for i in 0..r {
            for j in 0..c {
                p.init_f32(ga, (i * pitch + j) as u64, input[i * c + j]);
                p.init_f32(gb, (i * pitch + j) as u64, input[i * c + j]);
            }
        }
        let red_lock = p.lock_occ(false);
        let bar = p.barrier();

        let out = p.run_tasks(nthreads, async move |ctx| {
            let t = ctx.tid();
            // Interior rows are banded across threads.
            let interior = r - 2;
            let band = interior.div_ceil(ctx.nthreads());
            let (lo, hi) = (1 + t * band, (1 + (t + 1) * band).min(r - 1));
            let grids = [ga, gb];
            for it in 0..iters {
                if t == 0 {
                    ctx.write_f32(residual, 0, 0.0).await;
                }
                ctx.barrier(bar).await;
                let src = grids[it % 2];
                let dst = grids[(it + 1) % 2];
                let mut local_max = 0.0f32;
                for i in lo..hi {
                    for j in 1..c - 1 {
                        let up = ctx.read_f32(src, ((i - 1) * pitch + j) as u64).await;
                        let dn = ctx.read_f32(src, ((i + 1) * pitch + j) as u64).await;
                        let lf = ctx.read_f32(src, (i * pitch + j - 1) as u64).await;
                        let rt = ctx.read_f32(src, (i * pitch + j + 1) as u64).await;
                        let old = ctx.read_f32(src, (i * pitch + j) as u64).await;
                        let v = 0.25 * (up + dn + lf + rt);
                        ctx.write_f32(dst, (i * pitch + j) as u64, v).await;
                        local_max = local_max.max((v - old).abs());
                        ctx.tick(6);
                    }
                }
                // Global residual reduction in a critical section.
                ctx.lock(red_lock).await;
                let g = ctx.read_f32(residual, 0).await;
                if local_max > g {
                    ctx.write_f32(residual, 0, local_max).await;
                }
                ctx.unlock(red_lock).await;
                ctx.barrier(bar).await;
            }
        });

        let (want, residuals) = self.host();
        let final_grid = if iters % 2 == 0 { ga } else { gb };
        let mut max_err = 0.0f32;
        for i in 0..r {
            for j in 0..c {
                let got = out.peek_f32(final_grid, (i * pitch + j) as u64);
                max_err = max_err.max((got - want[i * c + j]).abs());
            }
        }
        // The last residual must also match (reduction correctness).
        let got_res = out.peek_f32(residual, 0);
        let res_err = (got_res - residuals[iters - 1]).abs();
        AppRun::finish(
            self.name(),
            config,
            &out,
            max_err <= 1e-5 && res_err <= 1e-5,
            format!(
                "{r}x{c} (pitch {pitch}), {iters} iters, grid err {max_err:.2e}, residual err {res_err:.2e}"
            ),
        )
    }
}
