//! Cholesky — left-looking column Cholesky factorization with a
//! lock-protected column queue and per-column completion flags
//! (SPLASH-2 Cholesky analogue).
//!
//! Communication patterns (Table I): **Outside critical** (main) — a
//! thread claims a column inside a tiny critical section, but the column
//! data it then consumes was produced *outside* earlier holders' critical
//! sections — plus **Barrier**, **Critical**, and **Flag** (the paper
//! converted Cholesky's busy-waiting to flag synchronization; so do we).

use hic_runtime::ProgramBuilder;
use hic_sim::rng::SplitMix64;

use crate::{App, AppRun, PatternInfo, RunRequest, Scale, SyncPattern};

pub struct Cholesky {
    scale: Scale,
    n: usize,
}

impl Cholesky {
    pub fn new(scale: Scale) -> Cholesky {
        let n = match scale {
            Scale::Test => 16,
            Scale::Small => 40,
            Scale::Medium => 64,
            Scale::Large => 128,
            Scale::Paper => 256, // stands in for tk15.O's factor dimension
        };
        Cholesky { scale, n }
    }

    /// SPD input: A = B·Bᵀ scaled + n·I, generated deterministically.
    fn input(&self) -> Vec<f32> {
        let n = self.n;
        let mut rng = SplitMix64::new(0xC0DE + n as u64);
        let b: Vec<f32> = (0..n * n).map(|_| rng.unit_f32() - 0.5).collect();
        let mut a = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0f32;
                for k in 0..n {
                    s += b[i * n + k] * b[j * n + k];
                }
                a[i * n + j] = s;
                a[j * n + i] = s;
            }
            a[i * n + i] += n as f32;
        }
        a
    }

    /// Host reference: left-looking column Cholesky, same op order.
    fn host_chol(&self, a: &mut [f32]) {
        let n = self.n;
        for k in 0..n {
            for j in 0..k {
                let ajk = a[k * n + j];
                for i in k..n {
                    a[i * n + k] -= a[i * n + j] * ajk;
                }
            }
            let d = a[k * n + k].sqrt();
            a[k * n + k] = d;
            for i in k + 1..n {
                a[i * n + k] /= d;
            }
        }
        // Zero the strictly upper triangle (not part of L).
        for i in 0..n {
            for j in i + 1..n {
                a[i * n + j] = 0.0;
            }
        }
    }
}

impl App for Cholesky {
    fn name(&self) -> &'static str {
        "Cholesky"
    }

    fn patterns(&self) -> PatternInfo {
        PatternInfo::new(
            &[SyncPattern::OutsideCritical],
            &[
                SyncPattern::Barrier,
                SyncPattern::Critical,
                SyncPattern::Flag,
            ],
        )
    }

    fn scale(&self) -> Scale {
        self.scale
    }

    fn run_req(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let n = self.n;
        let input = self.input();

        let mut p = ProgramBuilder::new(config);
        p.apply_request(req);
        let nthreads = p.num_threads();
        // Column-major storage: the column a task owns is contiguous, as
        // in SPLASH-2 Cholesky's panel layout. (Row-major would make every
        // line shared by 16 column owners — pathological false sharing no
        // real code uses.)
        let m = p.alloc((n * n) as u64);
        for i in 0..n {
            for j in 0..n {
                p.init_f32(m, (j * n + i) as u64, input[i * n + j]);
            }
        }
        let next_col = p.alloc(1); // shared queue head
        let queue_lock = p.lock(); // OCC: column data produced outside CS
        let done_flags: Vec<_> = (0..n).map(|_| p.flag()).collect();
        let bar = p.barrier();

        let out = p.run_tasks(nthreads, async move |ctx| {
            ctx.barrier(bar).await;
            let idx = |i: usize, j: usize| (j * n + i) as u64; // column-major
                                                               // Thread-local memo of flags already waited for: once waited,
                                                               // the column is known final and fresh in this cache epoch
                                                               // discipline.
            let mut seen = vec![false; n];
            loop {
                // Claim the next column (critical section, Figure 4b).
                ctx.lock(queue_lock).await;
                let k = ctx.read(next_col, 0).await as usize;
                if k < n {
                    ctx.write(next_col, 0, k as u32 + 1).await;
                }
                ctx.unlock(queue_lock).await;
                if k >= n {
                    break;
                }
                // Left-looking update: consume final columns j < k.
                for j in 0..k {
                    if !seen[j] {
                        ctx.flag_wait(done_flags[j]).await;
                        seen[j] = true;
                    }
                    let ajk = ctx.read_f32(m, idx(k, j)).await;
                    if ajk != 0.0 {
                        for i in k..n {
                            let v = ctx.read_f32(m, idx(i, k)).await
                                - ctx.read_f32(m, idx(i, j)).await * ajk;
                            ctx.write_f32(m, idx(i, k), v).await;
                            ctx.tick(2);
                        }
                    } else {
                        ctx.tick(1);
                    }
                }
                // Scale.
                let d = ctx.read_f32(m, idx(k, k)).await.sqrt();
                ctx.write_f32(m, idx(k, k), d).await;
                for i in k + 1..n {
                    let v = ctx.read_f32(m, idx(i, k)).await / d;
                    ctx.write_f32(m, idx(i, k), v).await;
                    ctx.tick(4);
                }
                // Publish: the flag set performs the WB of the column.
                ctx.flag_set(done_flags[k]).await;
            }
            ctx.barrier(bar).await;
            // Zero upper triangle in parallel (own row chunk).
            let chunk = n.div_ceil(ctx.nthreads());
            let t = ctx.tid();
            for i in t * chunk..((t + 1) * chunk).min(n) {
                for j in i + 1..n {
                    ctx.write_f32(m, idx(i, j), 0.0).await;
                }
            }
            ctx.barrier(bar).await;
        });

        let mut href = self.input();
        self.host_chol(&mut href);
        let mut max_err = 0.0f32;
        for i in 0..n {
            for j in 0..n {
                let got = out.peek_f32(m, (j * n + i) as u64);
                let want = href[i * n + j];
                max_err = max_err.max((got - want).abs() / want.abs().max(1.0));
            }
        }
        AppRun::finish(
            self.name(),
            config,
            &out,
            max_err <= 1e-3,
            format!("n={n}, max rel error {max_err:.2e}"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The host factor must satisfy L * L^T = A.
    #[test]
    fn host_cholesky_reconstructs_the_input() {
        let ch = Cholesky {
            scale: Scale::Test,
            n: 24,
        };
        let a0 = ch.input();
        let mut l = ch.input();
        ch.host_chol(&mut l);
        let n = 24;
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0f64;
                for k in 0..n {
                    s += l[i * n + k] as f64 * l[j * n + k] as f64;
                }
                let want = a0[i * n + j] as f64;
                assert!(
                    (s - want).abs() < 1e-2 * want.abs().max(1.0),
                    "A[{i}][{j}]: L*L^T={s} want {want}"
                );
            }
        }
    }

    /// The factor is lower triangular with a positive diagonal.
    #[test]
    fn host_cholesky_factor_is_lower_triangular() {
        let ch = Cholesky {
            scale: Scale::Test,
            n: 16,
        };
        let mut l = ch.input();
        ch.host_chol(&mut l);
        for i in 0..16 {
            assert!(l[i * 16 + i] > 0.0, "diagonal {i}");
            for j in i + 1..16 {
                assert_eq!(l[i * 16 + j], 0.0, "upper ({i},{j})");
            }
        }
    }
}
