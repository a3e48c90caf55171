//! LU — blocked dense LU factorization without pivoting (SPLASH-2 LU
//! analogue), in both layouts the paper runs:
//!
//! * **contiguous**: each B x B block is stored contiguously and
//!   line-aligned, so blocks owned by different threads never share cache
//!   lines;
//! * **non-contiguous**: the matrix is plain row-major, so a block's rows
//!   are strided and adjacent blocks share lines (false-sharing prone).
//!
//! Communication pattern (Table I): **Barrier** only — the three phases
//! of step k (diagonal factorization, perimeter update, interior update)
//! are separated by global barriers.

use hic_mem::Region;
use hic_runtime::{ProgramBuilder, ThreadCtx};
use hic_sim::rng::SplitMix64;

use crate::{App, AppRun, PatternInfo, RunRequest, Scale, SyncPattern};

pub struct Lu {
    scale: Scale,
    n: usize,
    b: usize,
    contiguous: bool,
}

/// Index of element (i, j) in the chosen layout.
#[derive(Clone, Copy)]
struct Layout {
    n: usize,
    b: usize,
    contiguous: bool,
}

impl Layout {
    #[inline]
    fn idx(&self, i: usize, j: usize) -> u64 {
        if self.contiguous {
            let nb = self.n / self.b;
            let (bi, bj) = (i / self.b, j / self.b);
            let base = (bi * nb + bj) * self.b * self.b;
            (base + (i % self.b) * self.b + (j % self.b)) as u64
        } else {
            (i * self.n + j) as u64
        }
    }
}

impl Lu {
    pub fn new(scale: Scale, contiguous: bool) -> Lu {
        let (n, b) = match scale {
            Scale::Test => (16, 4),
            // B = 16 matches SPLASH-2: one block row = one 64-byte line,
            // so the non-contiguous layout differs in locality, not in
            // artificial false sharing.
            Scale::Small => (64, 16),
            Scale::Medium => (128, 16),
            Scale::Large => (256, 16),
            Scale::Paper => (512, 16), // the paper's 512x512
        };
        Lu {
            scale,
            n,
            b,
            contiguous,
        }
    }

    fn input(&self) -> Vec<f32> {
        let n = self.n;
        let mut rng = SplitMix64::new(0x1u64 + n as u64);
        let mut a = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = rng.unit_f32();
            }
            a[i * n + i] += n as f32; // diagonal dominance: stable, no pivot
        }
        a
    }

    /// Host reference: the same blocked algorithm, same operation order.
    fn host_lu(&self, a: &mut [f32]) {
        let (n, b) = (self.n, self.b);
        let nb = n / b;
        let at = |a: &[f32], i: usize, j: usize| a[i * n + j];
        for k in 0..nb {
            // Diagonal block.
            for c in k * b..(k + 1) * b {
                for r in c + 1..(k + 1) * b {
                    a[r * n + c] /= at(a, c, c);
                }
                for r in c + 1..(k + 1) * b {
                    for cc in c + 1..(k + 1) * b {
                        a[r * n + cc] -= at(a, r, c) * at(a, c, cc);
                    }
                }
            }
            // Perimeter: row blocks (k, j).
            for j in k + 1..nb {
                for c in k * b..(k + 1) * b {
                    for r in c + 1..(k + 1) * b {
                        for cc in j * b..(j + 1) * b {
                            a[r * n + cc] -= at(a, r, c) * at(a, c, cc);
                        }
                    }
                }
            }
            // Perimeter: column blocks (i, k).
            for i in k + 1..nb {
                for c in k * b..(k + 1) * b {
                    for r in i * b..(i + 1) * b {
                        a[r * n + c] /= at(a, c, c);
                    }
                    for r in i * b..(i + 1) * b {
                        for cc in c + 1..(k + 1) * b {
                            a[r * n + cc] -= at(a, r, c) * at(a, c, cc);
                        }
                    }
                }
            }
            // Interior.
            for i in k + 1..nb {
                for j in k + 1..nb {
                    for r in i * b..(i + 1) * b {
                        for c in k * b..(k + 1) * b {
                            let l = at(a, r, c);
                            for cc in j * b..(j + 1) * b {
                                a[r * n + cc] -= l * at(a, c, cc);
                            }
                        }
                    }
                }
            }
        }
    }

    /// 2D-scatter block ownership, as in SPLASH-2 LU.
    fn owner(nb: usize, nthreads: usize, bi: usize, bj: usize) -> usize {
        let _ = nb;
        let pr = (nthreads as f64).sqrt() as usize;
        let pr = pr.max(1);
        let pc = nthreads / pr;
        (bi % pr) * pc + (bj % pc)
    }
}

/// Simulated-side element helpers.
async fn get(ctx: &ThreadCtx, m: Region, l: Layout, i: usize, j: usize) -> f32 {
    ctx.read_f32(m, l.idx(i, j)).await
}

async fn put(ctx: &ThreadCtx, m: Region, l: Layout, i: usize, j: usize, v: f32) {
    ctx.write_f32(m, l.idx(i, j), v).await;
}

impl App for Lu {
    fn name(&self) -> &'static str {
        if self.contiguous {
            "LU cont"
        } else {
            "LU non-cont"
        }
    }

    fn scale(&self) -> Scale {
        self.scale
    }

    fn patterns(&self) -> PatternInfo {
        PatternInfo::new(&[SyncPattern::Barrier], &[])
    }

    fn run_req(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let (n, b) = (self.n, self.b);
        let nb = n / b;
        let layout = Layout {
            n,
            b,
            contiguous: self.contiguous,
        };
        let input = self.input();

        let mut p = ProgramBuilder::new(config);
        p.apply_request(req);
        let nthreads = p.num_threads();
        let m = p.alloc((n * n) as u64);
        for i in 0..n {
            for j in 0..n {
                p.init_f32(m, layout.idx(i, j), input[i * n + j]);
            }
        }
        let bar = p.barrier();

        let out = p.run_tasks(nthreads, async move |ctx| {
            let t = ctx.tid();
            for k in 0..nb {
                // Phase 1: diagonal block factorization by its owner.
                if Lu::owner(nb, nthreads, k, k) == t {
                    for c in k * b..(k + 1) * b {
                        let pivot = get(ctx, m, layout, c, c).await;
                        for r in c + 1..(k + 1) * b {
                            let v = get(ctx, m, layout, r, c).await / pivot;
                            put(ctx, m, layout, r, c, v).await;
                            ctx.tick(4);
                        }
                        for r in c + 1..(k + 1) * b {
                            let l = get(ctx, m, layout, r, c).await;
                            for cc in c + 1..(k + 1) * b {
                                let v = get(ctx, m, layout, r, cc).await
                                    - l * get(ctx, m, layout, c, cc).await;
                                put(ctx, m, layout, r, cc, v).await;
                                ctx.tick(2);
                            }
                        }
                    }
                }
                ctx.barrier(bar).await;
                // Phase 2: perimeter updates.
                for j in k + 1..nb {
                    if Lu::owner(nb, nthreads, k, j) == t {
                        for c in k * b..(k + 1) * b {
                            for r in c + 1..(k + 1) * b {
                                let l = get(ctx, m, layout, r, c).await;
                                for cc in j * b..(j + 1) * b {
                                    let v = get(ctx, m, layout, r, cc).await
                                        - l * get(ctx, m, layout, c, cc).await;
                                    put(ctx, m, layout, r, cc, v).await;
                                    ctx.tick(2);
                                }
                            }
                        }
                    }
                }
                for i in k + 1..nb {
                    if Lu::owner(nb, nthreads, i, k) == t {
                        for c in k * b..(k + 1) * b {
                            let pivot = get(ctx, m, layout, c, c).await;
                            for r in i * b..(i + 1) * b {
                                let v = get(ctx, m, layout, r, c).await / pivot;
                                put(ctx, m, layout, r, c, v).await;
                                ctx.tick(4);
                            }
                            for r in i * b..(i + 1) * b {
                                let l = get(ctx, m, layout, r, c).await;
                                for cc in c + 1..(k + 1) * b {
                                    let v = get(ctx, m, layout, r, cc).await
                                        - l * get(ctx, m, layout, c, cc).await;
                                    put(ctx, m, layout, r, cc, v).await;
                                    ctx.tick(2);
                                }
                            }
                        }
                    }
                }
                ctx.barrier(bar).await;
                // Phase 3: interior updates.
                for i in k + 1..nb {
                    for j in k + 1..nb {
                        if Lu::owner(nb, nthreads, i, j) == t {
                            for r in i * b..(i + 1) * b {
                                for c in k * b..(k + 1) * b {
                                    let l = get(ctx, m, layout, r, c).await;
                                    for cc in j * b..(j + 1) * b {
                                        let v = get(ctx, m, layout, r, cc).await
                                            - l * get(ctx, m, layout, c, cc).await;
                                        put(ctx, m, layout, r, cc, v).await;
                                        ctx.tick(2);
                                    }
                                }
                            }
                        }
                    }
                }
                ctx.barrier(bar).await;
            }
        });

        let mut href = self.input();
        self.host_lu(&mut href);
        let mut max_err = 0.0f32;
        for i in 0..n {
            for j in 0..n {
                let got = out.peek_f32(m, layout.idx(i, j));
                let want = href[i * n + j];
                max_err = max_err.max((got - want).abs() / want.abs().max(1.0));
            }
        }
        AppRun::finish(
            self.name(),
            config,
            &out,
            max_err <= 1e-3,
            format!("n={n}, b={b}, max rel error {max_err:.2e}"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The host LU must satisfy L * U = A (the factorization identity),
    /// validating the reference the simulated runs are compared against.
    #[test]
    fn host_lu_reconstructs_the_input() {
        let lu = Lu {
            scale: Scale::Test,
            n: 32,
            b: 8,
            contiguous: true,
        };
        let a0 = lu.input();
        let mut f = a0.clone();
        lu.host_lu(&mut f);
        let n = 32;
        for i in 0..n {
            for j in 0..n {
                // (L*U)[i][j] with L unit-lower, U upper from the packed f.
                let mut s = 0.0f64;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { f[i * n + k] as f64 };
                    let u = f[k * n + j] as f64;
                    s += l * u;
                }
                let want = a0[i * n + j] as f64;
                assert!(
                    (s - want).abs() < 1e-2 * want.abs().max(1.0),
                    "A[{i}][{j}]: L*U={s} want {want}"
                );
            }
        }
    }

    /// Both layouts address every element exactly once (bijectivity).
    #[test]
    fn layouts_are_bijective() {
        for contiguous in [true, false] {
            let l = Layout {
                n: 16,
                b: 4,
                contiguous,
            };
            let mut seen = std::collections::HashSet::new();
            for i in 0..16 {
                for j in 0..16 {
                    assert!(seen.insert(l.idx(i, j)), "collision at ({i},{j})");
                    assert!(l.idx(i, j) < 256);
                }
            }
        }
    }
}
