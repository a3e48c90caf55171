//! Water — small molecular-dynamics kernel in the two SPLASH-2 variants:
//!
//! * **Nsquared**: all-pairs Lennard-Jones-ish forces. Each thread
//!   computes partial forces for its slice of pairs into a private
//!   accumulation band, a barrier separates phases, and a per-thread
//!   critical section accumulates the global potential energy — Table I:
//!   **Barrier, Critical** with relatively fine-grained synchronization;
//! * **Spatial**: cell-list decomposition; threads own spatial cells and
//!   interact only with neighbor cells — coarse-grained, barrier-only
//!   (the paper groups Water Spatial with the low-synchronization codes).

use hic_runtime::ProgramBuilder;
use hic_sim::rng::SplitMix64;

use crate::{App, AppRun, PatternInfo, RunRequest, Scale, SyncPattern};

pub struct Water {
    scale: Scale,
    n: usize,
    steps: usize,
    nsquared: bool,
}

impl Water {
    pub fn new(scale: Scale, nsquared: bool) -> Water {
        let (n, steps) = match scale {
            Scale::Test => (24, 1),
            Scale::Small => (48, 2),
            Scale::Medium => (96, 3),
            Scale::Large => (256, 4),
            Scale::Paper => (512, 5), // the paper's 512 molecules
        };
        Water {
            scale,
            n,
            steps,
            nsquared,
        }
    }

    fn positions(&self) -> Vec<(f32, f32, f32)> {
        let mut rng = SplitMix64::new(0x3A7E6 + self.n as u64);
        (0..self.n)
            .map(|_| {
                (
                    rng.unit_f32() * 4.0,
                    rng.unit_f32() * 4.0,
                    rng.unit_f32() * 4.0,
                )
            })
            .collect()
    }

    /// Pair force with a smooth cutoff. Returns (fx, fy, fz, potential).
    fn pair_force(xi: f32, yi: f32, zi: f32, xj: f32, yj: f32, zj: f32) -> (f32, f32, f32, f32) {
        let dx = xj - xi;
        let dy = yj - yi;
        let dz = zj - zi;
        let r2 = dx * dx + dy * dy + dz * dz + 0.01;
        if r2 > 4.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let inv2 = 1.0 / r2;
        let inv6 = inv2 * inv2 * inv2;
        let f = (2.0 * inv6 - 1.0) * inv6 * inv2;
        (f * dx, f * dy, f * dz, inv6 * (inv6 - 1.0))
    }

    /// Which cell a position belongs to (spatial variant), on a
    /// `cells x cells x cells` grid over [0, 4)^3.
    fn cell_of(cells: usize, x: f32, y: f32, z: f32) -> usize {
        let cl = |v: f32| (((v / 4.0) * cells as f32) as usize).min(cells - 1);
        (cl(x) * cells + cl(y)) * cells + cl(z)
    }

    /// Host reference for the nsquared variant, same reduction order.
    fn host_nsq(&self, nthreads: usize) -> (Vec<(f32, f32, f32)>, f32) {
        let n = self.n;
        let mut pos = self.positions();
        let mut pot_total = 0.0f32;
        for _ in 0..self.steps {
            // Partial forces per "thread" slice, then reduce in thread
            // order — mirroring the simulated reduction order exactly.
            let mut partial = vec![vec![(0.0f32, 0.0f32, 0.0f32); n]; nthreads];
            let mut pots = vec![0.0f32; nthreads];
            for t in 0..nthreads {
                let chunk = n.div_ceil(nthreads);
                let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(n));
                for i in lo..hi {
                    for j in 0..n {
                        if i == j {
                            continue;
                        }
                        let (fx, fy, fz, pot) = Self::pair_force(
                            pos[i].0, pos[i].1, pos[i].2, pos[j].0, pos[j].1, pos[j].2,
                        );
                        partial[t][i].0 += fx;
                        partial[t][i].1 += fy;
                        partial[t][i].2 += fz;
                        pots[t] += 0.5 * pot;
                    }
                }
            }
            for t in 0..nthreads {
                pot_total += pots[t];
            }
            // Integrate (forces land only in the owner's partial).
            for t in 0..nthreads {
                let chunk = n.div_ceil(nthreads);
                let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(n));
                for i in lo..hi {
                    pos[i].0 += 0.0001 * partial[t][i].0;
                    pos[i].1 += 0.0001 * partial[t][i].1;
                    pos[i].2 += 0.0001 * partial[t][i].2;
                }
            }
        }
        (pos, pot_total)
    }

    /// Host reference for the spatial variant.
    fn host_spatial(&self, cells: usize) -> Vec<(f32, f32, f32)> {
        let n = self.n;
        let mut pos = self.positions();
        for _ in 0..self.steps {
            // Cell lists (recomputed each step, ordered by molecule id).
            let mut lists = vec![Vec::new(); cells * cells * cells];
            for i in 0..n {
                lists[Self::cell_of(cells, pos[i].0, pos[i].1, pos[i].2)].push(i);
            }
            let mut force = vec![(0.0f32, 0.0f32, 0.0f32); n];
            for i in 0..n {
                let ci = Self::cell_of(cells, pos[i].0, pos[i].1, pos[i].2);
                let (cx, cy, cz) = (ci / (cells * cells), (ci / cells) % cells, ci % cells);
                for dx in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dz in -1i64..=1 {
                            let nx = cx as i64 + dx;
                            let ny = cy as i64 + dy;
                            let nz = cz as i64 + dz;
                            if nx < 0 || ny < 0 || nz < 0 {
                                continue;
                            }
                            let (nx, ny, nz) = (nx as usize, ny as usize, nz as usize);
                            if nx >= cells || ny >= cells || nz >= cells {
                                continue;
                            }
                            for &j in &lists[(nx * cells + ny) * cells + nz] {
                                if j == i {
                                    continue;
                                }
                                let (fx, fy, fz, _) = Self::pair_force(
                                    pos[i].0, pos[i].1, pos[i].2, pos[j].0, pos[j].1, pos[j].2,
                                );
                                force[i].0 += fx;
                                force[i].1 += fy;
                                force[i].2 += fz;
                            }
                        }
                    }
                }
            }
            for i in 0..n {
                pos[i].0 += 0.0001 * force[i].0;
                pos[i].1 += 0.0001 * force[i].1;
                pos[i].2 += 0.0001 * force[i].2;
            }
        }
        pos
    }
}

impl App for Water {
    fn name(&self) -> &'static str {
        if self.nsquared {
            "Water Nsq"
        } else {
            "Water Spatial"
        }
    }

    fn patterns(&self) -> PatternInfo {
        PatternInfo::new(&[SyncPattern::Barrier, SyncPattern::Critical], &[])
    }

    fn scale(&self) -> Scale {
        self.scale
    }

    fn run_req(&self, req: &RunRequest) -> AppRun {
        if self.nsquared {
            self.run_nsq(req)
        } else {
            self.run_spatial(req)
        }
    }
}

impl Water {
    fn run_nsq(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let n = self.n;
        let steps = self.steps;
        let init = self.positions();

        let mut p = ProgramBuilder::new(config);
        p.apply_request(req);
        let nthreads = p.num_threads();
        let (px, py, pz) = (p.alloc(n as u64), p.alloc(n as u64), p.alloc(n as u64));
        // Private per-thread partial-force bands (still in shared memory).
        let fx = p.alloc((n * nthreads) as u64);
        let fy = p.alloc((n * nthreads) as u64);
        let fz = p.alloc((n * nthreads) as u64);
        let pot = p.alloc(1);
        for (i, q) in init.iter().enumerate() {
            p.init_f32(px, i as u64, q.0);
            p.init_f32(py, i as u64, q.1);
            p.init_f32(pz, i as u64, q.2);
        }
        let pot_lock = p.lock_occ(false);
        let bar = p.barrier();

        let out = p.run_tasks(nthreads, async move |ctx| {
            let t = ctx.tid();
            let chunk = n.div_ceil(ctx.nthreads());
            let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(n));
            if t == 0 {
                ctx.write_f32(pot, 0, 0.0).await;
            }
            ctx.barrier(bar).await;
            for _ in 0..steps {
                // Phase 1: partial forces for own molecules.
                let mut local_pot = 0.0f32;
                for i in lo..hi {
                    let (xi, yi, zi) = (
                        ctx.read_f32(px, i as u64).await,
                        ctx.read_f32(py, i as u64).await,
                        ctx.read_f32(pz, i as u64).await,
                    );
                    let (mut ax, mut ay, mut az) = (0.0f32, 0.0f32, 0.0f32);
                    for j in 0..n {
                        if i == j {
                            continue;
                        }
                        let (xj, yj, zj) = (
                            ctx.read_f32(px, j as u64).await,
                            ctx.read_f32(py, j as u64).await,
                            ctx.read_f32(pz, j as u64).await,
                        );
                        let (dfx, dfy, dfz, dp) = Water::pair_force(xi, yi, zi, xj, yj, zj);
                        ax += dfx;
                        ay += dfy;
                        az += dfz;
                        local_pot += 0.5 * dp;
                        ctx.tick(10);
                    }
                    ctx.write_f32(fx, (t * n + i) as u64, ax).await;
                    ctx.write_f32(fy, (t * n + i) as u64, ay).await;
                    ctx.write_f32(fz, (t * n + i) as u64, az).await;
                }
                // Potential-energy reduction (critical section). The
                // grant order is deterministic (request order), and the
                // host mirrors the same order-insensitive... rather:
                // addition order here IS thread order because each thread
                // adds once and f32 addition is not associative — the
                // deterministic scheduler makes this reproducible, and
                // the host sums in thread order which matches the FIFO
                // grant order of the controller under one barrier phase.
                ctx.lock(pot_lock).await;
                let g = ctx.read_f32(pot, 0).await;
                ctx.write_f32(pot, 0, g + local_pot).await;
                ctx.unlock(pot_lock).await;
                ctx.barrier(bar).await;
                // Phase 2: integrate own molecules from own partials.
                for i in lo..hi {
                    let ax = ctx.read_f32(fx, (t * n + i) as u64).await;
                    let ay = ctx.read_f32(fy, (t * n + i) as u64).await;
                    let az = ctx.read_f32(fz, (t * n + i) as u64).await;
                    let nx = ctx.read_f32(px, i as u64).await + 0.0001 * ax;
                    let ny = ctx.read_f32(py, i as u64).await + 0.0001 * ay;
                    let nz = ctx.read_f32(pz, i as u64).await + 0.0001 * az;
                    ctx.write_f32(px, i as u64, nx).await;
                    ctx.write_f32(py, i as u64, ny).await;
                    ctx.write_f32(pz, i as u64, nz).await;
                    ctx.tick(6);
                }
                ctx.barrier(bar).await;
            }
        });

        let (want, want_pot) = self.host_nsq(nthreads);
        let mut max_err = 0.0f32;
        for i in 0..n {
            max_err = max_err.max((out.peek_f32(px, i as u64) - want[i].0).abs());
            max_err = max_err.max((out.peek_f32(py, i as u64) - want[i].1).abs());
            max_err = max_err.max((out.peek_f32(pz, i as u64) - want[i].2).abs());
        }
        let got_pot = out.peek_f32(pot, 0);
        let pot_err = (got_pot - want_pot).abs() / want_pot.abs().max(1.0);
        AppRun::finish(
            self.name(),
            config,
            &out,
            max_err <= 1e-4 && pot_err <= 1e-3,
            format!("n={n}, {steps} steps, pos err {max_err:.2e}, potential err {pot_err:.2e}"),
        )
    }

    fn run_spatial(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let n = self.n;
        let steps = self.steps;
        let cells = 4usize;
        let init = self.positions();

        let mut p = ProgramBuilder::new(config);
        p.apply_request(req);
        let nthreads = p.num_threads();
        let (px, py, pz) = (p.alloc(n as u64), p.alloc(n as u64), p.alloc(n as u64));
        let (gx, gy, gz) = (p.alloc(n as u64), p.alloc(n as u64), p.alloc(n as u64));
        for (i, q) in init.iter().enumerate() {
            p.init_f32(px, i as u64, q.0);
            p.init_f32(py, i as u64, q.1);
            p.init_f32(pz, i as u64, q.2);
        }
        let bar = p.barrier();

        let out = p.run_tasks(nthreads, async move |ctx| {
            let t = ctx.tid();
            let chunk = n.div_ceil(ctx.nthreads());
            let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(n));
            for _ in 0..steps {
                // Rebuild the cell lists locally from (fresh) positions:
                // reading all positions once per step is the spatial
                // method's coarse communication.
                let mut pos = Vec::with_capacity(n);
                for j in 0..n {
                    pos.push((
                        ctx.read_f32(px, j as u64).await,
                        ctx.read_f32(py, j as u64).await,
                        ctx.read_f32(pz, j as u64).await,
                    ));
                    ctx.tick(1);
                }
                let mut lists = vec![Vec::new(); cells * cells * cells];
                for (j, q) in pos.iter().enumerate() {
                    lists[Water::cell_of(cells, q.0, q.1, q.2)].push(j);
                }
                for i in lo..hi {
                    let (xi, yi, zi) = pos[i];
                    let ci = Water::cell_of(cells, xi, yi, zi);
                    let (cx, cy, cz) = (ci / (cells * cells), (ci / cells) % cells, ci % cells);
                    let (mut ax, mut ay, mut az) = (0.0f32, 0.0f32, 0.0f32);
                    for dx in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dz in -1i64..=1 {
                                let nx = cx as i64 + dx;
                                let ny = cy as i64 + dy;
                                let nz = cz as i64 + dz;
                                if nx < 0 || ny < 0 || nz < 0 {
                                    continue;
                                }
                                let (nx, ny, nz) = (nx as usize, ny as usize, nz as usize);
                                if nx >= cells || ny >= cells || nz >= cells {
                                    continue;
                                }
                                for &j in &lists[(nx * cells + ny) * cells + nz] {
                                    if j == i {
                                        continue;
                                    }
                                    let (dfx, dfy, dfz, _) =
                                        Water::pair_force(xi, yi, zi, pos[j].0, pos[j].1, pos[j].2);
                                    ax += dfx;
                                    ay += dfy;
                                    az += dfz;
                                    ctx.tick(10);
                                }
                            }
                        }
                    }
                    ctx.write_f32(gx, i as u64, ax).await;
                    ctx.write_f32(gy, i as u64, ay).await;
                    ctx.write_f32(gz, i as u64, az).await;
                }
                ctx.barrier(bar).await;
                for i in lo..hi {
                    let ax = ctx.read_f32(gx, i as u64).await;
                    let ay = ctx.read_f32(gy, i as u64).await;
                    let az = ctx.read_f32(gz, i as u64).await;
                    let nx = ctx.read_f32(px, i as u64).await + 0.0001 * ax;
                    let ny = ctx.read_f32(py, i as u64).await + 0.0001 * ay;
                    let nz = ctx.read_f32(pz, i as u64).await + 0.0001 * az;
                    ctx.write_f32(px, i as u64, nx).await;
                    ctx.write_f32(py, i as u64, ny).await;
                    ctx.write_f32(pz, i as u64, nz).await;
                    ctx.tick(6);
                }
                ctx.barrier(bar).await;
            }
        });

        let want = self.host_spatial(cells);
        let mut max_err = 0.0f32;
        for i in 0..n {
            max_err = max_err.max((out.peek_f32(px, i as u64) - want[i].0).abs());
            max_err = max_err.max((out.peek_f32(py, i as u64) - want[i].1).abs());
            max_err = max_err.max((out.peek_f32(pz, i as u64) - want[i].2).abs());
        }
        AppRun::finish(
            self.name(),
            config,
            &out,
            max_err <= 1e-4,
            format!("n={n}, {steps} steps, cells {cells}^3, pos err {max_err:.2e}"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pair forces are antisymmetric: F(i<-j) = -F(j<-i), so the total
    /// force over all pairs (hence momentum drift per step) is ~zero.
    #[test]
    fn pair_forces_are_antisymmetric() {
        let w = Water::new(Scale::Test, true);
        let ps = w.positions();
        for i in 0..ps.len() {
            for j in 0..ps.len() {
                if i == j {
                    continue;
                }
                let (fx, fy, fz, pe) =
                    Water::pair_force(ps[i].0, ps[i].1, ps[i].2, ps[j].0, ps[j].1, ps[j].2);
                let (gx, gy, gz, qe) =
                    Water::pair_force(ps[j].0, ps[j].1, ps[j].2, ps[i].0, ps[i].1, ps[i].2);
                assert!((fx + gx).abs() < 1e-4 && (fy + gy).abs() < 1e-4 && (fz + gz).abs() < 1e-4);
                assert!((pe - qe).abs() < 1e-6, "potential must be symmetric");
            }
        }
    }

    /// The force cutoff really cuts: distant molecules contribute nothing.
    #[test]
    fn cutoff_zeroes_distant_pairs() {
        let (fx, fy, fz, pe) = Water::pair_force(0.0, 0.0, 0.0, 10.0, 0.0, 0.0);
        assert_eq!((fx, fy, fz, pe), (0.0, 0.0, 0.0, 0.0));
    }

    /// Cell assignment stays in range for any position in the domain.
    #[test]
    fn cell_of_is_total_over_the_domain() {
        for cells in [2usize, 4, 8] {
            for x in [0.0f32, 1.0, 3.999, 4.0 - f32::EPSILON] {
                let c = Water::cell_of(cells, x, x, x);
                assert!(c < cells * cells * cells);
            }
        }
    }
}
