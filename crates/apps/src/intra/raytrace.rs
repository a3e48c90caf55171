//! Raytrace — sphere-scene ray caster with a central job queue
//! (SPLASH-2 Raytrace analogue).
//!
//! Work is distributed in image tiles through a lock-protected queue:
//! frequent, tiny critical sections — the paper calls out Raytrace's
//! "frequent lock accesses in a set of job queues" as the reason it
//! suffers most under Base. A benign **data race** on a global progress
//! counter is enforced with per-word WB/INV (Figure 6), mirroring the
//! Table I classification: main **Critical**, other **Barrier, Data
//! race**.

use hic_runtime::ProgramBuilder;
use hic_sim::rng::SplitMix64;

use crate::{App, AppRun, PatternInfo, RunRequest, Scale, SyncPattern};

/// Sphere record: cx, cy, cz, r, shade (5 words).
const SPHERE_WORDS: u64 = 5;

pub struct Raytrace {
    scale: Scale,
    width: usize,
    height: usize,
    tile: usize,
    nspheres: usize,
}

impl Raytrace {
    pub fn new(scale: Scale) -> Raytrace {
        let (w, ns) = match scale {
            Scale::Test => (16, 4),
            Scale::Small => (64, 8),
            Scale::Medium => (128, 12),
            Scale::Large => (256, 16),
            Scale::Paper => (512, 32), // stands in for the teapot scene
        };
        Raytrace {
            scale,
            width: w,
            height: w,
            tile: 4,
            nspheres: ns,
        }
    }

    fn scene(&self) -> Vec<[f32; 5]> {
        let mut rng = SplitMix64::new(0x7EA907);
        (0..self.nspheres)
            .map(|_| {
                [
                    rng.unit_f32() * 2.0 - 1.0,
                    rng.unit_f32() * 2.0 - 1.0,
                    1.5 + rng.unit_f32() * 2.0,
                    0.2 + rng.unit_f32() * 0.3,
                    0.2 + rng.unit_f32() * 0.8,
                ]
            })
            .collect()
    }

    /// Shade of the pixel ray through (px, py): nearest-hit Lambert-ish.
    fn shade(scene: &[[f32; 5]], px: f32, py: f32) -> f32 {
        // Ray from origin through the image plane at z=1.
        let (dx, dy, dz) = (px, py, 1.0f32);
        let norm = (dx * dx + dy * dy + dz * dz).sqrt();
        let (dx, dy, dz) = (dx / norm, dy / norm, dz / norm);
        let mut best_t = f32::INFINITY;
        let mut best_shade = 0.0f32;
        for s in scene {
            let (cx, cy, cz, r, sh) = (s[0], s[1], s[2], s[3], s[4]);
            // |o + t d - c|^2 = r^2 with o = 0.
            let b = dx * cx + dy * cy + dz * cz;
            let c = cx * cx + cy * cy + cz * cz - r * r;
            let disc = b * b - c;
            if disc > 0.0 {
                let t = b - disc.sqrt();
                if t > 0.0 && t < best_t {
                    best_t = t;
                    // Cheap shading: depth-attenuated sphere shade.
                    best_shade = sh / (1.0 + 0.2 * t);
                }
            }
        }
        best_shade
    }

    fn host_render(&self, scene: &[[f32; 5]]) -> Vec<f32> {
        let mut img = vec![0.0f32; self.width * self.height];
        for y in 0..self.height {
            for x in 0..self.width {
                let px = (x as f32 + 0.5) / self.width as f32 * 2.0 - 1.0;
                let py = (y as f32 + 0.5) / self.height as f32 * 2.0 - 1.0;
                img[y * self.width + x] = Self::shade(scene, px, py);
            }
        }
        img
    }
}

impl App for Raytrace {
    fn name(&self) -> &'static str {
        "Raytrace"
    }

    fn patterns(&self) -> PatternInfo {
        PatternInfo::new(
            &[SyncPattern::Critical],
            &[SyncPattern::Barrier, SyncPattern::DataRace],
        )
    }

    fn scale(&self) -> Scale {
        self.scale
    }

    fn run_req(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let (w, h, tile) = (self.width, self.height, self.tile);
        let ns = self.nspheres;
        let scene = self.scene();
        let tiles_x = w / tile;
        let tiles_y = h / tile;
        let njobs = tiles_x * tiles_y;

        let mut p = ProgramBuilder::new(config);
        p.apply_request(req);
        let nthreads = p.num_threads();
        let spheres = p.alloc(ns as u64 * SPHERE_WORDS);
        let image = p.alloc((w * h) as u64);
        let next_job = p.alloc(1);
        let progress = p.alloc(1); // racy counter
        for (i, s) in scene.iter().enumerate() {
            for (k, v) in s.iter().enumerate() {
                p.init_f32(spheres, i as u64 * SPHERE_WORDS + k as u64, *v);
            }
        }
        // Job payloads are not communicated through the queue (the scene
        // is read-only): no outside-critical communication.
        let queue_lock = p.lock_occ(false);
        let bar = p.barrier();

        let out = p.run_tasks(nthreads, async move |ctx| {
            ctx.barrier(bar).await;
            loop {
                // Tiny critical section: claim a tile.
                ctx.lock(queue_lock).await;
                let job = ctx.read(next_job, 0).await as usize;
                if job < njobs {
                    ctx.write(next_job, 0, job as u32 + 1).await;
                }
                ctx.unlock(queue_lock).await;
                if job >= njobs {
                    break;
                }
                let ty = job / tiles_x;
                let tx = job % tiles_x;
                // Load the scene (L1-resident after the first tile).
                let mut local_scene = Vec::with_capacity(ns);
                for i in 0..ns as u64 {
                    let mut s = [0.0f32; 5];
                    for (k, slot) in s.iter_mut().enumerate() {
                        *slot = ctx.read_f32(spheres, i * SPHERE_WORDS + k as u64).await;
                    }
                    local_scene.push(s);
                }
                for dy in 0..tile {
                    for dx in 0..tile {
                        let x = tx * tile + dx;
                        let y = ty * tile + dy;
                        let px = (x as f32 + 0.5) / w as f32 * 2.0 - 1.0;
                        let py = (y as f32 + 0.5) / h as f32 * 2.0 - 1.0;
                        let v = Raytrace::shade(&local_scene, px, py);
                        // Tile-major framebuffer: a tile's pixels are
                        // contiguous, so tiles owned by different threads
                        // never share cache lines (as real renderers lay
                        // out their buffers).
                        let idx = job * tile * tile + dy * tile + dx;
                        ctx.write_f32(image, idx as u64, v).await;
                        ctx.tick(8 + 6 * ns as u64);
                    }
                }
                // Benign racy progress counter (Figure 6 enforcement):
                // increments may still be lost to interleaving, which is
                // acceptable for a progress display — the point is that
                // the *memory update* itself becomes visible.
                let seen = ctx.racy_load(progress.at(0)).await;
                ctx.racy_store(progress.at(0), seen + tile as u32 * tile as u32)
                    .await;
            }
            ctx.barrier(bar).await;
        });

        let want = self.host_render(&scene);
        let mut max_err = 0.0f32;
        for y in 0..h {
            for x in 0..w {
                let (ty, tx) = (y / tile, x / tile);
                let job = ty * tiles_x + tx;
                let idx = job * tile * tile + (y % tile) * tile + (x % tile);
                let got = out.peek_f32(image, idx as u64);
                max_err = max_err.max((got - want[y * w + x]).abs());
            }
        }
        // The racy counter must be visible and nonzero (its exact value is
        // racy by design).
        let progress_seen = out.peek(progress, 0);
        AppRun::finish(
            self.name(),
            config,
            &out,
            max_err <= 1e-4 && progress_seen > 0,
            format!(
                "{w}x{h}, {njobs} tile jobs, max pixel error {max_err:.2e}, progress {progress_seen}"
            ),
        )
    }
}
