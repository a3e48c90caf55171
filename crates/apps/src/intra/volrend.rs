//! Volrend — volume ray casting with a scanline task queue
//! (SPLASH-2 Volrend analogue).
//!
//! Two frames are rendered with different opacity transfer settings; a
//! global barrier separates the frames, and within a frame scanline jobs
//! come from a lock-protected queue. The queue head for the next frame is
//! reset by thread 0 *outside* a critical section and consumed by other
//! threads after their own queue operations — the **Outside critical**
//! pattern. Table I: main **Barrier, Outside critical**.

use hic_runtime::ProgramBuilder;

use crate::{App, AppRun, PatternInfo, RunRequest, Scale, SyncPattern};

pub struct Volrend {
    scale: Scale,
    /// Volume is `n x n x n` density samples.
    n: usize,
    /// Image is `w x w`.
    w: usize,
}

impl Volrend {
    pub fn new(scale: Scale) -> Volrend {
        let (n, w) = match scale {
            Scale::Test => (8, 12),
            Scale::Small => (16, 28),
            Scale::Medium => (32, 64),
            Scale::Large => (64, 128),
            Scale::Paper => (128, 256), // stands in for the "head" dataset
        };
        Volrend { scale, n, w }
    }

    /// Synthetic density volume: a soft sphere plus a diagonal ramp.
    fn density(n: usize, x: usize, y: usize, z: usize) -> f32 {
        let c = (n as f32 - 1.0) / 2.0;
        let dx = (x as f32 - c) / c;
        let dy = (y as f32 - c) / c;
        let dz = (z as f32 - c) / c;
        let r2 = dx * dx + dy * dy + dz * dz;
        let sphere = (1.0 - r2).max(0.0);
        sphere * 0.8 + 0.05 * ((x + y + z) as f32 / (3.0 * n as f32))
    }

    fn host_render(&self, opacity: f32) -> Vec<f32> {
        let n = self.n;
        let mut img = vec![0.0f32; self.w * self.w];
        for iy in 0..self.w {
            for ix in 0..self.w {
                let mut ray = Ray::new(n, self.w, ix, iy);
                for z in 0..n {
                    if !ray.step(Self::density(n, ray.x, ray.y, z), z, n, opacity) {
                        break;
                    }
                }
                img[iy * self.w + ix] = ray.light;
            }
        }
        img
    }
}

/// One ray's front-to-back compositing state. The orthographic ray
/// through image pixel (ix, iy) samples volume column `(x, y)` along z;
/// the host reference and the simulated kernel feed it the same samples
/// through [`Ray::step`].
struct Ray {
    x: usize,
    y: usize,
    transmittance: f32,
    light: f32,
}

impl Ray {
    fn new(n: usize, w: usize, ix: usize, iy: usize) -> Ray {
        // Nearest-sample orthographic ray along z.
        Ray {
            x: ((ix * n) / w).min(n - 1),
            y: ((iy * n) / w).min(n - 1),
            transmittance: 1.0,
            light: 0.0,
        }
    }

    /// Composite sample `z` (density `d`) of an `n`-deep volume for the
    /// frame's opacity scale; false once the ray is opaque.
    fn step(&mut self, d: f32, z: usize, n: usize, opacity: f32) -> bool {
        let a = (d * opacity).min(1.0);
        self.light += self.transmittance * a * (0.3 + 0.7 * (z as f32 / n as f32));
        self.transmittance *= 1.0 - a;
        self.transmittance >= 1e-3
    }
}

impl App for Volrend {
    fn name(&self) -> &'static str {
        "Volrend"
    }

    fn patterns(&self) -> PatternInfo {
        PatternInfo::new(&[SyncPattern::Barrier, SyncPattern::OutsideCritical], &[])
    }

    fn scale(&self) -> Scale {
        self.scale
    }

    fn run_req(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let (n, w) = (self.n, self.w);
        let opacities = [1.2f32, 2.4f32];

        let mut p = ProgramBuilder::new(config);
        p.apply_request(req);
        let nthreads = p.num_threads();
        let volume = p.alloc((n * n * n) as u64);
        let image = p.alloc((w * w) as u64 * opacities.len() as u64);
        let next_line = p.alloc(1);
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    p.init_f32(
                        volume,
                        ((x * n + y) * n + z) as u64,
                        Volrend::density(n, x, y, z),
                    );
                }
            }
        }
        let queue_lock = p.lock(); // OCC: queue reset happens outside a CS
        let bar = p.barrier();

        let out = p.run_tasks(nthreads, async move |ctx| {
            for (frame, &opacity) in opacities.iter().enumerate() {
                // Thread 0 resets the scanline queue for this frame
                // *outside* any critical section; the barrier's WB/INV
                // publishes it.
                if ctx.tid() == 0 {
                    ctx.write(next_line, 0, 0).await;
                }
                ctx.barrier(bar).await;
                loop {
                    ctx.lock(queue_lock).await;
                    let line = ctx.read(next_line, 0).await as usize;
                    if line < w {
                        ctx.write(next_line, 0, line as u32 + 1).await;
                    }
                    ctx.unlock(queue_lock).await;
                    if line >= w {
                        break;
                    }
                    // Render scanline `line`, sampling the volume through
                    // simulated memory.
                    for ix in 0..w {
                        let mut ray = Ray::new(n, w, ix, line);
                        for z in 0..n {
                            let at = ((ray.x * n + ray.y) * n + z) as u64;
                            if !ray.step(ctx.read_f32(volume, at).await, z, n, opacity) {
                                break;
                            }
                        }
                        let px = (frame * w * w + line * w + ix) as u64;
                        ctx.write_f32(image, px, ray.light).await;
                        ctx.tick(6 + 2 * n as u64);
                    }
                }
                ctx.barrier(bar).await;
            }
        });

        let mut max_err = 0.0f32;
        for (frame, &opacity) in opacities.iter().enumerate() {
            let want = self.host_render(opacity);
            for i in 0..w * w {
                let got = out.peek_f32(image, (frame * w * w + i) as u64);
                max_err = max_err.max((got - want[i]).abs());
            }
        }
        AppRun::finish(
            self.name(),
            config,
            &out,
            max_err <= 1e-4,
            format!("vol {n}^3, image {w}x{w}, 2 frames, max error {max_err:.2e}"),
        )
    }
}
