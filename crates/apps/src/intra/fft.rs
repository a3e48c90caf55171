//! FFT — barrier-structured radix-2 Cooley-Tukey (SPLASH-2 FFT analogue).
//!
//! Communication pattern (Table I): **Barrier** only. Each butterfly stage
//! is an epoch; the all-to-all data exchange between stages is exactly
//! what barrier-delimited WB ALL / INV ALL orchestrates.
//!
//! The simulated kernel and the host reference execute the identical f32
//! operation sequence, so results are compared with a tight tolerance.

use hic_runtime::ProgramBuilder;
use hic_sim::rng::SplitMix64;

use crate::{App, AppRun, PatternInfo, RunRequest, Scale, SyncPattern};

pub struct Fft {
    scale: Scale,
    n: usize,
}

impl Fft {
    pub fn new(scale: Scale) -> Fft {
        let n = match scale {
            Scale::Test => 256,
            Scale::Small => 8192,
            Scale::Medium => 16384,
            Scale::Large => 32768,
            Scale::Paper => 65536, // the paper's 64K points
        };
        Fft { scale, n }
    }

    /// Host reference: identical algorithm, identical operation order.
    fn host_fft(re: &mut [f32], im: &mut [f32]) {
        let n = re.len();
        let logn = n.trailing_zeros();
        // Bit-reverse copy.
        let (sre, sim_) = (re.to_vec(), im.to_vec());
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - logn);
            re[i] = sre[j];
            im[i] = sim_[j];
        }
        for s in 1..=logn {
            let m = 1usize << s;
            let half = m / 2;
            for j in 0..n / 2 {
                let group = j / half;
                let pos = j % half;
                let i1 = group * m + pos;
                let i2 = i1 + half;
                let ang = -2.0 * std::f32::consts::PI * pos as f32 / m as f32;
                let (wr, wi) = (ang.cos(), ang.sin());
                let (ar, ai) = (re[i1], im[i1]);
                let (br, bi) = (re[i2], im[i2]);
                let tr = wr * br - wi * bi;
                let ti = wr * bi + wi * br;
                re[i1] = ar + tr;
                im[i1] = ai + ti;
                re[i2] = ar - tr;
                im[i2] = ai - ti;
            }
        }
    }

    fn input(&self) -> (Vec<f32>, Vec<f32>) {
        let mut rng = SplitMix64::new(0xFF7);
        let re: Vec<f32> = (0..self.n).map(|_| rng.unit_f32() - 0.5).collect();
        let im: Vec<f32> = (0..self.n).map(|_| rng.unit_f32() - 0.5).collect();
        (re, im)
    }
}

impl App for Fft {
    fn name(&self) -> &'static str {
        "FFT"
    }

    fn scale(&self) -> Scale {
        self.scale
    }

    fn patterns(&self) -> PatternInfo {
        PatternInfo::new(&[SyncPattern::Barrier], &[])
    }

    fn run_req(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let n = self.n;
        let logn = n.trailing_zeros();
        let (in_re, in_im) = self.input();

        let mut p = ProgramBuilder::new(config);
        p.apply_request(req);
        let nthreads = p.num_threads();
        let src_re = p.alloc(n as u64);
        let src_im = p.alloc(n as u64);
        let re = p.alloc(n as u64);
        let im = p.alloc(n as u64);
        for i in 0..n {
            p.init_f32(src_re, i as u64, in_re[i]);
            p.init_f32(src_im, i as u64, in_im[i]);
        }
        let bar = p.barrier();

        let out = p.run_tasks(nthreads, async move |ctx| {
            let t = ctx.tid();
            let chunk = n.div_ceil(nthreads);
            let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(n));
            // Bit-reverse permutation into the working arrays.
            for i in lo..hi {
                let j = (i.reverse_bits() >> (usize::BITS - logn)) as u64;
                let vr = ctx.read(src_re, j).await;
                let vi = ctx.read(src_im, j).await;
                ctx.write(re, i as u64, vr).await;
                ctx.write(im, i as u64, vi).await;
                ctx.tick(2);
            }
            ctx.barrier(bar).await;
            // log2(n) butterfly stages, one barrier epoch each.
            let nb = n / 2;
            let bchunk = nb.div_ceil(nthreads);
            let (blo, bhi) = (t * bchunk, ((t + 1) * bchunk).min(nb));
            for s in 1..=logn {
                let m = 1usize << s;
                let half = m / 2;
                for j in blo..bhi {
                    let group = j / half;
                    let pos = j % half;
                    let i1 = (group * m + pos) as u64;
                    let i2 = i1 + half as u64;
                    let ang = -2.0 * std::f32::consts::PI * pos as f32 / m as f32;
                    let (wr, wi) = (ang.cos(), ang.sin());
                    let ar = ctx.read_f32(re, i1).await;
                    let ai = ctx.read_f32(im, i1).await;
                    let br = ctx.read_f32(re, i2).await;
                    let bi = ctx.read_f32(im, i2).await;
                    let tr = wr * br - wi * bi;
                    let ti = wr * bi + wi * br;
                    ctx.write_f32(re, i1, ar + tr).await;
                    ctx.write_f32(im, i1, ai + ti).await;
                    ctx.write_f32(re, i2, ar - tr).await;
                    ctx.write_f32(im, i2, ai - ti).await;
                    ctx.tick(10);
                }
                ctx.barrier(bar).await;
            }
        });

        // Host reference.
        let (mut href, mut himf) = (in_re, in_im);
        Fft::host_fft(&mut href, &mut himf);
        let mut max_err = 0.0f32;
        for i in 0..n {
            let dr = (out.peek_f32(re, i as u64) - href[i]).abs();
            let di = (out.peek_f32(im, i as u64) - himf[i]).abs();
            max_err = max_err.max(dr).max(di);
        }
        let tol = 1e-3 * (n as f32).sqrt();
        AppRun::finish(
            self.name(),
            config,
            &out,
            max_err <= tol,
            format!("n={n}, max abs error {max_err:.2e}"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The host FFT must agree with a naive O(n^2) DFT — validating the
    /// reference the simulator is checked against.
    #[test]
    fn host_fft_matches_naive_dft() {
        let n = 64usize;
        let fft = Fft {
            scale: Scale::Test,
            n,
        };
        let (re_in, im_in) = fft.input();
        let (mut re, mut im) = (re_in.clone(), im_in.clone());
        Fft::host_fft(&mut re, &mut im);
        for k in 0..n {
            let (mut sr, mut si) = (0.0f64, 0.0f64);
            for (j, (&xr, &xi)) in re_in.iter().zip(&im_in).enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                sr += xr as f64 * ang.cos() - xi as f64 * ang.sin();
                si += xr as f64 * ang.sin() + xi as f64 * ang.cos();
            }
            assert!(
                (re[k] as f64 - sr).abs() < 1e-3 && (im[k] as f64 - si).abs() < 1e-3,
                "bin {k}: fft=({}, {}) dft=({sr}, {si})",
                re[k],
                im[k]
            );
        }
    }

    /// Parseval's identity as an independent energy check.
    #[test]
    fn host_fft_preserves_energy() {
        let fft = Fft {
            scale: Scale::Test,
            n: 256,
        };
        let (re_in, im_in) = fft.input();
        let (mut re, mut im) = (re_in.clone(), im_in.clone());
        Fft::host_fft(&mut re, &mut im);
        let time: f64 = re_in
            .iter()
            .zip(&im_in)
            .map(|(&a, &b)| (a * a + b * b) as f64)
            .sum();
        let freq: f64 = re
            .iter()
            .zip(&im)
            .map(|(&a, &b)| (a * a + b * b) as f64)
            .sum();
        let ratio = freq / (time * 256.0);
        assert!((ratio - 1.0).abs() < 1e-4, "Parseval ratio {ratio}");
    }
}
