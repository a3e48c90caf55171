//! Quickstart: run a 16-thread shared-memory program on the simulated
//! hardware-incoherent machine and on the coherent baseline, and compare.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Each thread squares its slice of a shared array, then all threads
//! barrier and thread 0 sums the result. The runtime inserts the WB/INV
//! instructions around the barrier automatically (programming model 1).

use hic_runtime::{Config, IntraConfig, ProgramBuilder};

fn run_once(cfg: IntraConfig) -> (u64, u32) {
    let mut p = ProgramBuilder::new(Config::Intra(cfg));
    let n = 1024u64;
    let data = p.alloc(n);
    p.init_with(data, |i| (i % 100) as u32);
    let bar = p.barrier();
    let result = p.alloc(1);

    let out = p.run_tasks(16, async move |ctx| {
        let t = ctx.tid() as u64;
        let chunk = n / 16;
        // Epoch 1: square own slice.
        for i in t * chunk..(t + 1) * chunk {
            let v = ctx.read(data, i).await;
            ctx.write(data, i, v * v).await;
            ctx.tick(1);
        }
        // The barrier writes back what we wrote and invalidates what we
        // will read (WB ALL / INV ALL under the incoherent configs).
        ctx.barrier(bar).await;
        // Epoch 2: thread 0 reduces everything the others produced.
        if ctx.tid() == 0 {
            let mut sum = 0u32;
            for i in 0..n {
                sum = sum.wrapping_add(ctx.read(data, i).await);
            }
            ctx.write(result, 0, sum).await;
        }
        ctx.barrier(bar).await;
    });

    (out.stats().total_cycles, out.peek(result, 0))
}

fn main() {
    let expected: u32 = (0..1024u64).map(|i| ((i % 100) * (i % 100)) as u32).sum();
    println!("{:-8} {:>12} {:>12}", "config", "cycles", "checksum");
    for cfg in IntraConfig::ALL {
        let (cycles, sum) = run_once(cfg);
        assert_eq!(sum, expected, "wrong result under {}", cfg.name());
        println!("{:-8} {:>12} {:>12}", cfg.name(), cycles, sum);
    }
    println!("all configurations computed the same checksum ({expected})");
}
