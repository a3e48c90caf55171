//! Programming model 2 end to end: the compiler analysis extracts
//! producer-consumer pairs from an affine program and the level-adaptive
//! WB_CONS / INV_PROD instructions keep same-block communication off the
//! global L3 (paper §V, Figure 7).
//!
//! A 1D stencil runs on the 4-block x 8-core machine under all four
//! inter-block configurations; the run reports how many global (L3-level)
//! WBs and INVs each needed.
//!
//! ```text
//! cargo run --release --example level_adaptive
//! ```

use hic_analysis::{Access, Analyzer, ArrayId, Node, Pattern, Program};
use hic_runtime::{CommOp, Config, EpochPlan, InterConfig, ProgramBuilder};

const N: u64 = 512;
const ITERS: usize = 3;

fn run_once(cfg: InterConfig) -> (u64, u64, u64, bool) {
    let mut p = ProgramBuilder::new(Config::Inter(cfg));
    let nthreads = p.num_threads();
    let a = p.alloc(N);
    let b = p.alloc(N);
    for i in 0..N {
        p.init(a, i, i as u32);
        p.init(b, i, i as u32);
    }
    let bar = p.barrier();

    // What the compiler sees: two sweeps, repeating.
    let stencil = |arr: ArrayId| {
        Access::new(
            arr,
            Pattern::Range {
                scale: 1,
                lo: -1,
                hi: 2,
            },
        )
    };
    let ident = |arr: ArrayId| Access::new(arr, Pattern::ident());
    let program = Program {
        arrays: vec![a, b],
        nodes: vec![
            Node::ParFor {
                iters: N,
                reads: vec![stencil(ArrayId(0))],
                writes: vec![ident(ArrayId(1))],
            },
            Node::ParFor {
                iters: N,
                reads: vec![stencil(ArrayId(1))],
                writes: vec![ident(ArrayId(0))],
            },
        ],
        repeat: true,
    };
    let plans = Analyzer::new(&program, nthreads).analyze();
    let chunks = hic_analysis::Chunks::new(N, nthreads);

    let out = p.run_tasks(nthreads, async move |ctx| {
        let t = ctx.tid();
        let (lo, hi) = chunks.range(t);
        let grids = [a, b];
        for _ in 0..ITERS {
            for node in 0..2 {
                ctx.plan_inv(&plans.start[node][t]).await;
                let (src, dst) = (grids[node], grids[1 - node]);
                for i in lo..hi {
                    let left = if i == 0 {
                        0
                    } else {
                        ctx.read(src, i - 1).await
                    };
                    let right = if i == N - 1 {
                        0
                    } else {
                        ctx.read(src, i + 1).await
                    };
                    let mid = ctx.read(src, i).await;
                    ctx.write(dst, i, mid.wrapping_add(left).wrapping_add(right) / 2)
                        .await;
                    ctx.tick(3);
                }
                ctx.plan_wb(&plans.end[node][t]).await;
                ctx.plan_barrier(bar).await;
            }
        }
        // The plan WBs wrote back only what neighbors consume; write this
        // thread's whole chunk of `a` back for the host to read.
        ctx.plan_wb(&EpochPlan::new().with_wb(CommOp::unknown(a.slice(lo, hi))))
            .await;
    });

    // Host reference.
    let mut ha: Vec<u32> = (0..N).map(|i| i as u32).collect();
    let mut hb = ha.clone();
    for _ in 0..ITERS {
        for node in 0..2 {
            let (src, dst) = if node == 0 {
                (&ha, &mut hb)
            } else {
                (&hb, &mut ha)
            };
            let mut next = vec![0u32; N as usize];
            for i in 0..N as usize {
                let left = if i == 0 { 0 } else { src[i - 1] };
                let right = if i == N as usize - 1 { 0 } else { src[i + 1] };
                next[i] = src[i].wrapping_add(left).wrapping_add(right) / 2;
            }
            *dst = next;
        }
    }
    let ok = (0..N).all(|i| out.peek(a, i) == ha[i as usize]);
    let c = out.stats().counters;
    (out.stats().total_cycles, c.global_wbs, c.global_invs, ok)
}

fn main() {
    println!(
        "{:-8} {:>12} {:>11} {:>12}  ok",
        "config", "cycles", "global WBs", "global INVs"
    );
    for cfg in InterConfig::ALL {
        let (cycles, gwb, ginv, ok) = run_once(cfg);
        println!(
            "{:-8} {:>12} {:>11} {:>12}  {}",
            cfg.name(),
            cycles,
            gwb,
            ginv,
            if ok { "yes" } else { "NO" }
        );
        assert!(ok, "wrong result under {}", cfg.name());
    }
    println!("\nAddr+L turns neighbor exchanges between same-block threads into");
    println!("local (L2-level) operations; only block-boundary halos stay global.");
}
