//! Programming model 1 end to end (paper §IV): MPI across blocks, shared
//! memory inside them. The same hybrid program must compute the same
//! result under the incoherent configurations and under MESI.

use hic_runtime::{Config, InterConfig, MpiWorld, ProgramBuilder};

const THREADS_PER_BLOCK: usize = 8;
const BLOCKS: usize = 4;
const CELLS: u64 = 32; // per block

fn run_hybrid(cfg: InterConfig) -> u32 {
    let mut p = ProgramBuilder::new(Config::Inter(cfg));
    let nthreads = BLOCKS * THREADS_PER_BLOCK;
    let segs: Vec<_> = (0..BLOCKS).map(|_| p.alloc(CELLS + 2)).collect();
    for (b, seg) in segs.iter().enumerate() {
        for i in 0..CELLS + 2 {
            p.init(*seg, i, (b as u32 + 1) * 100 + i as u32);
        }
    }
    let world = MpiWorld::new(&mut p, nthreads, 4);
    let block_bars: Vec<_> = (0..BLOCKS)
        .map(|_| p.barrier_of(THREADS_PER_BLOCK))
        .collect();
    let result = p.alloc(1);

    let out = p.run_tasks(nthreads, async move |ctx| {
        let t = ctx.tid();
        let block = t / THREADS_PER_BLOCK;
        let local = t % THREADS_PER_BLOCK;
        let seg = segs[block];
        let bar = block_bars[block];
        let chunk = CELLS / THREADS_PER_BLOCK as u64;
        let (lo, hi) = (1 + local as u64 * chunk, 1 + (local as u64 + 1) * chunk);

        for _ in 0..2 {
            // Leaders exchange halo cells over MPI.
            if local == 0 {
                let left_edge = ctx.read(seg, 1).await;
                let right_edge = ctx.read(seg, CELLS).await;
                if block > 0 {
                    let peer = (block - 1) * THREADS_PER_BLOCK;
                    world.send(ctx, peer, &[left_edge]).await;
                    ctx.write(seg, 0, world.recv(ctx, peer, 1).await[0]).await;
                }
                if block + 1 < BLOCKS {
                    let peer = (block + 1) * THREADS_PER_BLOCK;
                    ctx.write(seg, CELLS + 1, world.recv(ctx, peer, 1).await[0])
                        .await;
                    world.send(ctx, peer, &[right_edge]).await;
                }
            }
            // Shared-memory epoch inside the block.
            ctx.barrier(bar).await;
            let mut next = Vec::new();
            for i in lo..hi {
                let v = ctx
                    .read(seg, i - 1)
                    .await
                    .wrapping_add(ctx.read(seg, i).await)
                    .wrapping_add(ctx.read(seg, i + 1).await);
                next.push(v / 3);
            }
            ctx.barrier(bar).await;
            for (k, i) in (lo..hi).enumerate() {
                ctx.write(seg, i, next[k]).await;
            }
            ctx.barrier(bar).await;
        }

        // Leaders reduce block checksums to rank 0.
        if local == 0 {
            let mut sum = 0u32;
            for i in 1..=CELLS {
                sum = sum.wrapping_add(ctx.read(seg, i).await);
            }
            if block == 0 {
                let mut total = sum;
                for b in 1..BLOCKS {
                    total = total.wrapping_add(world.recv(ctx, b * THREADS_PER_BLOCK, 1).await[0]);
                }
                ctx.store_unc(result.at(0), total).await;
            } else {
                world.send(ctx, 0, &[sum]).await;
            }
        }
    });
    out.peek(result, 0)
}

#[test]
fn hybrid_program_agrees_across_configurations() {
    let reference = run_hybrid(InterConfig::Hcc);
    assert_ne!(reference, 0);
    for cfg in [InterConfig::Base, InterConfig::Addr, InterConfig::AddrL] {
        assert_eq!(
            run_hybrid(cfg),
            reference,
            "hybrid MPI + shared-memory result differs under {}",
            cfg.name()
        );
    }
}

#[test]
fn hybrid_program_is_deterministic() {
    assert_eq!(run_hybrid(InterConfig::Base), run_hybrid(InterConfig::Base));
}
