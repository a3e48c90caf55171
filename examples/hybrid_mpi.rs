//! Programming model 1 in full (paper §IV): **MPI across blocks, shared
//! memory inside each block**.
//!
//! A 1D halo-exchange stencil on the 4-block x 8-core machine:
//!
//! * each block owns a contiguous segment of the vector; the 8 threads of
//!   a block update it cooperatively with shared-memory epochs (barriers
//!   with automatic WB ALL / INV ALL);
//! * block leaders (thread 0 of each block) exchange halo cells with the
//!   neighboring blocks over the MPI library's uncacheable mailboxes.
//!
//! ```text
//! cargo run --release --example hybrid_mpi
//! ```

use hic_runtime::{Config, InterConfig, MpiWorld, ProgramBuilder};

const CELLS_PER_BLOCK: u64 = 64;
const BLOCKS: usize = 4;
const THREADS_PER_BLOCK: usize = 8;
const ITERS: usize = 4;

fn main() {
    for cfg in [InterConfig::Base, InterConfig::Hcc] {
        let (cycles, checksum) = run_once(cfg);
        println!(
            "{:-6}: {:>9} cycles, checksum {}",
            cfg.name(),
            cycles,
            checksum
        );
    }
}

fn run_once(cfg: InterConfig) -> (u64, u32) {
    let mut p = ProgramBuilder::new(Config::Inter(cfg));
    let nthreads = BLOCKS * THREADS_PER_BLOCK;

    // Per-block segment with two halo cells (index 0 and CELLS+1).
    let segs: Vec<_> = (0..BLOCKS).map(|_| p.alloc(CELLS_PER_BLOCK + 2)).collect();
    for (b, seg) in segs.iter().enumerate() {
        for i in 0..CELLS_PER_BLOCK + 2 {
            p.init(*seg, i, (b as u32 + 1) * 1000 + i as u32);
        }
    }
    // One MPI rank per block (the block leaders are threads 0, 8, 16, 24;
    // ranks are dense 0..4 and map to those leaders).
    let world = MpiWorld::new(&mut p, nthreads, 8);
    // Per-block shared-memory barrier.
    let block_bars: Vec<_> = (0..BLOCKS)
        .map(|_| p.barrier_of(THREADS_PER_BLOCK))
        .collect();
    let checksum_out = p.alloc(1);

    let out = p.run_tasks(nthreads, async move |ctx| {
        let t = ctx.tid();
        let block = t / THREADS_PER_BLOCK;
        let local = t % THREADS_PER_BLOCK;
        let leader = block * THREADS_PER_BLOCK; // global tid of rank `block`
        let seg = segs[block];
        let bar = block_bars[block];
        let chunk = CELLS_PER_BLOCK / THREADS_PER_BLOCK as u64;
        let (lo, hi) = (1 + local as u64 * chunk, 1 + (local as u64 + 1) * chunk);

        for _ in 0..ITERS {
            // --- MPI phase: leaders exchange halos with neighbors. ---
            if local == 0 {
                let left_edge = ctx.read(seg, 1).await;
                let right_edge = ctx.read(seg, CELLS_PER_BLOCK).await;
                // Exchange with the left neighbor block.
                if block > 0 {
                    let peer = leader - THREADS_PER_BLOCK;
                    world.send(ctx, peer, &[left_edge]).await;
                    let h = world.recv(ctx, peer, 1).await[0];
                    ctx.write(seg, 0, h).await;
                }
                // Exchange with the right neighbor block.
                if block + 1 < BLOCKS {
                    let peer = leader + THREADS_PER_BLOCK;
                    let h = world.recv(ctx, peer, 1).await[0];
                    world.send(ctx, peer, &[right_edge]).await;
                    ctx.write(seg, CELLS_PER_BLOCK + 1, h).await;
                }
            }
            // --- Shared-memory phase inside the block. ---
            // The barrier publishes the leader's halo writes to the
            // block's other threads (WB ALL / INV ALL under Base).
            ctx.barrier(bar).await;
            // Everyone updates its chunk from the previous values; read
            // neighbors first, then write (two sub-epochs).
            let mut next = Vec::with_capacity((hi - lo) as usize);
            for i in lo..hi {
                let l = ctx.read(seg, i - 1).await;
                let r = ctx.read(seg, i + 1).await;
                let m = ctx.read(seg, i).await;
                next.push(m.wrapping_add(l).wrapping_add(r) / 3);
                ctx.tick(3);
            }
            ctx.barrier(bar).await;
            for (k, i) in (lo..hi).enumerate() {
                ctx.write(seg, i, next[k]).await;
            }
            ctx.barrier(bar).await;
        }

        // Checksum: leaders reduce their block sums to rank 0 over MPI.
        if local == 0 {
            let mut sum = 0u32;
            for i in 1..=CELLS_PER_BLOCK {
                sum = sum.wrapping_add(ctx.read(seg, i).await);
            }
            if block == 0 {
                let mut total = sum;
                for b in 1..BLOCKS {
                    let peer = b * THREADS_PER_BLOCK;
                    total = total.wrapping_add(world.recv(ctx, peer, 1).await[0]);
                }
                ctx.store(checksum_out.at(0), total).await;
                ctx.coh(hic_core::CohInstr::wb_l3(hic_core::Target::range(
                    checksum_out,
                )))
                .await;
            } else {
                world.send(ctx, 0, &[sum]).await;
            }
        }
    });

    (out.stats().total_cycles, out.peek(checksum_out, 0))
}
