//! The Outside-Critical-section Communication (OCC) pattern of paper
//! §IV-A1 (Figure 4d), and what the MEB/IEB buffers buy for it.
//!
//! A producer creates task payloads *outside* a critical section, then
//! publishes each task's index inside one. Consumers pop indices inside
//! critical sections and process the payloads outside. The run is
//! repeated under every intra-block configuration, printing the cycle
//! counts — the MEB configurations should visibly shorten the critical
//! sections.
//!
//! ```text
//! cargo run --release --example task_queue
//! ```

use hic_runtime::{Config, IntraConfig, ProgramBuilder};

const TASKS: u64 = 64;
const PAYLOAD: u64 = 16; // words per task

fn run_once(cfg: IntraConfig) -> (u64, u64, u32) {
    let mut p = ProgramBuilder::new(Config::Intra(cfg));
    let payload = p.alloc(TASKS * PAYLOAD);
    let head = p.alloc(1); // number of published tasks
    let tail = p.alloc(1); // number of claimed tasks
    let done = p.alloc(16); // per-consumer checksums (word apart)
    let queue = p.lock(); // OCC: payloads cross the CS boundary
    let bar = p.barrier();

    let out = p.run_tasks(16, async move |ctx| {
        if ctx.tid() == 0 {
            // The producer.
            for t in 0..TASKS {
                for i in 0..PAYLOAD {
                    ctx.write(payload, t * PAYLOAD + i, (t * 1000 + i) as u32)
                        .await;
                    ctx.tick(2);
                }
                ctx.lock(queue).await;
                ctx.write(head, 0, t as u32 + 1).await;
                ctx.unlock(queue).await;
            }
        } else {
            // 15 consumers.
            let mut sum = 0u32;
            loop {
                ctx.lock(queue).await;
                let h = ctx.read(head, 0).await as u64;
                let t = ctx.read(tail, 0).await as u64;
                let claimed = if t < h {
                    ctx.write(tail, 0, t as u32 + 1).await;
                    Some(t)
                } else if t >= TASKS {
                    None
                } else {
                    Some(u64::MAX) // queue momentarily empty: retry
                };
                ctx.unlock(queue).await;
                match claimed {
                    None => break,
                    Some(u64::MAX) => ctx.compute(50).await,
                    Some(task) => {
                        // Consume the payload outside the CS: the OCC
                        // annotations make it visible.
                        for i in 0..PAYLOAD {
                            sum = sum.wrapping_add(ctx.read(payload, task * PAYLOAD + i).await);
                            ctx.tick(2);
                        }
                    }
                }
            }
            ctx.write(done, ctx.tid() as u64 - 1, sum).await;
        }
        ctx.barrier(bar).await;
    });

    let total: u32 = (0..15)
        .map(|i| out.peek(done, i))
        .fold(0u32, |a, b| a.wrapping_add(b));
    let ledger = out.stats().merged_ledger();
    (out.stats().total_cycles, ledger.lock, total)
}

fn main() {
    let expected: u32 = (0..TASKS)
        .flat_map(|t| (0..PAYLOAD).map(move |i| (t * 1000 + i) as u32))
        .fold(0u32, |a, b| a.wrapping_add(b));
    println!(
        "{:-8} {:>12} {:>14} checksum",
        "config", "cycles", "lock cycles"
    );
    for cfg in IntraConfig::ALL {
        let (cycles, lock, sum) = run_once(cfg);
        assert_eq!(sum, expected, "lost task payload under {}", cfg.name());
        println!("{:-8} {:>12} {:>14} ok", cfg.name(), cycles, lock);
    }
}
