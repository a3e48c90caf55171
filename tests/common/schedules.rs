//! Random communication schedules over thread-owned slices, shared by
//! `prop_check` and `prop_lint`: per round, every thread rewrites its own
//! slice and write-backs it to its planned consumers, who invalidate and
//! read it after the barrier.

use hic_runtime::{CheckMode, CommOp, Config, Diagnostics, EpochPlan, InterConfig, ProgramBuilder};
use hic_sim::SplitMix64;

/// Threads in the program: blocks 0 (cores 0-7) and 1 (core 8), so the
/// random edges cover same-block and cross-block communication.
pub const N: usize = 9;
/// Words per thread-owned slice (one cache line).
pub const SLICE: u64 = 16;

/// One planned producer -> consumer transfer in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub p: usize,
    pub c: usize,
}

/// A random communication schedule: per round, a set of edges with
/// pairwise-distinct producers (so deleting one WB cannot be masked by
/// another WB of the same region in the same round).
pub fn random_schedule(rng: &mut SplitMix64) -> Vec<Vec<Edge>> {
    let rounds = 2 + (rng.next_u64() % 3) as usize; // 2..=4
    (0..rounds)
        .map(|_| {
            let mut edges: Vec<Edge> = Vec::new();
            let want = 1 + (rng.next_u64() % 5) as usize; // 1..=5
            while edges.len() < want {
                let p = (rng.next_u64() % N as u64) as usize;
                let c = (rng.next_u64() % N as u64) as usize;
                if p == c || edges.iter().any(|e| e.p == p) {
                    continue;
                }
                edges.push(Edge { p, c });
            }
            edges
        })
        .collect()
}

/// Deleted plan entry: (round, edge index, true = the WB half).
pub type Deletion = Option<(usize, usize, bool)>;

/// Run the schedule under report-mode checking: every round, each thread
/// rewrites its own slice, write-backs it once per planned consumer, and
/// after the barrier each consumer invalidates and reads its planned
/// producers' slices. The warm-up pass gives every thread a
/// (stale-to-be) copy of every slice, which is what the INVs must keep
/// fresh.
pub fn run_schedule(cfg: InterConfig, schedule: &[Vec<Edge>], deletion: Deletion) -> Diagnostics {
    let schedule = schedule.to_vec();
    let mut p = ProgramBuilder::new(Config::Inter(cfg));
    p.check_mode(CheckMode::Report);
    let data = p.alloc_named("data", N as u64 * SLICE);
    let bar = p.barrier_of(N);
    let out = p.run_tasks(N, async move |ctx| {
        let t = ctx.tid();
        let slice_of = |o: usize| data.slice(o as u64 * SLICE, (o as u64 + 1) * SLICE);
        for o in 0..N {
            if o != t {
                for i in 0..SLICE {
                    ctx.read(data, o as u64 * SLICE + i).await;
                }
            }
        }
        ctx.plan_barrier(bar).await;
        for (r, edges) in schedule.iter().enumerate() {
            // Write phase: a fresh value every round.
            for i in 0..SLICE {
                ctx.write(
                    data,
                    t as u64 * SLICE + i,
                    (r as u32 + 1) * 10_000 + t as u32 * 100 + i as u32,
                )
                .await;
            }
            let mut wb = EpochPlan::new();
            for (ei, e) in edges.iter().enumerate() {
                if e.p == t && deletion != Some((r, ei, true)) {
                    wb = wb.with_wb(CommOp::known(slice_of(e.p), ctx.thread(e.c)));
                }
            }
            ctx.plan_wb(&wb).await;
            ctx.plan_barrier(bar).await;
            // Read phase: consumers invalidate, then read.
            let mut inv = EpochPlan::new();
            for (ei, e) in edges.iter().enumerate() {
                if e.c == t && deletion != Some((r, ei, false)) {
                    inv = inv.with_inv(CommOp::known(slice_of(e.p), ctx.thread(e.p)));
                }
            }
            ctx.plan_inv(&inv).await;
            for e in edges.iter() {
                if e.c == t {
                    for i in 0..SLICE {
                        ctx.read(data, e.p as u64 * SLICE + i).await;
                    }
                }
            }
            ctx.plan_barrier(bar).await;
        }
    });
    out.diagnostics().clone()
}
