//! Microbenchmarks of the simulator substrate itself: cache operations,
//! mesh latency math, MESI transitions, incoherent WB/INV execution
//! (full traversal vs MEB-served), the synchronization table, and the
//! execution engine (the `Linear` oracle vs the default). These bound the
//! simulator's own throughput and double as ablation probes for the
//! MEB's costly-traversal-avoidance claim (§IV-B1).

use hic_bench::{bench, bench_with_setup};
use hic_coherence::MesiSystem;
use hic_core::{CohInstr, Target};
use hic_machine::IncoherentSystem;
use hic_mem::{Addr, Cache, LineAddr, WordAddr};
use hic_noc::Mesh;
use hic_runtime::{Config, IntraConfig, ProgramBuilder, Scheduler};
use hic_sim::{CoreId, MachineConfig};

fn bench_cache() {
    let geom = MachineConfig::intra_block().l1;
    bench_with_setup(
        "micro_cache/fill_write_read",
        || Cache::new(geom),
        |mut cache| {
            for i in 0..512u64 {
                cache.fill(LineAddr(i), [i as u32; 16], 0);
                cache.write_word(LineAddr(i), (i % 16) as usize, i as u32);
                cache.read_word(LineAddr(i), 0);
            }
            cache.resident_lines()
        },
    );
}

fn bench_mesh() {
    let mesh = Mesh::new(16, 4);
    bench("micro_mesh/rt_latency", || {
        let mut acc = 0u64;
        for i in 0..16 {
            for j in 0..16 {
                acc += mesh.rt_latency(i, j);
            }
        }
        acc
    });
}

fn bench_mesi() {
    bench_with_setup(
        "micro_mesi/producer_consumer_roundtrip",
        || MesiSystem::new(MachineConfig::intra_block()),
        |mut m| {
            for i in 0..64u64 {
                m.write(CoreId(0), Addr(i * 64).word(), i as u32);
                m.read(CoreId(1), Addr(i * 64).word());
            }
            m.traffic.total()
        },
    );
}

fn bench_incoherent() {
    // The MEB claim of §IV-B1: WB ALL served from the MEB vs a full tag
    // traversal, for a small critical-section-sized write set.
    bench_with_setup(
        "micro_incoherent/wb_all_full_traversal",
        || {
            let mut m = IncoherentSystem::new(MachineConfig::intra_block());
            for i in 0..8u64 {
                m.write(CoreId(0), Addr(i * 64).word(), 1);
            }
            m
        },
        |mut m| m.exec_coh(CoreId(0), CohInstr::wb_all()).0,
    );
    bench_with_setup(
        "micro_incoherent/wb_all_meb_served",
        || {
            let mut m = IncoherentSystem::new(MachineConfig::intra_block());
            m.meb_begin(CoreId(0));
            for i in 0..8u64 {
                m.write(CoreId(0), Addr(i * 64).word(), 1);
            }
            m
        },
        |mut m| m.exec_coh(CoreId(0), CohInstr::wb_all()).0,
    );
    bench_with_setup(
        "micro_incoherent/inv_range_64_lines",
        || {
            let mut m = IncoherentSystem::new(MachineConfig::intra_block());
            for i in 0..64u64 {
                m.write(CoreId(0), WordAddr(i * 16), 1);
            }
            m
        },
        |mut m| {
            m.exec_coh(
                CoreId(0),
                CohInstr::inv(Target::range(hic_mem::Region::new(WordAddr(0), 1024))),
            )
            .0
        },
    );
}

fn bench_sync() {
    bench("micro_sync/lock_queue", || {
        let mut s = hic_sync::SyncController::new();
        let l = s.alloc_lock();
        s.lock_acquire(l, CoreId(0), 0).unwrap();
        for i in 1..16 {
            s.lock_acquire(l, CoreId(i), i as u64).unwrap();
        }
        let mut t = 100;
        let mut owner = CoreId(0);
        for _ in 0..16 {
            if let Some(g) = s.lock_release(l, owner, t).unwrap() {
                owner = g.core;
                t = g.at + 10;
            }
        }
        t
    });
}

/// A store-heavy multithreaded workload: long runs of ops between
/// barriers, the best case for running ops inline.
fn run_store_heavy(engine: Scheduler) -> hic_machine::RunStats {
    const THREADS: usize = 8;
    const STORES_PER_THREAD: u64 = 4096;
    let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
    p.scheduler(engine);
    let data = p.alloc(THREADS as u64 * STORES_PER_THREAD);
    let bar = p.barrier_of(THREADS);
    let out = p.run_tasks(THREADS, async move |ctx| {
        let base = ctx.tid() as u64 * STORES_PER_THREAD;
        for i in 0..STORES_PER_THREAD {
            ctx.write(data, base + i, (base + i) as u32).await;
            ctx.tick(2);
        }
        ctx.barrier(bar).await;
    });
    out.stats().clone()
}

/// Engine comparison: wall-clock throughput of the `Linear` oracle (a
/// suspension before every op) vs the default engine on a store-heavy
/// workload, with the engine ledgers showing where the savings come
/// from. Simulated results must be bit-identical.
fn bench_engine() {
    let oracle = bench("micro_engine/store_heavy_linear_oracle", || {
        run_store_heavy(Scheduler::Linear)
    });
    let default = bench("micro_engine/store_heavy_default_engine", || {
        run_store_heavy(Scheduler::Default)
    });

    let o = run_store_heavy(Scheduler::Linear);
    let d = run_store_heavy(Scheduler::Default);
    assert_eq!(
        o.total_cycles, d.total_cycles,
        "engines must not change simulated time"
    );
    assert_eq!(
        o.ledgers, d.ledgers,
        "engines must not change stall ledgers"
    );
    assert_eq!(o.traffic, d.traffic, "engines must not change traffic");

    println!(
        "engine  linear:  {} ops, {} suspensions",
        o.engine.ops_executed, o.engine.round_trips
    );
    println!(
        "engine  default: {} ops, {} inline + {} suspensions ({:.1}% inline)",
        d.engine.ops_executed,
        d.engine.shard_local_ops,
        d.engine.round_trips,
        100.0 * d.engine.round_trip_savings()
    );
    let speedup = default.throughput() / oracle.throughput();
    println!("engine  default/linear wall-clock speedup: {speedup:.2}x");
}

fn main() {
    bench_cache();
    bench_mesh();
    bench_mesi();
    bench_incoherent();
    bench_sync();
    bench_engine();
}
