//! Property tests for the engine: everything the default engine does
//! beyond the `Linear` oracle — the O(log n) heap picker, and running a
//! core's op without suspending while the core holds the smallest
//! `(time, core)` key or when the op is private (an L1 hit or a compute
//! that no other core's op can observe, run ahead of the global order)
//! — is a pure host-side optimization. For any program the default
//! engine must reproduce the oracle bit-for-bit: total cycles, stall
//! ledgers, traffic, the incoherent machine's event counters, the
//! resilience ledger, the simulated op ledger, and readable memory. The
//! oracle suspends every core before every op and picks by linear scan.
//! Tiny evicting caches mix private and global ops on the same lines.
//!
//! The generator (`tests/common/scripts.rs`) emits deadlock-free
//! programs by construction.
//!
//! Randomized with the deterministic in-repo `SplitMix64` (fixed seeds).

#[path = "common/scripts.rs"]
mod scripts;

use hic_machine::RunStats;
use hic_runtime::{CheckMode, Config, FaultPlan, IntraConfig, ProgramBuilder, Scheduler};
use hic_sim::config::line_bytes;
use hic_sim::{CacheGeometry, MachineConfig, SplitMix64, TopologyBuilder};
use scripts::{gen_script, run_script, Action, Script, THREADS, WORDS};

/// Assert that two runs are observationally identical: simulated time,
/// stall ledgers, traffic categories, the incoherent machine's event
/// counters, the resilience ledger, and the simulated part of the engine
/// ledger (suspensions and inline ops are host-side and legitimately
/// differ).
fn assert_same_sim(tag: &str, got: &RunStats, oracle: &RunStats) {
    assert_eq!(
        got.total_cycles, oracle.total_cycles,
        "{tag}: engine changed simulated time"
    );
    assert_eq!(
        got.ledgers, oracle.ledgers,
        "{tag}: engine changed stall ledgers"
    );
    assert_eq!(got.traffic, oracle.traffic, "{tag}: engine changed traffic");
    assert_eq!(
        got.counters, oracle.counters,
        "{tag}: engine changed the incoherent machine's event counters"
    );
    assert_eq!(
        got.resilience, oracle.resilience,
        "{tag}: engine changed the resilience ledger"
    );
    let sim = |s: &RunStats| {
        (
            s.engine.ops_executed,
            s.engine.wakeups,
            s.engine.peak_parked,
        )
    };
    assert_eq!(
        sim(got),
        sim(oracle),
        "{tag}: engine changed the simulated op ledger"
    );
}

/// Every op is run inline or preceded by one suspension; the oracle
/// never runs one inline.
fn assert_ledger(tag: &str, got: &RunStats, engine: Scheduler) {
    let e = &got.engine;
    assert_eq!(
        e.shard_local_ops + e.round_trips,
        e.ops_executed,
        "{tag}: {e:?}"
    );
    assert_eq!(e.messages, e.ops_executed, "{tag}: {e:?}");
    assert_eq!((e.batches, e.lock_waits), (0, 0), "{tag}: {e:?}");
    if engine == Scheduler::Linear {
        assert_eq!(e.shard_local_ops, 0, "{tag}: the oracle ran an op inline");
    }
}

/// The default engine and the oracle agree on every simulated quantity
/// and on readable memory for random programs on every intra config.
/// The default engine never suspends more often than the oracle, which
/// suspends before every op, and runs ops inline on these programs.
#[test]
fn schedulers_are_observationally_identical() {
    let mut rng = SplitMix64::new(0x5C4D);
    let mut inline_ops = 0;
    for case in 0..6 {
        let script = gen_script(&mut rng);
        for cfg in IntraConfig::ALL {
            let [linear, default] = [Scheduler::Linear, Scheduler::Default].map(|engine| {
                run_script(cfg, &script, |p| {
                    p.scheduler(engine);
                })
            });
            let tag = format!("case {case}, {}", cfg.name());
            assert_same_sim(&tag, &default.0, &linear.0);
            assert_eq!(default.1, linear.1, "{tag}: readable memory changed");
            assert_ledger(&tag, &linear.0, Scheduler::Linear);
            assert_ledger(&tag, &default.0, Scheduler::Default);
            assert!(
                default.0.engine.round_trips <= linear.0.engine.round_trips,
                "{tag}: the default engine suspended more often than the oracle"
            );
            inline_ops += default.0.engine.shard_local_ops;
        }
    }
    assert!(inline_ops > 0, "no op ever ran inline");
}

/// Running ops inline is a pure host-side optimization: on every intra
/// config, random programs give the oracle's simulated results and the
/// oracle's readable memory, and on every config — coherent ones
/// included — the inline path actually runs.
#[test]
fn sharded_engine_is_observationally_identical() {
    let mut rng = SplitMix64::new(0x5AAD);
    let mut local_ops = [0u64; IntraConfig::ALL.len()];
    for case in 0..6 {
        let script = gen_script(&mut rng);
        for (i, cfg) in IntraConfig::ALL.into_iter().enumerate() {
            let [linear, default] = [Scheduler::Linear, Scheduler::Default].map(|engine| {
                run_script(cfg, &script, |p| {
                    p.scheduler(engine);
                })
            });
            let tag = format!("case {case}, {}", cfg.name());
            assert_same_sim(&tag, &default.0, &linear.0);
            assert_eq!(default.1, linear.1, "{tag}: readable memory changed");
            local_ops[i] += default.0.engine.shard_local_ops;
        }
    }
    for (cfg, local) in IntraConfig::ALL.into_iter().zip(local_ops) {
        assert!(local > 0, "{}: no op ever ran inline", cfg.name());
    }
}

/// Counters in [`run_geom`], each bumped under its own lock.
const COUNTERS: u64 = 3;

/// Run a script on the machine `p` builds, one thread per core (the
/// flat 4-core harness above hard-codes the paper's intra shape).
/// Threads beyond the script's width replay a rotated column so every
/// core does work. A critical section bumps counter `bumps % 3` under
/// that counter's lock, so sections on different locks overlap. The
/// counters share their line with the first data words, so a section's
/// first read (an IEB refresh under B+I) often hits the L1. Returns the
/// stats and the final readable memory (data words + counters).
fn run_geom(mut p: ProgramBuilder, engine: Scheduler, script: &Script) -> (RunStats, Vec<u32>) {
    p.scheduler(engine);
    let nthreads = p.num_threads();
    let counters = p.alloc(COUNTERS);
    let data = p.alloc_packed(WORDS);
    let locks: Vec<_> = (0..COUNTERS).map(|_| p.lock_occ(false)).collect();
    let locks = &locks;
    let bar = p.barrier_of(nthreads);
    let rounds = script.rounds.clone();
    let out = p.run_tasks(nthreads, async move |ctx| {
        for round in &rounds {
            for action in &round[ctx.tid() % THREADS] {
                match *action {
                    Action::Store { idx, val } => {
                        ctx.write(data, (idx + ctx.tid() as u64) % WORDS, val).await
                    }
                    Action::Load { idx } => {
                        ctx.read(data, (idx + ctx.tid() as u64) % WORDS).await;
                    }
                    Action::Compute { cycles } => ctx.compute(cycles).await,
                    Action::Critical { bumps } => {
                        let k = u64::from(bumps) % COUNTERS;
                        let l = locks[k as usize];
                        ctx.lock(l).await;
                        let v = ctx.read(counters, k).await;
                        ctx.write(counters, k, v + bumps).await;
                        ctx.unlock(l).await;
                    }
                }
            }
            ctx.barrier(bar).await;
        }
    });
    assert!(out.result().is_ok(), "run failed: {:?}", out.result());
    let mut mem = out.peek_all(data);
    mem.extend(out.peek_all(counters));
    (out.stats().clone(), mem)
}

/// The engine is geometry-generic: a hierarchical 8x8x4 machine (8
/// blocks x 8 cores x 4 L2 banks — 64 cores, 64 tasks, a non-paper
/// shape) produces bit-identical results.
#[test]
fn sharded_engine_identical_on_8x8x4_inter_geometry() {
    use hic_runtime::InterConfig;
    let topo = TopologyBuilder::new(8, 8)
        .l2_banks_per_block(4)
        .validate()
        .expect("valid shape");
    let mut rng = SplitMix64::new(0x5AAF);
    for case in 0..2 {
        let script = gen_script(&mut rng);
        let config = Config::Inter(InterConfig::Addr)
            .with_topology(topo)
            .unwrap();
        let [linear, default] = [Scheduler::Linear, Scheduler::Default]
            .map(|engine| run_geom(ProgramBuilder::new(config), engine, &script));
        let tag = format!("8x8 inter, case {case}");
        assert_same_sim(&tag, &default.0, &linear.0);
        assert_eq!(default.1, linear.1, "{tag}: readable memory changed");
    }
}

/// A fully associative cache of `lines` lines.
fn lines(lines: usize) -> CacheGeometry {
    CacheGeometry {
        size_bytes: lines * line_bytes(),
        ways: lines,
        line_bytes: line_bytes(),
    }
}

/// `blocks` x 4 cores with caches so small that fills keep evicting:
/// 2-line fully associative L1s, two 1-line L2 banks per block and, on
/// two blocks, two 8-line L3 banks. With 1-line L2 banks every fill
/// evicts, so the order of shared accesses decides later latencies, and
/// an op run out of order shows in cycles and traffic.
fn tiny(blocks: usize) -> MachineConfig {
    let mut shape = TopologyBuilder::new(blocks, 4).l2_banks_per_block(2);
    if blocks > 1 {
        shape = shape.l3(lines(8), 20, 2);
    }
    let mut mc = MachineConfig::with_topology(shape.validate().expect("tiny shape is valid"));
    mc.l1 = lines(2);
    mc.l2 = lines(1);
    mc.validate().expect("tiny caches are valid");
    mc
}

/// Mixed private and global ops on caches that keep evicting: with
/// 2-line L1s a core's hits turn into misses after its own evictions,
/// and evicted dirty words reach the shared levels while other cores
/// run ahead. Every intra config on a flat 1x4 machine (the MEB under
/// B+M, IEB epochs under B+I) and Addr and Addr+L on a 2x4 machine with
/// a small L3 must match the oracle on every simulated field and on
/// readable memory.
#[test]
fn private_ops_match_the_oracle_on_tiny_evicting_caches() {
    use hic_runtime::InterConfig;
    let mut machines: Vec<(Config, MachineConfig)> = IntraConfig::ALL
        .map(|c| (Config::Intra(c), tiny(1)))
        .to_vec();
    machines.extend([InterConfig::Addr, InterConfig::AddrL].map(|c| (Config::Inter(c), tiny(2))));
    let mut rng = SplitMix64::new(0x5AB2);
    for case in 0..64 {
        let script = gen_script(&mut rng);
        for &(config, mc) in &machines {
            let config = config.with_topology(mc.topology).expect("tiny shape fits");
            let [linear, default] = [Scheduler::Linear, Scheduler::Default].map(|engine| {
                run_geom(
                    ProgramBuilder::with_machine_config(config, mc),
                    engine,
                    &script,
                )
            });
            let tag = format!("tiny {}x4 {}, case {case}", mc.num_blocks(), config.name());
            assert_same_sim(&tag, &default.0, &linear.0);
            assert_eq!(default.1, linear.1, "{tag}: readable memory changed");
            assert_ledger(&tag, &linear.0, Scheduler::Linear);
            assert_ledger(&tag, &default.0, Scheduler::Default);
        }
    }
}

/// Fault injection and the incoherence sanitizer observe the global
/// interleaving of *every* op, so no op is private under either. Both
/// still run on the same path as a clean run: the default engine runs
/// ops inline at the smallest key in those modes and matches the oracle.
#[test]
fn sharded_engine_falls_back_under_faults_and_checker() {
    let mut rng = SplitMix64::new(0x5AB0);
    let script = gen_script(&mut rng);
    for (tag, strict) in [("fault fallback", false), ("strict-check fallback", true)] {
        let [linear, default] = [Scheduler::Linear, Scheduler::Default].map(|engine| {
            run_script(IntraConfig::BMI, &script, |p| {
                p.scheduler(engine);
                if strict {
                    p.check_mode(CheckMode::Strict);
                } else {
                    // Timing-only perturbations, same seed on both engines.
                    p.fault_plan(FaultPlan::from_seed(2026));
                }
            })
        });
        assert_same_sim(tag, &default.0, &linear.0);
        assert_eq!(default.1, linear.1, "{tag}: readable memory changed");
        assert!(default.0.engine.shard_local_ops > 0, "{tag}");
    }
}

/// Readable memory is part of the observational contract too: final
/// per-word contents after the run must match the oracle.
#[test]
fn sharded_engine_preserves_readable_memory() {
    let mut rng = SplitMix64::new(0x5AB1);
    for case in 0..3 {
        let script = gen_script(&mut rng);
        let [linear, default] = [Scheduler::Linear, Scheduler::Default].map(|engine| {
            run_script(IntraConfig::BM, &script, |p| {
                p.scheduler(engine);
            })
        });
        assert_eq!(
            default.1, linear.1,
            "case {case}: default engine changed readable memory"
        );
    }
}
