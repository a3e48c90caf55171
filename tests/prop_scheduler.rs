//! Property tests for the engine: everything the default engine does
//! beyond the `Linear` oracle — the O(log n) heap picker, batched
//! messages, and retiring core-private ops (L1 hits, computes, epoch
//! markers) in the issuing thread — is a pure host-side optimization.
//! For any program the default engine must reproduce the oracle
//! bit-for-bit: total cycles, stall ledgers, traffic, the simulated op
//! ledger, and readable memory. The oracle sends every op on its own
//! through the queue, so it also checks that batching changes nothing.
//!
//! The generator emits deadlock-free programs by construction: every
//! thread runs the same number of rounds, every round ends with a full
//! barrier, and every lock acquire is bracketed with its release.
//!
//! Randomized with the deterministic in-repo `SplitMix64` (fixed seeds).

use hic_machine::RunStats;
use hic_runtime::{CheckMode, Config, FaultPlan, IntraConfig, ProgramBuilder, Scheduler};
use hic_sim::{SplitMix64, TopologyBuilder};

const THREADS: usize = 4;
const WORDS: u64 = 64;

#[derive(Debug, Clone)]
enum Action {
    Store {
        idx: u64,
        val: u32,
    },
    Load {
        idx: u64,
    },
    Compute {
        cycles: u64,
    },
    /// Lock-protected read-modify-write of a shared counter.
    Critical {
        bumps: u32,
    },
}

#[derive(Debug, Clone)]
struct Script {
    /// `rounds[r][t]` = actions of thread `t` in round `r`.
    rounds: Vec<Vec<Vec<Action>>>,
}

fn gen_action(rng: &mut SplitMix64) -> Action {
    match rng.below(5) {
        0 | 1 => Action::Store {
            idx: rng.below(WORDS),
            val: rng.next_u32(),
        },
        2 => Action::Load {
            idx: rng.below(WORDS),
        },
        3 => Action::Compute {
            cycles: 1 + rng.below(40),
        },
        _ => Action::Critical {
            bumps: 1 + rng.next_u32() % 3,
        },
    }
}

fn gen_script(rng: &mut SplitMix64) -> Script {
    let rounds = (0..1 + rng.below(3))
        .map(|_| {
            (0..THREADS)
                .map(|_| (0..rng.below(9)).map(|_| gen_action(rng)).collect())
                .collect()
        })
        .collect();
    Script { rounds }
}

/// Run `script` on the flat intra machine under `cfg`. `setup` picks the
/// engine and any other knob. Returns the stats and the final readable
/// memory (data words + counter).
fn run_script(
    cfg: IntraConfig,
    script: &Script,
    setup: impl FnOnce(&mut ProgramBuilder),
) -> (RunStats, Vec<u32>) {
    let mut p = ProgramBuilder::new(Config::Intra(cfg));
    setup(&mut p);
    let data = p.alloc(WORDS);
    let counter = p.alloc(1);
    let l = p.lock_occ(false);
    let bar = p.barrier_of(THREADS);
    let rounds = script.rounds.clone();
    let out = p.run(THREADS, move |ctx| {
        for round in &rounds {
            for action in &round[ctx.tid()] {
                match *action {
                    Action::Store { idx, val } => ctx.write(data, idx, val),
                    Action::Load { idx } => {
                        ctx.read(data, idx);
                    }
                    Action::Compute { cycles } => ctx.compute(cycles),
                    Action::Critical { bumps } => {
                        ctx.lock(l);
                        let v = ctx.read(counter, 0);
                        ctx.write(counter, 0, v + bumps);
                        ctx.unlock(l);
                    }
                }
            }
            ctx.barrier(bar);
        }
    });
    assert!(out.result().is_ok(), "run failed: {:?}", out.result());
    let mut mem = out.peek_all(data);
    mem.push(out.peek(counter, 0));
    (out.stats().clone(), mem)
}

fn run_with(cfg: IntraConfig, engine: Scheduler, script: &Script) -> RunStats {
    run_script(cfg, script, |p| {
        p.scheduler(engine);
    })
    .0
}

/// Assert that two runs are observationally identical: simulated time,
/// stall ledgers, traffic categories, and the simulated part of the
/// engine ledger (messages, round-trips, local retirement and lock
/// contention are host-side and legitimately differ).
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

/// The default engine and the oracle agree on every simulated quantity
/// for random programs on every intra config. The oracle never
/// batches and never retires locally; the default engine never adds
/// round-trips, and retires ops locally exactly on incoherent machines.
#[test]
fn schedulers_are_observationally_identical() {
    let mut rng = SplitMix64::new(0x5C4D);
    let mut local_ops = 0;
    for case in 0..6 {
        let script = gen_script(&mut rng);
        for cfg in IntraConfig::ALL {
            let linear = run_with(cfg, Scheduler::Linear, &script);
            let default = run_with(cfg, Scheduler::Default, &script);
            let tag = format!("case {case}, {}", cfg.name());
            assert_same_sim(&tag, &default, &linear);
            assert_eq!(linear.engine.batches, 0, "{tag}: the oracle batched");
            assert_eq!(linear.engine.shard_local_ops, 0, "{tag}");
            assert_eq!(
                linear.engine.messages, linear.engine.ops_executed,
                "{tag}: the oracle sends one op per message"
            );
            assert!(
                default.engine.round_trips <= linear.engine.round_trips,
                "{tag}: batching must never add round-trips"
            );
            if Config::Intra(cfg).is_coherent() {
                assert_eq!(default.engine.shard_local_ops, 0, "{tag}");
            } else {
                local_ops += default.engine.shard_local_ops;
            }
        }
    }
    assert!(local_ops > 0, "no op ever retired locally");
}

/// Retiring core-private ops in the issuing thread (the per-core slice
/// path that replaced the sharded engine) is a pure host-side
/// optimization: on every intra config, random programs give the
/// oracle's simulated results and the oracle's readable memory, and on
/// every incoherent config the slice path actually runs.
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
        if Config::Intra(cfg).is_coherent() {
            assert_eq!(local, 0, "{}: coherent runs queue every op", cfg.name());
        } else {
            assert!(local > 0, "{}: no op ever retired locally", cfg.name());
        }
    }
}

/// The case a batch cannot retire locally: a miss, then L1 hits to the
/// same line in the same batch (queued behind the miss, so the slice
/// moves into the machine), then a load (the slice comes back to the
/// thread at the latest with its reply), then more local work. Results
/// and memory must match the oracle, and local retirement must resume.
#[test]
fn slice_returns_to_thread_after_a_queued_batch() {
    const LINES: u64 = 6;
    let run = |engine: Scheduler| {
        let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::BMI));
        p.scheduler(engine);
        let data = p.alloc(THREADS as u64 * LINES * 16);
        let bar = p.barrier_of(THREADS);
        let out = p.run(THREADS, move |ctx| {
            let base = ctx.tid() as u64 * LINES * 16;
            for round in 0..3u32 {
                for line in 0..LINES {
                    let at = base + line * 16;
                    ctx.write(data, at, round); // miss (first round)
                    for w in 1..16 {
                        ctx.write(data, at + w, round + w as u32); // hits
                    }
                    ctx.tick(3 + ctx.tid() as u64);
                    assert_eq!(ctx.read(data, at), round);
                    ctx.compute(7);
                    assert_eq!(ctx.read(data, at + 15), round + 15);
                }
                ctx.barrier(bar);
            }
        });
        assert!(out.result().is_ok(), "{engine:?}: {:?}", out.result());
        (out.stats().clone(), out.peek_all(data))
    };
    let (linear, linear_mem) = run(Scheduler::Linear);
    let (default, default_mem) = run(Scheduler::Default);
    assert_same_sim("miss-then-hits batch", &default, &linear);
    assert_eq!(default_mem, linear_mem, "readable memory changed");
    let e = &default.engine;
    assert!(e.batches > 0, "stores were batched");
    assert!(
        e.shard_local_ops > 0 && e.shard_local_ops < e.ops_executed,
        "both paths ran: {e:?}"
    );
}

/// Run a script on an arbitrary topology/config pair (the flat 4-core
/// harness above hard-codes the paper's intra shape). Threads beyond the
/// script's width replay a rotated column so every core does work.
fn run_geom(config: Config, engine: Scheduler, script: &Script) -> RunStats {
    let mut p = ProgramBuilder::new(config);
    p.scheduler(engine);
    let nthreads = p.num_threads();
    let data = p.alloc(WORDS);
    let counter = p.alloc(1);
    let l = p.lock_occ(false);
    let bar = p.barrier_of(nthreads);
    let rounds = script.rounds.clone();
    let out = p.run(nthreads, move |ctx| {
        for round in &rounds {
            for action in &round[ctx.tid() % THREADS] {
                match *action {
                    Action::Store { idx, val } => {
                        ctx.write(data, (idx + ctx.tid() as u64) % WORDS, val)
                    }
                    Action::Load { idx } => {
                        ctx.read(data, (idx + ctx.tid() as u64) % WORDS);
                    }
                    Action::Compute { cycles } => ctx.compute(cycles),
                    Action::Critical { bumps } => {
                        ctx.lock(l);
                        let v = ctx.read(counter, 0);
                        ctx.write(counter, 0, v + bumps);
                        ctx.unlock(l);
                    }
                }
            }
            ctx.barrier(bar);
        }
    });
    out.stats().clone()
}

/// The engine is geometry-generic: a hierarchical 8x8x4 machine (8
/// blocks x 8 cores x 4 L2 banks — 64 cores, 64 per-core slots, a
/// non-paper shape) produces bit-identical results.
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
        let linear = run_geom(config, Scheduler::Linear, &script);
        let default = run_geom(config, Scheduler::Default, &script);
        assert_same_sim(&format!("8x8 inter, case {case}"), &default, &linear);
    }
}

/// Fault injection and the incoherence sanitizer both force every op
/// through the queue (their observations depend on the global
/// interleaving of *every* op): the default engine must retire nothing
/// locally in those modes and still match the oracle.
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
        assert_eq!(default.0.engine.shard_local_ops, 0, "{tag}");
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
