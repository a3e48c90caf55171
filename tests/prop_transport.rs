//! Property test for how ops travel from a core's task to the engine:
//! running an op inline is a pure host-side optimization. The default
//! engine runs a core's op in place while the core holds the smallest
//! `(time, core)` key; the `Linear` oracle suspends the core before
//! every op and resumes it only when the loop picks it. For any program
//! both must produce bit-identical simulated results — total cycles,
//! stall ledgers, traffic, the op stream and readable memory — and only
//! the host-side suspension count may differ, never in the oracle's
//! favour.
//!
//! The generator emits deadlock-free programs by construction: every
//! thread runs the same number of rounds, every round ends with a full
//! barrier, and every lock acquire is bracketed with its release.
//!
//! Randomized with the deterministic in-repo `SplitMix64` (fixed seeds).

use hic_machine::RunStats;
use hic_runtime::{Config, IntraConfig, ProgramBuilder, Scheduler};
use hic_sim::SplitMix64;

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

/// Run `script` under `engine`; returns the stats and the final readable
/// memory (data words + counter).
fn run_with(cfg: IntraConfig, engine: Scheduler, script: &Script) -> (RunStats, Vec<u32>) {
    let mut p = ProgramBuilder::new(Config::Intra(cfg));
    p.scheduler(engine);
    let data = p.alloc(WORDS);
    let counter = p.alloc(1);
    let l = p.lock_occ(false);
    let bar = p.barrier_of(THREADS);
    let rounds = script.rounds.clone();
    let out = p.run_tasks(THREADS, async move |ctx| {
        for round in &rounds {
            for action in &round[ctx.tid()] {
                match *action {
                    Action::Store { idx, val } => ctx.write(data, idx, val).await,
                    Action::Load { idx } => {
                        ctx.read(data, idx).await;
                    }
                    Action::Compute { cycles } => ctx.compute(cycles).await,
                    Action::Critical { bumps } => {
                        ctx.lock(l).await;
                        let v = ctx.read(counter, 0).await;
                        ctx.write(counter, 0, v + bumps).await;
                        ctx.unlock(l).await;
                    }
                }
            }
            ctx.barrier(bar).await;
        }
    });
    assert!(out.result().is_ok(), "run failed: {:?}", out.result());
    let mut mem = out.peek_all(data);
    mem.push(out.peek(counter, 0));
    (out.stats().clone(), mem)
}

/// Inline and suspend-before-every-op delivery agree on every simulated
/// quantity and on readable memory for every intra config; inline
/// delivery never adds messages or suspensions, and it does skip the
/// suspension for some ops on these programs.
#[test]
fn transports_are_observationally_identical() {
    let mut rng = SplitMix64::new(0x7247);
    let mut inline_ops = 0;
    for case in 0..6 {
        let script = gen_script(&mut rng);
        for cfg in IntraConfig::ALL {
            let (sync, sync_mem) = run_with(cfg, Scheduler::Linear, &script);
            let (inline, inline_mem) = run_with(cfg, Scheduler::Default, &script);
            let tag = format!("case {case}, {}", cfg.name());
            assert_eq!(sync.engine.batches, 0, "{tag}: the oracle batched");
            assert_eq!(
                sync.engine.messages, sync.engine.ops_executed,
                "{tag}: the oracle sends one op per message"
            );
            assert_eq!(
                sync.engine.round_trips, sync.engine.ops_executed,
                "{tag}: the oracle suspends before every op"
            );
            assert_eq!(
                inline.total_cycles, sync.total_cycles,
                "{tag}: inline delivery changed simulated time"
            );
            assert_eq!(
                inline.ledgers, sync.ledgers,
                "{tag}: inline delivery changed stall ledgers"
            );
            assert_eq!(
                inline.traffic, sync.traffic,
                "{tag}: inline delivery changed traffic"
            );
            assert_eq!(
                inline.engine.ops_executed, sync.engine.ops_executed,
                "{tag}: inline delivery changed the op stream"
            );
            assert_eq!(inline_mem, sync_mem, "{tag}: readable memory changed");
            assert!(
                inline.engine.messages <= sync.engine.messages,
                "{tag}: inline delivery must never add messages"
            );
            assert!(
                inline.engine.round_trips <= sync.engine.round_trips,
                "{tag}: inline delivery must never add suspensions"
            );
            inline_ops += inline.engine.shard_local_ops;
        }
    }
    assert!(inline_ops > 0, "no op was ever run inline");
}
