//! Property test for how ops travel from a thread to the engine:
//! batching is a pure host-side optimization. The default engine
//! coalesces batchable ops into multi-op messages; the `Linear` oracle
//! sends every op as its own message and waits for its reply. For any
//! program both must produce bit-identical simulated results — total
//! cycles, stall ledgers, traffic, and the op stream — and only the
//! host-side message and round-trip counts may differ, never in the
//! oracle's favour.
//!
//! The generator emits deadlock-free programs by construction: every
//! thread runs the same number of rounds, every round ends with a full
//! barrier, and every lock acquire is bracketed with its release.
//!
//! Randomized with the deterministic in-repo `SplitMix64` (fixed seeds).

use hic_machine::RunStats;
use hic_runtime::{CheckMode, Config, IntraConfig, ProgramBuilder, Scheduler};
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

fn run_with(cfg: IntraConfig, engine: Scheduler, script: &Script) -> RunStats {
    let mut p = ProgramBuilder::new(Config::Intra(cfg));
    p.scheduler(engine);
    p.check_mode(CheckMode::Off);
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
    out.stats().clone()
}

/// Batched and one-op-per-message delivery agree on every simulated
/// quantity for every intra config; batching never adds messages or
/// round-trips, and it does coalesce ops on these programs.
#[test]
fn transports_are_observationally_identical() {
    let mut rng = SplitMix64::new(0x7247);
    let mut batches = 0;
    for case in 0..6 {
        let script = gen_script(&mut rng);
        for cfg in IntraConfig::ALL {
            let sync = run_with(cfg, Scheduler::Linear, &script);
            let batched = run_with(cfg, Scheduler::Default, &script);
            let tag = format!("case {case}, {}", cfg.name());
            assert_eq!(sync.engine.batches, 0, "{tag}: the oracle batched");
            assert_eq!(
                sync.engine.messages, sync.engine.ops_executed,
                "{tag}: the oracle sends one op per message"
            );
            assert_eq!(
                batched.total_cycles, sync.total_cycles,
                "{tag}: batching changed simulated time"
            );
            assert_eq!(
                batched.ledgers, sync.ledgers,
                "{tag}: batching changed stall ledgers"
            );
            assert_eq!(
                batched.traffic, sync.traffic,
                "{tag}: batching changed traffic"
            );
            assert_eq!(
                batched.engine.ops_executed, sync.engine.ops_executed,
                "{tag}: batching changed the op stream"
            );
            assert!(
                batched.engine.messages <= sync.engine.messages,
                "{tag}: batching must never add messages"
            );
            assert!(
                batched.engine.round_trips <= sync.engine.round_trips,
                "{tag}: batching must never add round-trips"
            );
            batches += batched.engine.batches;
        }
    }
    assert!(batches > 0, "no message was ever batched");
}
