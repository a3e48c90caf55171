//! Random deadlock-free scripts of stores, loads, computes and
//! lock-protected counter bumps, shared by `prop_scheduler` and
//! `prop_transport`. Every thread runs the same number of rounds, every
//! round ends with a full barrier, and every lock acquire is bracketed
//! with its release.

use hic_machine::RunStats;
use hic_runtime::{Config, IntraConfig, ProgramBuilder};
use hic_sim::SplitMix64;

/// Threads in a script.
pub const THREADS: usize = 4;
/// Words of shared data a script touches.
pub const WORDS: u64 = 64;

#[derive(Debug, Clone)]
pub enum Action {
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
pub struct Script {
    /// `rounds[r][t]` = actions of thread `t` in round `r`.
    pub rounds: Vec<Vec<Vec<Action>>>,
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

pub fn gen_script(rng: &mut SplitMix64) -> Script {
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
/// engine and any other run option. Returns the stats and the final
/// readable memory (data words + counter).
pub fn run_script(
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
