//! Property-based end-to-end test: random epoch-structured data-race-free
//! programs must compute identical results under every configuration.
//!
//! The generator builds programs of `E` epochs over a small shared array:
//! each epoch assigns every word at most one writer thread; every thread
//! then reads all words *not* written in the current epoch and checks them
//! against a host-side model. Barrier-based annotations (programming
//! model 1) must make every such program correct on the incoherent
//! machine; MESI must agree; the MEB/IEB variants must never change
//! results, only timing; and the flat always-fresh reference backend
//! (`RefBackend`) serves as a cache-free oracle for the final state.
//!
//! Randomized with the deterministic in-repo `SplitMix64` (fixed seeds).

use hic_runtime::{Config, IntraConfig, ProgramBuilder};
use hic_sim::SplitMix64;

const WORDS: usize = 48;
const THREADS: usize = 4;

#[derive(Debug, Clone)]
struct EpochProgram {
    /// `writers[e][w]` = thread writing word `w` in epoch `e`, if any.
    writers: Vec<Vec<Option<u8>>>,
}

fn gen_program(rng: &mut SplitMix64) -> EpochProgram {
    let epochs = 2 + rng.below(2);
    let writers = (0..epochs)
        .map(|_| {
            (0..WORDS)
                .map(|_| {
                    // Each word gets a writer with probability 0.4.
                    if rng.unit_f64() < 0.4 {
                        Some(rng.below(THREADS as u64) as u8)
                    } else {
                        None
                    }
                })
                .collect()
        })
        .collect();
    EpochProgram { writers }
}

/// The value thread `t` writes to word `w` in epoch `e`.
fn value(e: usize, t: u8, w: usize) -> u32 {
    (e as u32 + 1) * 100_000 + (t as u32) * 1000 + w as u32
}

/// Expected value of each word after each epoch.
fn host_model(prog: &EpochProgram) -> Vec<Vec<u32>> {
    let mut model = vec![vec![0u32; WORDS]];
    for (e, epoch) in prog.writers.iter().enumerate() {
        let mut next = model[e].clone();
        for (w, wr) in epoch.iter().enumerate() {
            if let Some(t) = wr {
                next[w] = value(e, *t, w);
            }
        }
        model.push(next);
    }
    model
}

/// Run the program on the given builder; panics on any stale read.
/// Returns the final state of the shared array.
fn run_on(mut p: ProgramBuilder, label: &str, prog: &EpochProgram) -> Vec<u32> {
    let data = p.alloc(WORDS as u64);
    let bar = p.barrier_of(THREADS);
    let writers = prog.writers.clone();

    let model = std::sync::Arc::new(host_model(prog));
    let model2 = std::sync::Arc::clone(&model);
    let label2 = label.to_string();

    let out = p.run_tasks(THREADS, async move |ctx| {
        for (e, epoch) in writers.iter().enumerate() {
            // Read phase: everything stable in this epoch must equal the
            // model state after epoch e-1.
            for (w, wr) in epoch.iter().enumerate() {
                if wr.is_none() {
                    let got = ctx.read(data, w as u64).await;
                    let want = model2[e][w];
                    assert_eq!(
                        got, want,
                        "stale read of word {w} in epoch {e} under {label2}"
                    );
                }
            }
            // Write phase: own words only (data-race free by construction).
            for (w, wr) in epoch.iter().enumerate() {
                if *wr == Some(ctx.tid() as u8) {
                    ctx.write(data, w as u64, value(e, ctx.tid() as u8, w))
                        .await;
                }
            }
            ctx.barrier(bar).await;
        }
    });

    // Final state must match the model everywhere.
    let last = model.last().unwrap();
    let mut finals = Vec::with_capacity(WORDS);
    for (w, want) in last.iter().enumerate() {
        let got = out.peek(data, w as u64);
        assert_eq!(got, *want, "final word {w} under {label}");
        finals.push(got);
    }
    finals
}

fn run_under(cfg: IntraConfig, prog: &EpochProgram) -> Vec<u32> {
    run_on(ProgramBuilder::new(Config::Intra(cfg)), cfg.name(), prog)
}

/// Every configuration computes the same (model-checked) result.
#[test]
fn epoch_programs_correct_under_all_configs() {
    let mut rng = SplitMix64::new(0xE70C);
    for _case in 0..8 {
        let prog = gen_program(&mut rng);
        for cfg in IntraConfig::ALL {
            run_under(cfg, &prog);
        }
    }
}

/// The MEB/IEB are pure performance structures: Base and B+M+I agree
/// on every observable value (checked inside `run_under`), and both
/// are deterministic across repetition.
#[test]
fn buffers_never_change_results() {
    let mut rng = SplitMix64::new(0xE70D);
    for _case in 0..6 {
        let prog = gen_program(&mut rng);
        run_under(IntraConfig::Base, &prog);
        run_under(IntraConfig::BMI, &prog);
        run_under(IntraConfig::BMI, &prog); // determinism smoke
    }
}

/// The flat always-fresh reference backend is the correctness oracle:
/// it can never serve a stale value, so whatever the cache-backed
/// machines compute must agree with it word for word.
#[test]
fn reference_backend_is_an_oracle_for_cached_runs() {
    let mut rng = SplitMix64::new(0xE70E);
    for _case in 0..6 {
        let prog = gen_program(&mut rng);
        let oracle = run_on(
            ProgramBuilder::with_reference_backend(Config::Intra(IntraConfig::Base)),
            "reference",
            &prog,
        );
        for cfg in IntraConfig::ALL {
            let got = run_under(cfg, &prog);
            assert_eq!(
                got,
                oracle,
                "{} disagrees with the reference backend",
                cfg.name()
            );
        }
    }
}
