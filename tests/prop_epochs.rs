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

#[path = "common/epochs.rs"]
mod epochs;

use epochs::{gen_program, run_on, EpochProgram};
use hic_runtime::{Config, IntraConfig, ProgramBuilder};
use hic_sim::SplitMix64;

const THREADS: usize = 4;

fn run_under(cfg: IntraConfig, prog: &EpochProgram) -> Vec<u32> {
    run_on(ProgramBuilder::new(Config::Intra(cfg)), cfg.name(), prog)
}

/// Every configuration computes the same (model-checked) result.
#[test]
fn epoch_programs_correct_under_all_configs() {
    let mut rng = SplitMix64::new(0xE70C);
    for _case in 0..8 {
        let prog = gen_program(&mut rng, THREADS);
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
        let prog = gen_program(&mut rng, THREADS);
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
        let prog = gen_program(&mut rng, THREADS);
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
