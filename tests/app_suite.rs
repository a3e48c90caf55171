//! End-to-end: every application x every configuration must compute the
//! same (host-verified) result. A stale read anywhere — a missing WB/INV,
//! a broken MESI transition, a lost dirty word — fails these tests.
//!
//! Every cell runs under each of `MODES`: correctness must not depend
//! on the sanitizer, on injected faults or on the engine (§III–§IV: a
//! race-free program is correct because of where its WB/INV sit, not
//! because of timing).

mod common;

use hic_apps::{inter_apps, intra_apps, sweep_requests, Scale};
use hic_runtime::{CheckMode, Config, FaultSpec, InterConfig, IntraConfig, RunRequest, Scheduler};

/// The (check, fault, engine) of each run mode: a plain run; the strict
/// sanitizer; the recoverable fault plan and the corrupting plan with
/// rollback recovery, both under the strict sanitizer; the `Linear`
/// oracle engine.
const MODES: [(CheckMode, Option<FaultSpec>, Scheduler); 5] = [
    (CheckMode::Off, None, Scheduler::Default),
    (CheckMode::Strict, None, Scheduler::Default),
    (
        CheckMode::Strict,
        Some(FaultSpec::Recoverable { seed: 2026 }),
        Scheduler::Default,
    ),
    (
        CheckMode::Strict,
        Some(FaultSpec::CorruptingRecover { seed: 2026 }),
        Scheduler::Default,
    ),
    (CheckMode::Off, None, Scheduler::Linear),
];

/// Run each cell under every mode. Under a fault mode the incoherent
/// cells must together record injected faults, or the plan never
/// reached the runs.
fn check(cells: &[RunRequest]) {
    assert!(!cells.is_empty());
    for (check, fault, engine) in MODES {
        let mut injected = 0;
        for cell in cells {
            let req = RunRequest {
                check,
                fault,
                engine,
                ..cell.clone()
            };
            let r = common::run(&req);
            assert!(
                r.correct,
                "{} computed a wrong result: {}",
                req.cache_key(),
                r.detail
            );
            assert!(r.stats.total_cycles > 0);
            if !req.config.is_coherent() {
                let s = &r.stats.resilience;
                injected += s.retries + s.delayed_acks + s.bit_flips;
            }
        }
        if fault.is_some() && cells.iter().any(|c| !c.config.is_coherent()) {
            assert!(
                injected > 0,
                "{}: no fault was injected under {fault:?}",
                cells[0].app
            );
        }
    }
}

/// Every cell of the paper grid that runs `app`: its family's Table II
/// configurations.
fn check_grid_cells(app: &str) {
    let cells: Vec<_> = sweep_requests(Scale::Test)
        .into_iter()
        .filter(|c| c.app == app)
        .collect();
    check(&cells);
}

macro_rules! app_test {
    ($fn_name:ident, $app_name:expr) => {
        #[test]
        fn $fn_name() {
            check_grid_cells($app_name);
        }
    };
}

app_test!(fft_all_configs, "FFT");
app_test!(lu_cont_all_configs, "LU cont");
app_test!(lu_noncont_all_configs, "LU non-cont");
app_test!(cholesky_all_configs, "Cholesky");
app_test!(barnes_all_configs, "Barnes");
app_test!(raytrace_all_configs, "Raytrace");
app_test!(volrend_all_configs, "Volrend");
app_test!(ocean_cont_all_configs, "Ocean cont");
app_test!(ocean_noncont_all_configs, "Ocean non-cont");
app_test!(water_nsq_all_configs, "Water Nsq");
app_test!(water_spatial_all_configs, "Water Spatial");

app_test!(ep_all_configs, "EP");
app_test!(is_all_configs, "IS");
app_test!(cg_all_configs, "CG");
app_test!(jacobi_all_configs, "Jacobi");

/// The update-based Dragon backend runs the full suite. Every app checks
/// its readable final memory against a deterministic host reference —
/// the same values the flat `RefBackend` oracle produces by construction
/// — so a pass here means Dragon's final memory agrees with the oracle
/// bit for bit on every application.
#[test]
fn dragon_runs_the_full_intra_suite() {
    let cells: Vec<_> = intra_apps(Scale::Test)
        .iter()
        .map(|app| RunRequest::new(app.name(), Config::Intra(IntraConfig::Dragon), Scale::Test))
        .collect();
    check(&cells);
}

/// Dragon on the hierarchical machine: cross-block update broadcasts and
/// L3 recalls must preserve every app's host-verified result.
#[test]
fn dragon_runs_the_full_inter_suite() {
    let cells: Vec<_> = inter_apps(Scale::Test)
        .iter()
        .map(|app| RunRequest::new(app.name(), Config::Inter(InterConfig::Dragon), Scale::Test))
        .collect();
    check(&cells);
}
