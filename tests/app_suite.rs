//! End-to-end: every application x every configuration must compute the
//! same (host-verified) result. A stale read anywhere — a missing WB/INV,
//! a broken MESI transition, a lost dirty word — fails these tests.

mod common;

use hic_apps::{inter_apps, intra_apps, sweep_requests, Scale};
use hic_runtime::{Config, InterConfig, IntraConfig};

// CI reruns this suite under the environment knobs (HIC_CHECK,
// HIC_FAULTS, HIC_RECOVER, HIC_ENGINE), so every request is assembled
// with `RunRequest::from_env`: the same explicit-RunRequest path the
// server uses, with the knobs folded in up front.
fn check(app: &str, config: Config) {
    let r = common::run_from_env(app, config, Scale::Test);
    assert!(
        r.correct,
        "{app} under {} computed a wrong result: {}",
        config.name(),
        r.detail
    );
    assert!(r.stats.total_cycles > 0);
}

/// Every cell of the paper grid that runs `app`: its family's Table II
/// configurations.
fn check_grid_cells(app: &str) {
    let cells: Vec<_> = sweep_requests(Scale::Test)
        .into_iter()
        .filter(|c| c.app == app)
        .collect();
    assert!(!cells.is_empty(), "{app} is not a grid app");
    for cell in cells {
        check(&cell.app, cell.config);
    }
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
    for app in intra_apps(Scale::Test) {
        check(app.name(), Config::Intra(IntraConfig::Dragon));
    }
}

/// Dragon on the hierarchical machine: cross-block update broadcasts and
/// L3 recalls must preserve every app's host-verified result.
#[test]
fn dragon_runs_the_full_inter_suite() {
    for app in inter_apps(Scale::Test) {
        check(app.name(), Config::Inter(InterConfig::Dragon));
    }
}
