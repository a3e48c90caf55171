//! Cross-cutting invariants of the simulated machines, checked on real
//! application runs.

use hic_apps::{app_by_name, inter_apps, AppRun, Scale};
use hic_runtime::{Config, InterConfig, IntraConfig, RunRequest};

/// Run the test-scale app named `app` under `config`, with no knobs.
fn run(app: &str, config: Config) -> AppRun {
    app_by_name(app, Scale::Test)
        .expect("a suite application")
        .run_req(&RunRequest::new(app, config, Scale::Test))
}

/// The coherent machine never executes WB/INV instructions: those stall
/// categories must be exactly zero, and coherence invalidation traffic
/// must exist for apps with write sharing.
#[test]
fn hcc_has_no_wb_inv_stall_but_has_invalidation_traffic() {
    let r = run("Ocean cont", Config::Intra(IntraConfig::Hcc));
    let ledger = r.stats.merged_ledger();
    assert_eq!(ledger.wb, 0);
    assert_eq!(ledger.inv, 0);
    assert!(
        r.stats.traffic.invalidation > 0,
        "a grid solver with shared boundaries must invalidate under MESI"
    );
}

/// The incoherent machine is self-invalidation only: it never sends
/// invalidation messages (one of the paper's three traffic savings).
#[test]
fn incoherent_machines_send_zero_invalidation_traffic() {
    for cfg in [IntraConfig::Base, IntraConfig::BMI] {
        let r = run("Raytrace", Config::Intra(cfg));
        assert_eq!(
            r.stats.traffic.invalidation,
            0,
            "incoherent config {} produced invalidation traffic",
            cfg.name()
        );
    }
}

/// Simulations are deterministic: identical program, identical cycle
/// count and traffic, across repeated runs.
#[test]
fn runs_are_deterministic() {
    let a = run("Volrend", Config::Intra(IntraConfig::BMI));
    let b = run("Volrend", Config::Intra(IntraConfig::BMI));
    assert_eq!(a.stats.total_cycles, b.stats.total_cycles);
    assert_eq!(a.stats.traffic, b.stats.traffic);
    assert_eq!(a.stats.counters, b.stats.counters);
}

/// The MEB reduces WB cost in lock-heavy apps: B+M must beat Base on
/// Raytrace (the paper's headline case for the MEB).
#[test]
fn meb_speeds_up_raytrace() {
    let base = run("Raytrace", Config::Intra(IntraConfig::Base));
    let bm = run("Raytrace", Config::Intra(IntraConfig::BM));
    assert!(
        bm.stats.total_cycles < base.stats.total_cycles,
        "B+M ({}) must beat Base ({}) on Raytrace",
        bm.stats.total_cycles,
        base.stats.total_cycles
    );
}

/// Figure 11's qualitative claims: reductions (EP, IS) gain nothing from
/// level-adaptive instructions; Jacobi's halo exchange gains a lot; CG
/// keeps its global WBs but drops some global INVs.
#[test]
fn level_adaptive_ratios_match_paper_shape() {
    for app in inter_apps(Scale::Test) {
        let addr = run(app.name(), Config::Inter(InterConfig::Addr));
        let addrl = run(app.name(), Config::Inter(InterConfig::AddrL));
        assert!(addr.correct && addrl.correct);
        let (aw, ai) = (
            addr.stats.counters.global_wbs,
            addr.stats.counters.global_invs,
        );
        let (lw, li) = (
            addrl.stats.counters.global_wbs,
            addrl.stats.counters.global_invs,
        );
        match app.name() {
            "EP" | "IS" => {
                assert_eq!(
                    (aw, ai),
                    (lw, li),
                    "{}: reductions cannot be localized",
                    app.name()
                );
            }
            "Jacobi" => {
                assert!(
                    lw * 2 < aw,
                    "Jacobi global WBs should drop sharply: {lw} vs {aw}"
                );
                assert!(
                    li * 2 < ai,
                    "Jacobi global INVs should drop sharply: {li} vs {ai}"
                );
            }
            "CG" => {
                assert_eq!(lw, aw, "CG writes everything to L3 in both configs");
                assert!(
                    li < ai,
                    "CG's inspector must localize some INVs: {li} vs {ai}"
                );
            }
            other => panic!("unexpected app {other}"),
        }
    }
}

/// The storage model reproduces the paper's ~102 KB saving.
#[test]
fn storage_savings_match_paper() {
    let s = hic_core::storage::savings_kb(&hic_sim::MachineConfig::inter_block());
    assert!((s - 102.0).abs() < 5.0, "expected ~102 KB, got {s:.1}");
}

/// Traffic ledgers are internally consistent: every run moves some data,
/// and the Figure-10 view never exceeds the full total.
#[test]
fn traffic_ledger_consistency() {
    for cfg in IntraConfig::ALL {
        let r = run("FFT", Config::Intra(cfg));
        let t = r.stats.traffic;
        assert!(t.total() > 0);
        assert!(t.fig10_total() <= t.total());
        assert!(t.linefill > 0, "every run fills lines");
    }
}
