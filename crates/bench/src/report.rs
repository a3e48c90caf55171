//! Data collection for the paper's figures.
//!
//! Each `figN_rows` function turns runs of the paper grid
//! ([`crate::host::run_grid`]) into structured rows, reading each cell it
//! needs from the runs it is given; the `figures` binary simulates every
//! cell once, renders the rows as text tables, and `EXPERIMENTS.md`
//! records them against the paper's claims.

use hic_apps::AppRun;
use hic_runtime::{Config, InterConfig, IntraConfig};

/// The run of `app` under `config` among `runs`.
fn cell<'a>(runs: &'a [AppRun], app: &str, config: Config) -> &'a AppRun {
    runs.iter()
        .find(|r| r.name == app && r.config == config)
        .unwrap_or_else(|| panic!("no {app} / {} run among the grid runs", config.name()))
}

/// One bar of Figure 9: an (app, config) execution, with the stall
/// breakdown, normalized to the app's HCC total.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    pub app: String,
    pub config: String,
    pub cycles: u64,
    /// Total normalized to HCC.
    pub normalized: f64,
    /// [inv, wb, lock, barrier, rest] as fractions of the HCC total.
    pub breakdown: [f64; 5],
    pub correct: bool,
}

/// Figure 9 rows from the intra-block runs among `runs`, plus the
/// `average` pseudo-app (arithmetic mean of normalized values, as in the
/// paper's rightmost group).
pub fn fig9_rows(runs: &[AppRun]) -> Vec<Fig9Row> {
    let mut rows: Vec<Fig9Row> = runs
        .iter()
        .filter(|r| r.config.intra().is_some())
        .map(|r| {
            let hcc = cell(runs, &r.name, Config::Intra(IntraConfig::Hcc));
            let hcc_total = hcc.stats.total_cycles.max(1);
            let ledger = r.stats.merged_ledger();
            // The ledger sums per-core cycles; its category *shares*
            // scale the bar so the stack sums to the normalized height.
            let frac = ledger.normalized(ledger.total().max(1));
            let norm = r.stats.total_cycles as f64 / hcc_total as f64;
            Fig9Row {
                app: r.name.clone(),
                config: r.config.name().to_string(),
                cycles: r.stats.total_cycles,
                normalized: norm,
                breakdown: frac.map(|f| f * norm),
                correct: r.correct,
            }
        })
        .collect();
    let averages = IntraConfig::ALL.map(|cfg| {
        let bars = || rows.iter().filter(|r| r.config == cfg.name());
        Fig9Row {
            app: "average".to_string(),
            config: cfg.name().to_string(),
            cycles: 0,
            normalized: mean(bars().map(|b| b.normalized)),
            breakdown: std::array::from_fn(|k| mean(bars().map(|b| b.breakdown[k]))),
            correct: true,
        }
    });
    rows.extend(averages);
    rows
}

/// One bar pair of Figure 10: B+M+I network traffic vs HCC, in flits,
/// broken into the paper's four categories.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    pub app: String,
    pub config: String,
    /// [memory, linefill, writeback, invalidation] flits.
    pub flits: [u64; 4],
    /// Total (of those categories) normalized to the app's HCC total.
    pub normalized: f64,
}

/// Figure 10 rows from the HCC and B+M+I intra-block runs among `runs`,
/// plus the `average` pseudo-app.
pub fn fig10_rows(runs: &[AppRun]) -> Vec<Fig10Row> {
    let bars = [IntraConfig::Hcc, IntraConfig::BMI];
    let mut rows: Vec<Fig10Row> = runs
        .iter()
        .filter(|r| r.config.intra().is_some_and(|c| bars.contains(&c)))
        .map(|r| {
            let hcc = cell(runs, &r.name, Config::Intra(IntraConfig::Hcc));
            let hcc_total = hcc.stats.traffic.fig10_total().max(1);
            let t = &r.stats.traffic;
            Fig10Row {
                app: r.name.clone(),
                config: r.config.name().to_string(),
                flits: [t.memory, t.linefill, t.writeback, t.invalidation],
                normalized: t.fig10_total() as f64 / hcc_total as f64,
            }
        })
        .collect();
    let averages = bars.map(|cfg| Fig10Row {
        app: "average".to_string(),
        config: cfg.name().to_string(),
        flits: [0; 4],
        normalized: mean(
            rows.iter()
                .filter(|r| r.config == cfg.name())
                .map(|r| r.normalized),
        ),
    });
    rows.extend(averages);
    rows
}

/// One group of Figure 11: global WB / INV counts under Addr+L,
/// normalized to Addr.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    pub app: String,
    pub addr_global_wbs: u64,
    pub addr_global_invs: u64,
    pub addrl_global_wbs: u64,
    pub addrl_global_invs: u64,
    /// Addr+L / Addr ratios.
    pub wb_ratio: f64,
    pub inv_ratio: f64,
}

/// Figure 11 rows from the Addr and Addr+L inter-block runs among `runs`.
pub fn fig11_rows(runs: &[AppRun]) -> Vec<Fig11Row> {
    runs.iter()
        .filter(|r| r.config.inter() == Some(InterConfig::Addr))
        .map(|a| {
            let l = cell(runs, &a.name, Config::Inter(InterConfig::AddrL));
            assert!(a.correct && l.correct, "{} failed", a.name);
            Fig11Row {
                app: a.name.clone(),
                addr_global_wbs: a.stats.counters.global_wbs,
                addr_global_invs: a.stats.counters.global_invs,
                addrl_global_wbs: l.stats.counters.global_wbs,
                addrl_global_invs: l.stats.counters.global_invs,
                wb_ratio: l.stats.counters.global_wbs as f64
                    / a.stats.counters.global_wbs.max(1) as f64,
                inv_ratio: l.stats.counters.global_invs as f64
                    / a.stats.counters.global_invs.max(1) as f64,
            }
        })
        .collect()
}

/// One bar of Figure 12: inter-block normalized execution time.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    pub app: String,
    pub config: String,
    pub cycles: u64,
    pub normalized: f64,
    pub correct: bool,
}

/// Figure 12 rows from the inter-block runs among `runs`, plus the
/// `average` pseudo-app.
pub fn fig12_rows(runs: &[AppRun]) -> Vec<Fig12Row> {
    let mut rows: Vec<Fig12Row> = runs
        .iter()
        .filter(|r| r.config.inter().is_some())
        .map(|r| {
            let hcc = cell(runs, &r.name, Config::Inter(InterConfig::Hcc));
            Fig12Row {
                app: r.name.clone(),
                config: r.config.name().to_string(),
                cycles: r.stats.total_cycles,
                normalized: r.stats.total_cycles as f64 / hcc.stats.total_cycles.max(1) as f64,
                correct: r.correct,
            }
        })
        .collect();
    let averages = InterConfig::ALL.map(|cfg| Fig12Row {
        app: "average".to_string(),
        config: cfg.name().to_string(),
        cycles: 0,
        normalized: mean(
            rows.iter()
                .filter(|r| r.config == cfg.name())
                .map(|r| r.normalized),
        ),
        correct: true,
    });
    rows.extend(averages);
    rows
}

/// Arithmetic mean, summed in order (the paper's `average` bars).
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0), |(sum, n), v| (sum + v, n + 1));
    sum / n as f64
}
