//! Data collection for the paper's figures.
//!
//! Each `figN_rows` function runs the relevant application suite under the
//! relevant configurations and returns structured rows; the `figures`
//! binary renders them as text tables, and `EXPERIMENTS.md` records them
//! against the paper's claims.

#![allow(clippy::needless_range_loop)]

use hic_apps::{inter_apps, intra_apps, App, Scale};
use hic_machine::RunStats;
use hic_runtime::{Config, InterConfig, IntraConfig};
use hic_sim::StallLedger;

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

fn merged(stats: &RunStats) -> StallLedger {
    stats.merged_ledger()
}

/// Run the intra-block suite and produce Figure 9 rows, including the
/// `average` pseudo-app (arithmetic mean of normalized values, as in the
/// paper's rightmost group).
pub fn fig9_rows(scale: Scale) -> Vec<Fig9Row> {
    let mut rows = Vec::new();
    let mut sums: Vec<(String, f64, [f64; 5])> = IntraConfig::ALL
        .iter()
        .map(|c| (c.name().to_string(), 0.0, [0.0; 5]))
        .collect();
    let apps = intra_apps(scale);
    for app in &apps {
        let hcc = app.run(Config::Intra(IntraConfig::Hcc));
        let hcc_total = hcc.stats.total_cycles.max(1);
        for (ci, cfg) in IntraConfig::ALL.iter().enumerate() {
            let r = if *cfg == IntraConfig::Hcc {
                hcc.clone()
            } else {
                app.run(Config::Intra(*cfg))
            };
            let ledger = merged(&r.stats);
            // The ledger sums per-core cycles; its category *shares*
            // scale the bar so the stack sums to the normalized height.
            let frac = ledger.normalized(ledger.total().max(1));
            let norm = r.stats.total_cycles as f64 / hcc_total as f64;
            let breakdown = frac.map(|f| f * norm);
            sums[ci].1 += norm;
            for k in 0..5 {
                sums[ci].2[k] += breakdown[k];
            }
            rows.push(Fig9Row {
                app: app.name().to_string(),
                config: cfg.name().to_string(),
                cycles: r.stats.total_cycles,
                normalized: norm,
                breakdown,
                correct: r.correct,
            });
        }
    }
    let n = apps.len() as f64;
    for (name, total, breakdown) in sums {
        rows.push(Fig9Row {
            app: "average".to_string(),
            config: name,
            cycles: 0,
            normalized: total / n,
            breakdown: breakdown.map(|x| x / n),
            correct: true,
        });
    }
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

/// Run the intra suite under HCC and B+M+I and report Figure 10 rows,
/// plus the `average` pseudo-app.
pub fn fig10_rows(scale: Scale) -> Vec<Fig10Row> {
    let mut rows = Vec::new();
    let mut avg = [0.0f64; 2];
    let apps = intra_apps(scale);
    for app in &apps {
        let hcc = app.run(Config::Intra(IntraConfig::Hcc));
        let bmi = app.run(Config::Intra(IntraConfig::BMI));
        let hcc_total = hcc.stats.traffic.fig10_total().max(1);
        for (i, (name, r)) in [("HCC", &hcc), ("B+M+I", &bmi)].into_iter().enumerate() {
            let t = &r.stats.traffic;
            let norm = t.fig10_total() as f64 / hcc_total as f64;
            avg[i] += norm;
            rows.push(Fig10Row {
                app: app.name().to_string(),
                config: name.to_string(),
                flits: [t.memory, t.linefill, t.writeback, t.invalidation],
                normalized: norm,
            });
        }
    }
    let n = apps.len() as f64;
    for (i, name) in ["HCC", "B+M+I"].into_iter().enumerate() {
        rows.push(Fig10Row {
            app: "average".to_string(),
            config: name.to_string(),
            flits: [0; 4],
            normalized: avg[i] / n,
        });
    }
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

/// Run the inter suite under Addr and Addr+L, counting global operations.
pub fn fig11_rows(scale: Scale) -> Vec<Fig11Row> {
    inter_apps(scale)
        .iter()
        .map(|app| {
            let a = app.run(Config::Inter(InterConfig::Addr));
            let l = app.run(Config::Inter(InterConfig::AddrL));
            assert!(a.correct && l.correct, "{} failed", app.name());
            Fig11Row {
                app: app.name().to_string(),
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

/// Run the inter suite under all four configurations.
pub fn fig12_rows(scale: Scale) -> Vec<Fig12Row> {
    let mut rows = Vec::new();
    let apps = inter_apps(scale);
    let mut sums: Vec<(String, f64)> = InterConfig::ALL
        .iter()
        .map(|c| (c.name().to_string(), 0.0))
        .collect();
    for app in &apps {
        let hcc = app.run(Config::Inter(InterConfig::Hcc));
        let hcc_total = hcc.stats.total_cycles.max(1);
        for (ci, cfg) in InterConfig::ALL.iter().enumerate() {
            let r = if *cfg == InterConfig::Hcc {
                hcc.clone()
            } else {
                app.run(Config::Inter(*cfg))
            };
            let norm = r.stats.total_cycles as f64 / hcc_total as f64;
            sums[ci].1 += norm;
            rows.push(Fig12Row {
                app: app.name().to_string(),
                config: cfg.name().to_string(),
                cycles: r.stats.total_cycles,
                normalized: norm,
                correct: r.correct,
            });
        }
    }
    let n = apps.len() as f64;
    for (name, total) in sums {
        rows.push(Fig12Row {
            app: "average".to_string(),
            config: name,
            cycles: 0,
            normalized: total / n,
            correct: true,
        });
    }
    rows
}

/// Every row of an app suite table must come from a correct run; used by
/// integration tests over the harness itself.
pub fn all_correct_fig9(rows: &[Fig9Row]) -> bool {
    rows.iter().all(|r| r.correct)
}

pub fn all_correct_fig12(rows: &[Fig12Row]) -> bool {
    rows.iter().all(|r| r.correct)
}

#[allow(unused)]
fn _suite_is_runnable(apps: &[Box<dyn App>]) {}
