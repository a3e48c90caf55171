//! The paper's full figure set as one queued sweep.
//!
//! [`sweep_requests`] enumerates every (app, configuration) cell of the
//! evaluation — the 11 intra-block apps under all 5 intra schemes plus
//! the 4 inter-block apps under all 4 inter schemes — as explicit
//! [`RunRequest`]s. Submitted through the server (socket or in-process)
//! and collected with [`figures_json`], the outcomes reproduce the data
//! behind Figures 9, 10, and 12 in one `BENCH_figures.json`:
//! per-cell cycles, traffic, and correctness, plus execution time
//! normalized to each app's HCC run (the paper's presentation).

use std::sync::Arc;

use hic_apps::{inter_apps, intra_apps, Scale};
use hic_runtime::{Config, InterConfig, IntraConfig, RunRequest};
use hic_sim::Json;

use crate::job::JobOutcome;

/// Every (app, configuration) cell of the paper's figure set at
/// `scale`, in figure order.
pub fn sweep_requests(scale: Scale) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for app in intra_apps(scale) {
        for cfg in IntraConfig::ALL {
            reqs.push(RunRequest::new(app.name(), Config::Intra(cfg), scale));
        }
    }
    for app in inter_apps(scale) {
        for cfg in InterConfig::ALL {
            reqs.push(RunRequest::new(app.name(), Config::Inter(cfg), scale));
        }
    }
    reqs
}

/// Assemble `BENCH_figures.json` from typed outcomes (the in-process
/// batch path). `cached` flags ride along per outcome.
pub fn figures_json(scale: Scale, outcomes: &[(Arc<JobOutcome>, bool)]) -> Json {
    figures_json_rows(
        scale.name(),
        outcomes.iter().map(|(o, c)| o.to_json(*c)).collect(),
    )
}

/// Assemble `BENCH_figures.json` from outcome rows as the wire protocol
/// delivers them (the socket batch path — the client never rebuilds
/// typed outcomes). Each row gains `norm_cycles`: cycles normalized to
/// the same app's HCC cell in the same family (the y-axis of Figures 9
/// and 12), `null` when that cell is absent or failed.
pub fn figures_json_rows(scale_name: &str, rows: Vec<Json>) -> Json {
    let field = |row: &Json, k: &str| row.get(k).and_then(Json::as_str).map(str::to_string);
    let failed_row = |row: &Json| row.get("error") != Some(&Json::Null);
    let hcc_cycles = |row: &Json| -> Option<u64> {
        let (app, family) = (field(row, "app")?, field(row, "family")?);
        rows.iter()
            .find(|r| {
                field(r, "app").as_deref() == Some(&app)
                    && field(r, "family").as_deref() == Some(&family)
                    && field(r, "scheme").as_deref() == Some("HCC")
                    && !failed_row(r)
            })
            .and_then(|r| r.get("cycles").and_then(Json::as_u64))
            .filter(|&c| c > 0)
    };

    let total = rows.len() as u64;
    let cached = rows
        .iter()
        .filter(|r| r.get("cached") == Some(&Json::Bool(true)))
        .count() as u64;
    let failed = rows.iter().filter(|r| failed_row(r)).count() as u64;
    let correct = rows
        .iter()
        .filter(|r| r.get("correct") == Some(&Json::Bool(true)) && !failed_row(r))
        .count() as u64;

    let rows_out: Vec<Json> = rows
        .iter()
        .map(|row| {
            let norm = match (hcc_cycles(row), row.get("cycles").and_then(Json::as_u64)) {
                (Some(base), Some(cycles)) if !failed_row(row) => {
                    Json::Num(cycles as f64 / base as f64)
                }
                _ => Json::Null,
            };
            let mut row = row.clone();
            if let Json::Obj(fields) = &mut row {
                fields.push(("norm_cycles".to_string(), norm));
            }
            row
        })
        .collect();

    Json::obj([
        ("schema", Json::uint(1)),
        ("scale", Json::str(scale_name)),
        ("jobs", Json::uint(total)),
        ("correct", Json::uint(correct)),
        ("failed", Json::uint(failed)),
        ("cache_hits", Json::uint(cached)),
        ("rows", Json::Arr(rows_out)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_figure_cell() {
        let reqs = sweep_requests(Scale::Test);
        // 11 intra apps x 5 schemes + 4 inter apps x 4 schemes.
        assert_eq!(reqs.len(), 11 * 5 + 4 * 4);
        let keys: std::collections::HashSet<String> = reqs.iter().map(|r| r.cache_key()).collect();
        assert_eq!(keys.len(), reqs.len(), "sweep cells must have unique keys");
        assert!(reqs.iter().all(|r| r.scale == Scale::Test));
    }

    #[test]
    fn rows_are_normalized_to_the_apps_hcc_cell() {
        let row = |app: &str, scheme: &str, cycles: u64, error: Json| {
            Json::obj([
                ("app", Json::str(app)),
                ("scheme", Json::str(scheme)),
                ("family", Json::str("intra")),
                ("correct", Json::Bool(true)),
                ("cycles", Json::uint(cycles)),
                ("error", error),
                ("cached", Json::Bool(false)),
            ])
        };
        let doc = figures_json_rows(
            "test",
            vec![
                row("FFT", "HCC", 100, Json::Null),
                row("FFT", "Base", 150, Json::Null),
                row("FFT", "B+M+I", 0, Json::str("hang")),
            ],
        );
        assert_eq!(doc.get("jobs").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("correct").and_then(Json::as_u64), Some(2));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("norm_cycles"), Some(&Json::Num(1.0)));
        assert_eq!(rows[1].get("norm_cycles"), Some(&Json::Num(1.5)));
        assert_eq!(rows[2].get("norm_cycles"), Some(&Json::Null));
    }
}
