//! `compare <dirA> <dirB>`: the benchmark's verdict on a change, per
//! workload, from two directories of per-run result files (`A` is the
//! parent, `B` the change).
//!
//! Per (workload, metric), runs are paired in file-name order. The
//! change counts as *improved* when there are at least ten pairs, it
//! wins at least nine tenths of them (ties count for neither side), and
//! its median beats the parent's by more than the parent's quartile
//! spread. It is *worse* when its median is worse than the parent's by
//! more than the metric's bound. When the parent's own spread is wider
//! than the bound the metric is *unresolved*, unless every run of the
//! change beats every run of the parent. Anything else is *no change*.
//! A change whose runs fail more units than the parent's is *worse*.

use std::collections::BTreeMap;
use std::path::Path;

use hic_serve::Json;

use crate::stats;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoChange,
    Unresolved,
    Worse,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoChange => "no change",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// The end-to-end metrics of a `BENCHMARK.json` document.
pub fn declared(doc: &Json) -> Result<Vec<Declared>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            let bound = match m.get("bound") {
                Some(Json::Num(b)) => *b,
                _ => return Err(format!("{name}: no numeric bound")),
            };
            Ok(Declared {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// The verdict on one metric, with both medians.
pub fn judge(m: &Declared, parent: &[f64], change: &[f64]) -> (Verdict, f64, f64) {
    let (Some(ma), Some(mb)) = (stats::median(parent), stats::median(change)) else {
        return (Verdict::Unresolved, f64::NAN, f64::NAN);
    };
    let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&a, &b)| better(b, a))
        .count();
    let (q1, q3) = stats::quartiles(parent).unwrap_or((ma, ma));
    let worsening = if m.lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    let all_better = change.iter().all(|&b| parent.iter().all(|&a| better(b, a)));
    let verdict =
        if pairs >= 10 && wins * 10 >= pairs * 9 && better(mb, ma) && (mb - ma).abs() > q3 - q1 {
            Verdict::Improved
        } else if worsening > m.bound {
            Verdict::Worse
        } else if (q3 - q1) / ma.abs() > m.bound && !all_better {
            Verdict::Unresolved
        } else {
            Verdict::NoChange
        };
    (verdict, ma, mb)
}

/// Per-run results of one directory, grouped by workload (the file-name
/// prefix before the first `-`) in file-name order.
pub fn load_dir(dir: &Path) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    let mut out: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for path in names {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let workload = stem.split('-').next().unwrap_or(stem).to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        out.entry(workload).or_default().push(doc);
    }
    Ok(out)
}

fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| match r.get("metrics")?.get(metric)?.get("value")? {
            Json::Num(v) => Some(*v),
            _ => None,
        })
        .collect()
}

fn failed(runs: &[Json]) -> u64 {
    runs.iter()
        .map(|r| r.get("failed").and_then(Json::as_u64).unwrap_or(u64::MAX))
        .sum()
}

/// One row per workload present in both directories: the overall verdict
/// (the worst of its metrics) and each metric's verdict with its change
/// of median.
pub fn compare(
    metrics: &[Declared],
    parent: &BTreeMap<String, Vec<Json>>,
    change: &BTreeMap<String, Vec<Json>>,
) -> Vec<(String, Verdict, String)> {
    let mut rows = Vec::new();
    for (workload, a) in parent {
        let Some(b) = change.get(workload) else {
            continue;
        };
        let mut cells = vec![format!("runs {}/{}", a.len(), b.len())];
        let mut verdicts = Vec::new();
        if failed(b) > failed(a) {
            verdicts.push(Verdict::Worse);
            cells.push(format!("failed units {} -> {}", failed(a), failed(b)));
        }
        for m in metrics {
            let (va, vb) = (values(a, &m.name), values(b, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (v, ma, mb) = judge(m, &va, &vb);
            verdicts.push(v);
            cells.push(format!(
                "{}={} ({:+.1}%)",
                m.name,
                v.label(),
                (mb / ma - 1.0) * 100.0
            ));
        }
        let overall = if verdicts.contains(&Verdict::Worse) {
            Verdict::Worse
        } else if verdicts.contains(&Verdict::Unresolved) {
            Verdict::Unresolved
        } else if verdicts.contains(&Verdict::Improved) {
            Verdict::Improved
        } else {
            Verdict::NoChange
        };
        rows.push((workload.clone(), overall, cells.join("  ")));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall(bound: f64) -> Declared {
        Declared {
            name: "wall_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn pairing_rule_and_bounds() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * i as f64).collect();
        // Faster in every pair, by far more than the parent's spread.
        let fast: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&wall(0.1), &parent, &fast).0, Verdict::Improved);
        // The same gain over nine pairs cannot be claimed.
        assert_eq!(
            judge(&wall(0.1), &parent[..9], &fast[..9]).0,
            Verdict::NoChange
        );
        // Slower beyond the bound.
        let slow: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&wall(0.1), &parent, &slow).0, Verdict::Worse);
        // Slower within the bound.
        let slightly: Vec<f64> = parent.iter().map(|x| x * 1.05).collect();
        assert_eq!(judge(&wall(0.1), &parent, &slightly).0, Verdict::NoChange);
        // A parent noisier than the bound leaves a small change unresolved.
        let noisy: Vec<f64> = (0..10).map(|i| 10.0 + (i % 5) as f64).collect();
        let same = noisy.clone();
        assert_eq!(judge(&wall(0.1), &noisy, &same).0, Verdict::Unresolved);
        // Higher-is-better metrics flip every comparison.
        let rate = Declared {
            name: "rate".into(),
            lower_is_better: false,
            bound: 0.1,
        };
        assert_eq!(judge(&rate, &parent, &slow).0, Verdict::Improved);
        assert_eq!(judge(&rate, &parent, &fast).0, Verdict::Worse);
    }

    #[test]
    fn rows_take_the_worst_metric_and_count_failures() {
        let run = |wall: f64, failed: u64| {
            Json::parse(&format!(
                r#"{{"correct": true, "attempted": 5, "failed": {failed},
                    "metrics": {{"wall_s": {{"value": {wall}, "unit": "s"}}}}}}"#
            ))
            .unwrap()
        };
        let metrics = [wall(0.1)];
        let parent = BTreeMap::from([("figures".to_string(), vec![run(10.0, 0); 3])]);
        let same = BTreeMap::from([("figures".to_string(), vec![run(10.1, 0); 3])]);
        let failing = BTreeMap::from([("figures".to_string(), vec![run(10.0, 1); 3])]);
        let rows = compare(&metrics, &parent, &same);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, Verdict::NoChange, "{}", rows[0].2);
        assert_eq!(compare(&metrics, &parent, &failing)[0].1, Verdict::Worse);
    }
}
