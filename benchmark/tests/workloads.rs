//! Every workload end to end at reduced size, through the library API,
//! plus the agreement between the code and `BENCHMARK.json`.

use hic_benchmark::{run, trace, Opts, Workload, END_TO_END, PER_LAYER};
use hic_serve::Json;

fn opts(workload: Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 5,
        trace,
        reduced: true,
    }
}

#[test]
fn every_workload_runs_correct_and_reports_every_end_to_end_metric() {
    for w in Workload::ALL {
        let out = run(&opts(w, false));
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        assert!(out.attempted > 1, "{}", w.name());
        let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, declared, "{}", w.name());
        for (name, value, _) in &out.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                w.name()
            );
        }
        let doc = Json::parse(&out.to_json().to_string()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    }
}

#[test]
fn traced_runs_report_every_layer_and_account_for_their_wall() {
    for w in [Workload::Figures, Workload::Serve] {
        let out = run(&opts(w, true));
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, declared, "{}", w.name());
        assert!(out.metric("sim_cycles").unwrap() > 0.0);
        assert!(out.metric("machine.build_ms.inter32").unwrap() > 0.0);

        let self_total: f64 = trace::self_times(&out.spans).values().sum();
        let gap = (self_total - out.timed_s).abs() / out.timed_s;
        assert!(
            gap < 0.05,
            "{}: self {self_total} vs wall {}",
            w.name(),
            out.timed_s
        );
        let doc = Json::parse(&trace::chrome_json(&out.spans).to_string()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), out.spans.len());
    }
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let code = |defs: &[(&str, &str)]| -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), code(END_TO_END));
    assert_eq!(list("per_layer"), code(PER_LAYER));
    let workloads: Vec<String> = list("workloads").into_iter().map(|w| w.0).collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}
