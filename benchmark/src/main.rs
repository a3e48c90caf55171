//! Command line of the benchmark.
//!
//! ```text
//! hic-benchmark run --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--trace-out <file>]
//! hic-benchmark run --all [--seed <n>] [--out <dir>]
//! hic-benchmark compare <dirA> <dirB>
//! ```
//!
//! `run` prints every metric as `name value unit`, then the result as one
//! JSON line, and exits 1 when any unit failed. See README.md.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use hic_benchmark::{compare, run, trace, Opts, Outcome, Workload};
use hic_serve::Json;

/// Seed of `run` when none is given.
const DEFAULT_SEED: u64 = 1;
/// The time one run is sized for; `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  hic-benchmark run --workload <figures|checked|serve|fuzz> --seed <n> [--seconds <s>] [--trace 0|1] [--trace-out <file>]
  hic-benchmark run --all [--seed <n>] [--out <dir>]
  hic-benchmark compare <dirA> <dirB>   (run where BENCHMARK.json is)";

struct Args(Vec<String>);

impl Args {
    /// Remove `--name value` and return the value.
    fn take(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let v = self.0.remove(i + 1);
        self.0.remove(i);
        Ok(Some(v))
    }

    fn flag(&mut self, name: &str) -> bool {
        let found = self.0.iter().position(|a| a == name);
        if let Some(i) = found {
            self.0.remove(i);
        }
        found.is_some()
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.take(name)?
            .map(|v| v.parse().map_err(|_| format!("bad {name} {v:?}")))
            .transpose()
    }

    fn done(&self) -> Result<(), String> {
        match self.0.first() {
            Some(a) => Err(format!("unexpected argument {a:?}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    // The benchmark measures the defaults: no environment knob may change
    // what a run does.
    for (k, _) in std::env::vars() {
        if k.starts_with("HIC_") {
            std::env::remove_var(k);
        }
    }
    let mut args = Args(std::env::args().skip(1).collect());
    let cmd = if args.0.is_empty() {
        String::new()
    } else {
        args.0.remove(0)
    };
    let result = match cmd.as_str() {
        "run" if args.flag("--all") => run_all(args),
        "run" => run_one(args),
        "compare" => run_compare(args),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("hic-benchmark: {e}");
        ExitCode::from(2)
    })
}

fn run_one(mut args: Args) -> Result<ExitCode, String> {
    let name = args.take("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = args.parsed("--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let trace = match args.take("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, not {v:?}")),
    };
    let trace_out = args
        .take("--trace-out")?
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{name}-{seed}.json"))
        });
    args.done()?;

    let outcome = run(&Opts {
        workload,
        seed,
        trace,
        reduced: false,
    });
    if trace {
        write_trace(&outcome, &trace_out)?;
    }
    if !trace && outcome.timed_s > seconds {
        eprintln!(
            "note {name}: the timed phase took {:.1} s, over the {seconds} s it is sized for",
            outcome.timed_s
        );
    }
    for f in &outcome.failures {
        eprintln!("FAIL {name}: {f}");
    }
    for (n, v, u) in &outcome.metrics {
        println!("{n} {v} {u}");
    }
    println!("{}", outcome.to_json());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Write the Chrome trace and print self time per layer.
fn write_trace(outcome: &Outcome, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, trace::chrome_json(&outcome.spans).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut by_layer = std::collections::BTreeMap::new();
    for (span, secs) in trace::self_times(&outcome.spans) {
        let layer = span.split('.').next().unwrap_or(span);
        *by_layer.entry(layer).or_insert(0.0) += secs;
    }
    let total: f64 = by_layer.values().sum();
    println!("trace {} ({} spans)", path.display(), outcome.spans.len());
    for (layer, secs) in &by_layer {
        println!(
            "self time {layer:<8} {secs:.3} s ({:.1}%)",
            100.0 * secs / total
        );
    }
    println!(
        "self time total {total:.3} s of traced wall {:.3} s",
        outcome.timed_s
    );
    Ok(())
}

/// Every workload in turn, each in a child process.
fn run_all(mut args: Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let out = args.take("--out")?.map(PathBuf::from);
    args.done()?;
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["run", "--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &DEFAULT_SECONDS.to_string(), "--trace", "0"])
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        ok &= child.status.success();
        let last = stdout.lines().last().unwrap_or_default();
        if let (Some(dir), Ok(_)) = (&out, Json::parse(last)) {
            let path = (1..)
                .map(|k| dir.join(format!("{}-s{seed}-r{k:02}.json", w.name())))
                .find(|p| !p.exists())
                .expect("some run index is free");
            std::fs::write(&path, format!("{last}\n"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(args: Args) -> Result<ExitCode, String> {
    const SPEC: &str = "BENCHMARK.json";
    if args.0.len() != 2 {
        return Err(USAGE.to_string());
    }
    let text = std::fs::read_to_string(SPEC).map_err(|e| format!("{SPEC}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{SPEC}: {e}"))?;
    let metrics = compare::declared(&doc)?;
    let parent = compare::load_dir(Path::new(&args.0[0]))?;
    let change = compare::load_dir(Path::new(&args.0[1]))?;
    let rows = compare::compare(&metrics, &parent, &change);
    if rows.is_empty() {
        return Err("no workload has results in both directories".to_string());
    }
    let mut worse = false;
    for (workload, verdict, detail) in rows {
        println!("{workload:<8} {:<10} {detail}", verdict.label());
        worse |= verdict == compare::Verdict::Worse;
    }
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
