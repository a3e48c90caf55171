//! `hic-lint` — statically verify and optimize the recorded app suite.
//!
//! For every app that exposes a [`ProgramRecord`](hic_runtime::ProgramRecord)
//! and every incoherent inter-block configuration, verify WB/INV
//! sufficiency (no cycle simulated), then run the optimizer and report
//! what it pruned / downgraded. Exit status is nonzero when any record
//! has findings or structural errors.
//!
//! `--json` emits one machine-readable document instead of the human
//! report (same exit status): `{"records":[{"app","config","report",
//! "opt"}],"checked":N,"dirty":N}` with the stable finding schema of
//! [`LintFinding::to_json`](hic_lint::LintFinding::to_json).
//!
//! Usage: `hic-lint [--scale test|small|medium|large|paper] [--json] [--verbose]
//! [name-filter ...]`

use hic_apps::inter::ep::EpHier;
use hic_apps::{inter_apps, App, Scale};
use hic_lint::{lint, optimize};
use hic_runtime::{Config, InterConfig};
use hic_sim::Json;

fn main() {
    let mut scale = Scale::Test;
    let mut verbose = false;
    let mut json = false;
    let mut filters: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let name = args.next().unwrap_or_default();
                scale = Scale::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown scale {name:?} (use test|small|medium|large|paper)");
                    std::process::exit(2);
                });
            }
            "--verbose" | "-v" => verbose = true,
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: hic-lint [--scale test|small|medium|large|paper] [--json] \
                     [--verbose] [name ...]"
                );
                return;
            }
            f => filters.push(f.to_ascii_lowercase()),
        }
    }

    let mut apps: Vec<Box<dyn App>> = inter_apps(scale);
    apps.push(Box::new(EpHier::new(scale)));
    let configs = [
        Config::Inter(InterConfig::Base),
        Config::Inter(InterConfig::Addr),
        Config::Inter(InterConfig::AddrL),
    ];

    let mut checked = 0usize;
    let mut dirty = 0usize;
    let mut records: Vec<Json> = Vec::new();
    for app in &apps {
        let name = app.name();
        if !filters.is_empty()
            && !filters
                .iter()
                .any(|f| name.to_ascii_lowercase().contains(f))
        {
            continue;
        }
        let mut any_record = false;
        for config in configs {
            let Some(rec) = app.record(config) else {
                continue;
            };
            any_record = true;
            checked += 1;
            let report = lint(&rec);
            if !report.is_clean() {
                dirty += 1;
            }
            if json {
                let opt = if report.is_clean() {
                    let out = optimize(&rec);
                    Json::obj([("stats", out.stats.to_json()), ("clean", Json::Bool(true))])
                } else {
                    Json::Null
                };
                records.push(Json::obj([
                    ("app", Json::str(name)),
                    ("config", Json::str(config.name())),
                    ("report", report.to_json()),
                    ("opt", opt),
                ]));
                continue;
            }
            if report.is_clean() {
                let out = optimize(&rec);
                println!(
                    "{name:>8} {:<6} clean ({} checks, {} words) | {}",
                    config.name(),
                    report.checks,
                    report.tracked_words,
                    out.stats.render()
                );
                if verbose && !out.overrides.is_empty() {
                    println!("         reverify: {}", out.reverify.render().trim_end());
                }
            } else {
                println!(
                    "{name:>8} {:<6} {} finding(s), {} error(s)",
                    config.name(),
                    report.findings.len(),
                    report.errors.len()
                );
                print!("{}", report.render());
            }
        }
        if !any_record && !json {
            println!("{name:>8} (no record — skipped)");
        }
    }
    if json {
        let doc = Json::obj([
            ("records", Json::Arr(records)),
            ("checked", Json::uint(checked as u64)),
            ("dirty", Json::uint(dirty as u64)),
        ]);
        println!("{doc}");
    } else {
        println!("---");
        println!("{checked} records linted, {dirty} with findings");
    }
    if dirty > 0 {
        std::process::exit(1);
    }
}
