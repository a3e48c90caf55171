//! The `figures` and `checked` workloads: the paper's figure grid, one
//! `App::run_req` per cell, in a seed-shuffled order.

use std::collections::BTreeMap;
use std::time::Instant;

use hic_apps::{all_apps, App, AppRun};
use hic_runtime::{
    CheckMode, Config, FaultSpec, InterConfig, IntraConfig, RunRequest, Scale, Scheme,
};
use hic_serve::JobOutcome;
use hic_sim::SplitMix64;

use crate::trace::Tracer;
use crate::{add, procfs, Bench, Round, Sizes, FLIT_KEYS};

/// The warm-up cells, run under Base during every set-up: fixed, so
/// set-up costs the same on every seed (about 0.1 s at `Small`).
const WARMUP_APPS: [&str; 2] = ["Ocean cont", "Water Nsq"];

pub struct Grid {
    checked: bool,
    apps: Vec<Box<dyn App>>,
    cells: Vec<RunRequest>,
    warmup_failures: Vec<String>,
}

fn is_hcc(config: Config) -> bool {
    matches!(
        config.scheme(),
        Scheme::Intra(IntraConfig::Hcc) | Scheme::Inter(InterConfig::Hcc)
    )
}

/// Turn a plain cell into its `checked` form: report-mode sanitizer and
/// a recoverable fault plan (link jitter, drops with retry, delayed acks,
/// clean-line bit flips). The corrupting plan with checkpoint rollback is
/// not used: at `Small` scale its modeled second upset during a rollback
/// replay kills some LU and FFT cells on about half the seeds.
fn checked_form(mut req: RunRequest, fault_seed: u64) -> RunRequest {
    req.check = CheckMode::Report;
    req.fault = Some(FaultSpec::Recoverable { seed: fault_seed });
    req
}

/// The workload's cells, shuffled by `seed`. `checked` keeps only the
/// incoherent schemes (HCC has nothing to check) and gives each cell its
/// own fault seed.
fn cells(checked: bool, seed: u64, scale: Scale) -> Vec<RunRequest> {
    let mut rng = SplitMix64::new(seed ^ 0x6772_6964);
    let mut cells: Vec<RunRequest> = hic_serve::sweep_requests(scale)
        .into_iter()
        .filter(|r| !(checked && is_hcc(r.config)))
        .map(|r| {
            if checked {
                checked_form(r, rng.next_u64())
            } else {
                r
            }
        })
        .collect();
    rng.shuffle(&mut cells);
    cells
}

/// Every reason `run` of `req` counts as failed.
fn audit(req: &RunRequest, run: &AppRun, checked: bool) -> Vec<String> {
    let key = req.cache_key();
    let mut out = Vec::new();
    if let Some(e) = &run.error {
        out.push(format!("{key}: run error {}: {e}", e.kind()));
    } else if !run.correct {
        out.push(format!("{key}: wrong result: {}", run.detail));
    }
    if checked && !run.diagnostics.findings.is_empty() {
        out.push(format!(
            "{key}: {} sanitizer findings, first: {}",
            run.diagnostics.findings.len(),
            run.diagnostics.findings[0].render()
        ));
    }
    out
}

impl Grid {
    pub fn setup(checked: bool, seed: u64, sizes: Sizes) -> Grid {
        let mut cells = cells(checked, seed, sizes.grid_scale);
        cells.truncate(sizes.grid_cells);
        let mut grid = Grid {
            checked,
            apps: all_apps(sizes.grid_scale),
            cells,
            warmup_failures: Vec::new(),
        };
        // Warm-up, in the workload's own form.
        for app in WARMUP_APPS {
            let mut warm = RunRequest::new(app, Config::Intra(IntraConfig::Base), sizes.grid_scale);
            if checked {
                warm = checked_form(warm, 0);
            }
            let run = grid.app(&warm.app).run_req(&warm);
            grid.warmup_failures.extend(audit(&warm, &run, checked));
        }
        grid
    }

    fn app(&self, name: &str) -> &dyn App {
        self.apps
            .iter()
            .find(|a| a.name() == name)
            .map(|a| a.as_ref())
            .expect("every grid cell names a suite application")
    }
}

impl Bench for Grid {
    fn round(&mut self, tracer: &Tracer) -> Round {
        let mut round = Round::default();
        let mut layer = BTreeMap::new();
        let (mut run_s, mut ops) = (0.0, 0u64);
        let (mut stall, mut core_cycles) = ([0u64; 4], 0u64);
        let cpu0 = procfs::cpu_times();
        let t0 = Instant::now();
        for (i, req) in self.cells.iter().enumerate() {
            let app = self.app(&req.app);
            let t = Instant::now();
            let run = tracer.span("runtime.run", i as u64 + 1, || app.run_req(req));
            let wall = t.elapsed();
            round.unit_ms.push(wall.as_secs_f64() * 1e3);
            run_s += wall.as_secs_f64();

            round.attempted += 1;
            round.failures.extend(audit(req, &run, self.checked));

            let s = &run.stats;
            let e = &s.engine;
            let traffic = JobOutcome::from_app_run(req, &run, wall).traffic;
            ops += e.ops_executed;
            add(&mut layer, "sim_cycles", s.total_cycles as f64);
            add(&mut layer, "sim_flits", traffic.iter().sum::<u64>() as f64);
            for (k, v) in FLIT_KEYS.into_iter().zip(traffic).chain([
                ("runtime.ops", e.ops_executed),
                ("runtime.round_trips", e.round_trips),
                ("runtime.messages", e.messages),
                ("runtime.batches", e.batches),
                ("runtime.wakeups", e.wakeups),
                ("runtime.shard_local_ops", e.shard_local_ops),
                ("runtime.lock_waits", e.lock_waits),
                ("core.wb_local", s.counters.local_wbs),
                ("core.wb_global", s.counters.global_wbs),
                ("core.inv_local", s.counters.local_invs),
                ("core.inv_global", s.counters.global_invs),
                ("core.meb_drains", s.counters.meb_drains),
                ("core.meb_overflows", s.counters.meb_overflows),
                ("core.ieb_refreshes", s.counters.ieb_refreshes),
                ("mem.lines_written_back", s.counters.lines_written_back),
                ("mem.lines_invalidated", s.counters.lines_invalidated),
                ("mem.checkpoint_words", s.resilience.checkpoint_words),
                ("check.word_checks", run.diagnostics.checks),
                ("check.findings", run.diagnostics.findings.len() as u64),
                ("fault.retries", s.resilience.retries),
                ("fault.retry_flits", s.resilience.retry_flits),
                ("fault.bit_flips", s.resilience.bit_flips),
                ("fault.flips_recovered", s.resilience.flips_recovered),
                ("fault.delayed_acks", s.resilience.delayed_acks),
                ("fault.rollbacks", s.resilience.rollbacks),
                ("fault.rollback_cycles", s.resilience.rollback_cycles),
            ]) {
                add(&mut layer, k, v as f64);
            }
            let l = s.merged_ledger();
            for (acc, v) in stall.iter_mut().zip([l.inv, l.wb, l.lock, l.barrier]) {
                *acc += v;
            }
            core_cycles += l.total();
        }
        round.elapsed_s = t0.elapsed().as_secs_f64();
        round.wall_s = round.elapsed_s;
        round.cpu = procfs::cpu_times().since(&cpu0);

        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let rt = layer.get("runtime.round_trips").copied().unwrap_or(0.0);
        layer.insert("runtime.round_trips_per_op", ratio(rt, ops as f64));
        layer.insert("runtime.ns_per_op", ratio(run_s * 1e9, ops as f64));
        layer.insert("runtime.mops_per_s", ratio(ops as f64 / 1e6, run_s));
        for (k, v) in [
            "machine.stall_frac.inv",
            "machine.stall_frac.wb",
            "machine.stall_frac.lock",
            "machine.stall_frac.barrier",
        ]
        .into_iter()
        .zip(stall)
        {
            layer.insert(k, ratio(v as f64, core_cycles as f64));
        }
        round.layer = layer;
        round
    }

    fn warmup_failures(&self) -> Vec<String> {
        self.warmup_failures.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_order_and_fault_seeds_follow_the_seed() {
        let keys = |checked, seed| -> Vec<String> {
            cells(checked, seed, Scale::Test)
                .iter()
                .map(RunRequest::cache_key)
                .collect()
        };
        assert_eq!(keys(false, 1), keys(false, 1));
        assert_ne!(keys(false, 1), keys(false, 2));
        assert_eq!(keys(false, 1).len(), 71);
        let mut a = keys(false, 1);
        let mut b = keys(false, 2);
        a.sort();
        b.sort();
        assert_eq!(a, b, "every seed runs the same 71 cells");

        assert_eq!(keys(true, 1), keys(true, 1));
        assert_ne!(keys(true, 1), keys(true, 2));
        let checked = cells(true, 1, Scale::Test);
        assert_eq!(checked.len(), 56);
        assert!(checked.iter().all(|r| !is_hcc(r.config)
            && r.check == CheckMode::Report
            && matches!(r.fault, Some(FaultSpec::Recoverable { .. }))));
    }
}
