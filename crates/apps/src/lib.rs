//! Applications for evaluating the hardware-incoherent hierarchy.
//!
//! Two suites, mirroring the paper's evaluation (§VI):
//!
//! * **intra-block** (programming model 1, run on the 16-core single-block
//!   machine): kernels re-derived from the SPLASH-2 applications with the
//!   same synchronization and communication structure — FFT, LU
//!   (contiguous and non-contiguous), Cholesky, Barnes, Raytrace, Volrend,
//!   Ocean (contiguous and non-contiguous), and Water (nsquared and
//!   spatial);
//! * **inter-block** (programming model 2, run on the 4x8 machine):
//!   NAS-style EP, IS, and CG, plus a 2D Jacobi solver, instrumented with
//!   plans from the `hic-analysis` mini-compiler.
//!
//! Every application checks its numerical result against a deterministic
//! host-side reference of the *same* algorithm, so a stale read caused by
//! a wrong annotation policy fails the run visibly.

// Index-style loops mirror the host/simulated math side by side; the
// lint's iterator rewrites would obscure that symmetry.
#![allow(clippy::needless_range_loop)]

pub mod inter;
pub mod intra;
pub mod patterns;

pub use patterns::{PatternInfo, SyncPattern};

use hic_machine::RunStats;
use hic_runtime::{Config, InterConfig, IntraConfig, ProgramRecord, RunError};

// `Scale` lives with `RunRequest` in hic-runtime now (a request names
// its scale); re-exported here so `hic_apps::Scale` keeps working.
pub use hic_runtime::{RunRequest, Scale};

/// The result of one application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    pub name: String,
    pub config: Config,
    pub stats: RunStats,
    /// What the incoherence sanitizer observed (empty/`Off` unless the
    /// request asked for a check mode — see hic-check).
    pub diagnostics: hic_runtime::Diagnostics,
    /// Did the simulated result match the host reference?
    pub correct: bool,
    /// Human-readable note (what was checked, residuals, ...).
    pub detail: String,
    /// The typed error that killed the run, when it failed. A failed
    /// run's `stats` cover the simulation up to the failure point and
    /// `correct` is `false` (the result was never produced).
    pub error: Option<RunError>,
}

impl AppRun {
    /// Assemble the result of a finished run. `correct` is the app's
    /// host-reference verdict over the final memory; a run that died
    /// never produced its result, so the verdict is forced to `false`
    /// and the typed error is attached.
    pub fn finish(
        name: &str,
        config: Config,
        out: &hic_runtime::RunOutcome,
        correct: bool,
        detail: String,
    ) -> AppRun {
        let error = out.result().err().cloned();
        AppRun {
            name: name.to_string(),
            config,
            stats: out.stats().clone(),
            diagnostics: out.diagnostics().clone(),
            correct: correct && error.is_none(),
            detail,
            error,
        }
    }
}

/// A runnable application.
///
/// The one entry point is [`App::run_req`]: the app executes exactly
/// what the [`RunRequest`] describes — nothing is read from the
/// environment, so concurrent runs (the `hic-serve` worker pool) cannot
/// leak state into each other, and a request's `cache_key` fully
/// determines the result.
pub trait App: Sync {
    /// Short name, as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// The input-size class this instance was constructed with.
    fn scale(&self) -> Scale;

    /// Communication patterns (Table I).
    fn patterns(&self) -> PatternInfo;

    /// Run exactly what `req` describes and validate the result. The
    /// request's `config` selects the scheme and machine; its check /
    /// fault / engine / watchdog / override fields are applied to the
    /// run verbatim (`ProgramBuilder::apply_request`). Apps without plan
    /// sites ignore `req.plan_overrides`.
    fn run_req(&self, req: &RunRequest) -> AppRun;

    /// The app's declarative [`ProgramRecord`] under a configuration —
    /// its sync structure, per-epoch region access summaries, and the
    /// `EpochPlan` at every plan call site — for `hic-lint`'s static
    /// verifier/optimizer. `None` when the app has no recorded form
    /// (model-1 apps, or data-dependent control flow the record format
    /// cannot express).
    fn record(&self, config: Config) -> Option<ProgramRecord> {
        let _ = config;
        None
    }
}

/// The intra-block suite at a given scale, in the paper's Figure 9 order.
pub fn intra_apps(scale: Scale) -> Vec<Box<dyn App>> {
    vec![
        Box::new(intra::fft::Fft::new(scale)),
        Box::new(intra::lu::Lu::new(scale, true)),
        Box::new(intra::lu::Lu::new(scale, false)),
        Box::new(intra::cholesky::Cholesky::new(scale)),
        Box::new(intra::barnes::Barnes::new(scale)),
        Box::new(intra::raytrace::Raytrace::new(scale)),
        Box::new(intra::volrend::Volrend::new(scale)),
        Box::new(intra::ocean::Ocean::new(scale, true)),
        Box::new(intra::ocean::Ocean::new(scale, false)),
        Box::new(intra::water::Water::new(scale, true)),
        Box::new(intra::water::Water::new(scale, false)),
    ]
}

/// The inter-block suite at a given scale (EP, IS, CG, Jacobi).
pub fn inter_apps(scale: Scale) -> Vec<Box<dyn App>> {
    vec![
        Box::new(inter::ep::Ep::new(scale)),
        Box::new(inter::is::Is::new(scale)),
        Box::new(inter::cg::Cg::new(scale)),
        Box::new(inter::jacobi::Jacobi::new(scale)),
    ]
}

/// Both suites at a given scale: the 11 intra-block apps followed by the
/// 4 inter-block apps, in the paper's figure order.
pub fn all_apps(scale: Scale) -> Vec<Box<dyn App>> {
    let mut apps = intra_apps(scale);
    apps.extend(inter_apps(scale));
    apps
}

/// Resolve an app by the name [`App::name`] reports, at a given scale —
/// how a [`RunRequest`]'s `app` field becomes a runnable instance.
pub fn app_by_name(name: &str, scale: Scale) -> Option<Box<dyn App>> {
    all_apps(scale).into_iter().find(|a| a.name() == name)
}

/// Every (app, configuration) cell of the paper's evaluation at `scale`,
/// in figure order: the 11 intra-block apps under the five Table II
/// intra-block configurations (Figs. 9-10), then the 4 inter-block apps
/// under the four inter-block ones (Figs. 11-12) — 71 plain requests.
/// This is the one enumeration of the grid; every sweep maps over it.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_the_papers_apps() {
        let intra = intra_apps(Scale::Test);
        let names: Vec<_> = intra.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "FFT",
                "LU cont",
                "LU non-cont",
                "Cholesky",
                "Barnes",
                "Raytrace",
                "Volrend",
                "Ocean cont",
                "Ocean non-cont",
                "Water Nsq",
                "Water Spatial"
            ]
        );
        let inter = inter_apps(Scale::Test);
        let names: Vec<_> = inter.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["EP", "IS", "CG", "Jacobi"]);
    }

    #[test]
    fn sweep_covers_every_figure_cell() {
        let reqs = sweep_requests(Scale::Test);
        // 11 intra apps x 5 schemes + 4 inter apps x 4 schemes.
        assert_eq!(reqs.len(), 11 * 5 + 4 * 4);
        let keys: std::collections::HashSet<String> = reqs.iter().map(|r| r.cache_key()).collect();
        assert_eq!(keys.len(), reqs.len(), "sweep cells must have unique keys");
        assert!(reqs.iter().all(|r| r.scale == Scale::Test));
    }
}
