//! Shared by the integration tests CI reruns under the `HIC_*` knobs
//! (`app_suite`, `golden_equivalence`, `geometry_matrix`).

use hic_apps::{app_by_name, AppRun, Scale};
use hic_runtime::{Config, RunRequest, Scheduler};

/// Run `app` under `config` with the knobs the environment sets
/// ([`RunRequest::from_env`]), and assert that they reached the run: the
/// sanitizer runs in the requested mode on every incoherent backend, and
/// the `Linear` oracle runs no op inline. Without these
/// asserts, a knob that stopped arriving would pass silently.
pub fn run_from_env(app: &str, config: Config, scale: Scale) -> AppRun {
    let req = RunRequest::from_env(app, config, scale).expect("well-formed HIC_* knobs");
    let r = app_by_name(app, scale)
        .unwrap_or_else(|| panic!("no application named {app:?}"))
        .run_req(&req);
    if !config.is_coherent() {
        assert_eq!(
            r.diagnostics.mode,
            req.check,
            "{app} under {}: the check mode did not reach the run",
            config.name()
        );
    }
    if req.engine == Scheduler::Linear {
        assert_eq!(
            r.stats.engine.shard_local_ops,
            0,
            "{app} under {}: the Linear oracle ran ops inline",
            config.name()
        );
    }
    r
}
