//! Shared by the suites that run apps under several run modes
//! (`app_suite`, `golden_equivalence`, `geometry_matrix`).

use hic_apps::{app_by_name, AppRun};
use hic_runtime::{RunRequest, Scheduler};

/// Run `req`, and assert that its modes reached the run: the sanitizer
/// runs in the requested mode on every incoherent backend, and the
/// `Linear` oracle runs no op inline. Without these asserts, a mode that
/// stopped arriving would pass silently.
pub fn run(req: &RunRequest) -> AppRun {
    let r = app_by_name(&req.app, req.scale)
        .unwrap_or_else(|| panic!("no application named {:?}", req.app))
        .run_req(req);
    if !req.config.is_coherent() {
        assert_eq!(
            r.diagnostics.mode,
            req.check,
            "{}: the check mode did not reach the run",
            req.cache_key()
        );
    }
    if req.engine == Scheduler::Linear {
        assert_eq!(
            r.stats.engine.shard_local_ops,
            0,
            "{}: the Linear oracle ran ops inline",
            req.cache_key()
        );
    }
    r
}
