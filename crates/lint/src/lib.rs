//! `hic-lint` — static plan verification and optimization.
//!
//! The dynamic sanitizer (`hic-check`) catches a missing WB/INV when a
//! run happens to trip over it. This crate proves the property *before a
//! single cycle is simulated*: given a [`ProgramRecord`] — the program's
//! sync structure, per-epoch region access summaries, and the
//! [`EpochPlan`](hic_runtime::EpochPlan) passed at every `plan_wb` /
//! `plan_inv` call site — [`lint`] shows that every sync-ordered
//! cross-thread read observes the latest ordered write under the
//! record's configuration, or reports which WB (producer side) or INV
//! (consumer side) is missing, over which `region[range]`, and which
//! sync op should carry it.
//!
//! [`optimize`] goes further on a clean program: it prunes plan ops no
//! ordered read depends on, downgrades `peer: None` ops whose consumers
//! (WB) or producers (INV) are statically known to share a block —
//! recovering the paper's level-adaptive `WB_CONS`/`INV_PROD` savings
//! (§V-B) without an oracle — and coalesces adjacent regions. The
//! resulting [`PlanOverrides`](hic_runtime::PlanOverrides) substitute at
//! the same call sites via
//! [`ProgramBuilder::override_plans`](hic_runtime::ProgramBuilder::override_plans),
//! and are re-verified before being returned.
//!
//! Lint shares its policy instead of copying it: the WB/INV lowering is
//! the runtime's (`Config::sync_wb`, `Config::plan_wb`, ...), scopes
//! resolve through the machine's `ThreadMap`, and ordering and
//! attribution come from the sanitizer's `HappensBefore`. Only the
//! memory model is its own: it mirrors the incoherent machine's
//! visibility rules (see `exec`'s module docs) but not its timing, and
//! models no evictions — so static findings are a superset of anything
//! a timed run can observe: a clean lint is a proof, a finding is a
//! real plan deficiency.

mod exec;
mod optimize;
mod report;

pub use optimize::{apply_overrides, optimize};
pub use report::{LintCoverage, LintFinding, LintReport, OptOutcome, OptStats};

use hic_runtime::ProgramRecord;

/// Statically verify WB/INV sufficiency of a recorded program.
pub fn lint(rec: &ProgramRecord) -> LintReport {
    exec::interp(rec, false).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_check::FindingKind;
    use hic_runtime::{
        CommOp, Config, EpochPlan, InterConfig, IntraConfig, ProgramBuilder, RecSync,
    };
    use hic_sim::ThreadId;

    /// Two-thread producer/consumer over one line, epoch-style: t0
    /// writes, both barrier, t1 reads. `wb`/`inv` toggle the plan halves.
    fn pair_record(cfg: Config, wb: bool, inv: bool) -> ProgramRecord {
        let mut p = ProgramBuilder::new(cfg);
        let data = p.alloc_named("data", 16);
        let bar = p.barrier_of(2);
        let mut rec = p.record(2);
        let wb_plan = if wb {
            EpochPlan::new().with_wb(CommOp::known(data, ThreadId(1)))
        } else {
            EpochPlan::new()
        };
        let inv_plan = if inv {
            EpochPlan::new().with_inv(CommOp::known(data, ThreadId(0)))
        } else {
            EpochPlan::new()
        };
        rec.thread(0)
            .writes(data)
            .plan_wb(&wb_plan)
            .plan_barrier(bar);
        rec.thread(1)
            .reads(data) // warm-up: capture a stale copy
            .plan_barrier(bar)
            .plan_inv(&inv_plan)
            .reads(data);
        rec
    }

    #[test]
    fn complete_plan_is_clean() {
        for cfg in [
            Config::Inter(InterConfig::Addr),
            Config::Inter(InterConfig::AddrL),
            Config::Intra(IntraConfig::Base),
        ] {
            let r = lint(&pair_record(cfg, true, true));
            assert!(r.is_clean(), "{}: {}", cfg.name(), r.render());
            assert!(r.checks >= 16);
        }
    }

    #[test]
    fn missing_wb_is_attributed_to_the_producer() {
        let r = lint(&pair_record(Config::Inter(InterConfig::Addr), false, true));
        assert_eq!(r.findings.len(), 1, "{}", r.render());
        let f = &r.findings[0];
        assert_eq!(f.kind, FindingKind::MissingWb);
        assert_eq!(f.producer, ThreadId(0));
        assert_eq!(f.consumer, ThreadId(1));
        assert_eq!(f.words, 16);
        assert!(f.region.as_deref().unwrap().starts_with("data["));
        assert!(f.sync_hint.is_some(), "barrier should carry the WB");
    }

    #[test]
    fn missing_inv_is_attributed_to_the_consumer() {
        let r = lint(&pair_record(Config::Inter(InterConfig::Addr), true, false));
        assert_eq!(r.findings.len(), 1, "{}", r.render());
        let f = &r.findings[0];
        assert_eq!(f.kind, FindingKind::MissingInv, "{}", f.render());
        assert_eq!(f.producer, ThreadId(0));
        assert_eq!(f.consumer, ThreadId(1));
    }

    #[test]
    fn hcc_needs_no_plans() {
        let r = lint(&pair_record(Config::Inter(InterConfig::Hcc), false, false));
        assert!(r.is_clean());
    }

    #[test]
    fn base_barrier_all_is_sufficient_without_plans() {
        // Model 1: WB ALL / INV ALL carried by the barrier itself.
        let cfg = Config::Inter(InterConfig::Base);
        let mut p = ProgramBuilder::new(cfg);
        let data = p.alloc_named("data", 32);
        let bar = p.barrier_of(2);
        let mut rec = p.record(2);
        rec.thread(0).writes(data).barrier(bar);
        rec.thread(1).reads(data).barrier(bar).reads(data);
        let r = lint(&rec);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn unordered_reads_are_not_checked() {
        // No sync between writer and reader: nothing to verify (the
        // dynamic checker would stay silent too — that is a race, only
        // flagged when both sides *write*).
        let cfg = Config::Inter(InterConfig::Addr);
        let mut p = ProgramBuilder::new(cfg);
        let data = p.alloc_named("data", 16);
        let mut rec = p.record(2);
        rec.thread(0).writes(data);
        rec.thread(1).reads(data);
        let r = lint(&rec);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.checks, 0);
    }

    #[test]
    fn conflicting_unordered_writes_are_a_race() {
        let cfg = Config::Inter(InterConfig::Addr);
        let mut p = ProgramBuilder::new(cfg);
        let data = p.alloc_named("data", 4);
        let mut rec = p.record(2);
        rec.thread(0).writes(data);
        rec.thread(1).writes(data);
        let r = lint(&rec);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].kind, FindingKind::WriteRace);
    }

    #[test]
    fn flag_sync_orders_and_carries_data() {
        let cfg = Config::Intra(IntraConfig::Base);
        let mut p = ProgramBuilder::new(cfg);
        let data = p.alloc_named("payload", 16);
        let f = p.flag();
        let mut rec = p.record(2);
        rec.thread(0).writes(data).flag_set(f, false);
        rec.thread(1).flag_wait(f, false).reads(data);
        let r = lint(&rec);
        assert!(r.is_clean(), "{}", r.render());
        assert!(r.checks >= 16);

        // Raw flag (no carried WB/INV): same ordering, stale data.
        let mut p = ProgramBuilder::new(cfg);
        let data = p.alloc_named("payload", 16);
        let f = p.flag();
        let mut rec = p.record(2);
        rec.thread(0).writes(data).flag_set(f, true);
        rec.thread(1).reads(data).flag_wait(f, true).reads(data);
        let r = lint(&rec);
        assert!(!r.is_clean());
        assert_eq!(r.findings[0].kind, FindingKind::MissingWb);
    }

    #[test]
    fn deadlocked_record_is_a_structure_error() {
        let cfg = Config::Inter(InterConfig::Addr);
        let mut p = ProgramBuilder::new(cfg);
        let f = p.flag();
        let mut rec = p.record(2);
        rec.thread(0).flag_wait(f, true); // nobody sets it
        let r = lint(&rec);
        assert!(!r.errors.is_empty());
        assert!(r.errors[0].contains("flag"), "{}", r.errors[0]);
    }

    #[test]
    fn optimizer_prunes_dead_and_duplicate_ops() {
        let cfg = Config::Inter(InterConfig::Addr);
        let mut p = ProgramBuilder::new(cfg);
        let data = p.alloc_named("data", 16);
        let dead = p.alloc_named("dead", 16);
        let bar = p.barrier_of(2);
        let mut rec = p.record(2);
        // t0 writes both regions but only `data` has a consumer; the WB
        // of `dead` and the duplicated ops are all redundant.
        let wb = EpochPlan::new()
            .with_wb(CommOp::unknown(data))
            .with_wb(CommOp::unknown(data))
            .with_wb(CommOp::unknown(dead));
        let inv = EpochPlan::new()
            .with_inv(CommOp::unknown(data))
            .with_inv(CommOp::unknown(data));
        rec.thread(0)
            .writes(data)
            .writes(dead)
            .plan_wb(&wb)
            .plan_barrier(bar);
        rec.thread(1)
            .reads(data)
            .plan_barrier(bar)
            .plan_inv(&inv)
            .reads(data);
        let out = optimize(&rec);
        assert!(out.report.is_clean(), "{}", out.report.render());
        assert!(out.reverify.is_clean(), "{}", out.reverify.render());
        assert!(!out.stats.fallback);
        assert_eq!(out.stats.ops_before, 5);
        // data-WB + data-INV survive; the duplicates and the dead WB go.
        assert_eq!(out.stats.ops_after, 2, "{}", out.stats.render());
        assert_eq!(out.stats.pruned, 3);
        assert_eq!(out.overrides.num_overridden(), 2);
    }

    #[test]
    fn optimizer_downgrades_known_local_peers_under_addr_l() {
        let cfg = Config::Inter(InterConfig::AddrL);
        let cpb = cfg.machine_config().cores_per_block();
        let mut p = ProgramBuilder::new(cfg);
        let data = p.alloc_named("data", 16);
        let bar = p.barrier_of(cpb);
        let mut rec = p.record(cpb); // all threads in block 0
        let wb = EpochPlan::new().with_wb(CommOp::unknown(data));
        let inv = EpochPlan::new().with_inv(CommOp::unknown(data));
        rec.thread(0).writes(data).plan_wb(&wb).plan_barrier(bar);
        for t in 1..cpb {
            rec.thread(t)
                .reads(data)
                .plan_barrier(bar)
                .plan_inv(&inv)
                .reads(data);
        }
        let out = optimize(&rec);
        assert!(out.report.is_clean(), "{}", out.report.render());
        assert!(out.reverify.is_clean(), "{}", out.reverify.render());
        // The WB's consumers and every INV's producer sit in block 0:
        // all of them downgrade to a named peer (block-local scope).
        assert_eq!(out.stats.downgraded, cpb, "{}", out.stats.render());
        let o = out.overrides.wb_at(0, 0).expect("wb site rewritten");
        assert_eq!(o.wb[0].peer, Some(ThreadId(1)));
    }

    #[test]
    fn host_peeked_writebacks_are_pinned() {
        let cfg = Config::Inter(InterConfig::Addr);
        let mut p = ProgramBuilder::new(cfg);
        let data = p.alloc_named("data", 16);
        let bar = p.barrier_of(2);
        let mut rec = p.record(2);
        rec.host_reads(data);
        // No simulated consumer at all — but the host peeks `data`, so
        // the final WB must survive.
        let wb = EpochPlan::new().with_wb(CommOp::unknown(data));
        rec.thread(0).writes(data).plan_wb(&wb).plan_barrier(bar);
        rec.thread(1).plan_barrier(bar);
        let out = optimize(&rec);
        assert!(out.report.is_clean());
        assert_eq!(out.stats.pruned, 0);
        assert!(out.overrides.is_empty());
    }

    #[test]
    fn barrier_sync_data_regions_lower_like_barrier_with() {
        // A barrier carrying Regions sync data moves exactly those
        // regions — enough for `data`, not for `other`.
        let cfg = Config::Inter(InterConfig::Addr);
        let mut p = ProgramBuilder::new(cfg);
        let data = p.alloc_named("data", 16);
        let other = p.alloc_named("other", 16);
        let bar = p.barrier_of(2);
        let mut rec = p.record(2);
        let sync = RecSync::Regions(vec![data]);
        rec.thread(0)
            .writes(data)
            .writes(other)
            .barrier_with(bar, sync.clone(), RecSync::None);
        rec.thread(1)
            .reads(data)
            .reads(other)
            .barrier_with(bar, RecSync::None, sync)
            .reads(data)
            .reads(other);
        let r = lint(&rec);
        assert_eq!(r.findings.len(), 1, "{}", r.render());
        assert_eq!(r.findings[0].kind, FindingKind::MissingWb);
        assert!(r.findings[0]
            .region
            .as_deref()
            .unwrap()
            .starts_with("other["));
    }
}
