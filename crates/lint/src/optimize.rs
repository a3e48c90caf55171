//! The plan optimizer: prune, downgrade, coalesce — then re-verify.
//!
//! Works on the attribution the verifier collects ([`Attrib`]): which
//! plan ops some sync-ordered fresh read actually depended on, whether
//! the dependence involved the op's global-level action, and which
//! threads were on each end. From that:
//!
//! * an op no checked read ever depended on is **pruned** (its data
//!   either had no ordered consumer, or another op already moved it);
//! * a `peer: None` op whose observed peers all sit in the issuer's
//!   block is **downgraded** to `peer: Some(...)` — under `Addr+L` the
//!   scope resolution then keeps it block-local, which is exactly the
//!   level-adaptive behaviour the paper gets from a perfect analysis
//!   (§V-B);
//! * surviving ops are **coalesced** ([`hic_runtime::coalesce_ops`]).
//!
//! Rewriting iterates to a fixed point: a consumer's *global* INV forces
//! its reads onto the memory path, which makes the producer's WB look
//! global-needed — once the INV is downgraded, the next attribution pass
//! sees the read served from the shared L2 and can downgrade the WB too.
//!
//! WB ops covering a region the host peeks after the run are *pinned*
//! (never pruned or downgraded): `peek` reads below the L1s, so those
//! writebacks are consumed outside the recorded program.
//!
//! The result is re-verified: the minimized record must itself lint
//! clean, or the overrides are discarded (`fallback`). Pruning is
//! attribution-complete by construction, so the fallback is a safety
//! net, not a code path programs are expected to hit.

use fxhash::FxHashMap;
use hic_core::ThreadMap;
use hic_mem::Region;
use hic_runtime::{
    coalesce_ops, CommOp, Config, EpochPlan, InterConfig, PlanOverrides, ProgramRecord, RecEvent,
};
use hic_sim::ThreadId;

use crate::exec::{interp, Attrib, OpInfo};
use crate::report::{LintReport, OptOutcome, OptStats};

/// Fixed-point cap; each round must strictly shrink or re-scope some op,
/// so real programs converge in two or three.
const MAX_ROUNDS: usize = 4;

fn intersects(a: Region, b: Region) -> bool {
    a.words > 0 && b.words > 0 && a.start.0 < b.end().0 && b.start.0 < a.end().0
}

/// One rewrite pass over `current`'s plan ops. Returns the per-site
/// substitutions that change something, or an empty list at the fixed
/// point.
#[allow(clippy::too_many_arguments)]
fn rewrite_round(
    rec: &ProgramRecord,
    current: &ProgramRecord,
    attrib: &Attrib,
    ops: &[OpInfo],
    stats: &mut OptStats,
) -> Vec<(usize, bool, usize, EpochPlan)> {
    let mc = current.config.machine_config();
    let tmap = ThreadMap::identity(mc.num_blocks(), mc.cores_per_block());
    let addr_l = current.config == Config::Inter(InterConfig::AddrL);
    let mut kept: Vec<Option<CommOp>> = Vec::with_capacity(ops.len());
    let mut round_pruned = 0usize;
    let mut round_downgraded = 0usize;
    for (i, info) in ops.iter().enumerate() {
        let id = i as u32;
        // Pinning is against the *original* record's host reads.
        let pinned = info.is_wb
            && rec
                .host_reads
                .iter()
                .any(|&hr| intersects(info.op.region, hr));
        if pinned {
            kept.push(Some(info.op));
            continue;
        }
        if !attrib.needed.contains(&id) {
            kept.push(None);
            round_pruned += 1;
            continue;
        }
        let mut op = info.op;
        if addr_l && op.peer.is_none() && !attrib.needs_global.contains(&id) {
            // The observed peers: consumers for a WB, producers for an INV.
            let served = if info.is_wb {
                attrib.served_reader.get(&id)
            } else {
                attrib.served_writer.get(&id)
            };
            if let Some(served) = served {
                let issuer = tmap.block_of(ThreadId(info.thread)).expect("mapped");
                if !served.is_empty() && served.iter().all(|&p| tmap.is_local(issuer, ThreadId(p)))
                {
                    // All peers local: naming any one of them makes the
                    // op block-local under the Addr+L scope rules.
                    op.peer = Some(ThreadId(*served.iter().min().unwrap()));
                    round_downgraded += 1;
                }
            }
        }
        kept.push(Some(op));
    }

    // Regroup by plan call site; emit substitutions for changed sites.
    let mut sites: FxHashMap<(usize, bool, usize), Vec<(usize, usize)>> = FxHashMap::default();
    for (i, info) in ops.iter().enumerate() {
        sites
            .entry((info.thread, info.is_wb, info.site))
            .or_default()
            .push((info.index, i));
    }
    let mut delta = Vec::new();
    for ((t, is_wb, site), mut members) in sites {
        members.sort_by_key(|&(index, _)| index);
        let original: Vec<CommOp> = members.iter().map(|&(_, i)| ops[i].op).collect();
        let surviving: Vec<CommOp> = members.iter().filter_map(|&(_, i)| kept[i]).collect();
        let minimized = coalesce_ops(&surviving);
        if minimized == original {
            continue;
        }
        let plan = if is_wb {
            EpochPlan {
                wb: minimized,
                inv: Vec::new(),
            }
        } else {
            EpochPlan {
                wb: Vec::new(),
                inv: minimized,
            }
        };
        delta.push((t, is_wb, site, plan));
    }
    if !delta.is_empty() {
        stats.pruned += round_pruned;
        stats.downgraded += round_downgraded;
    }
    delta
}

/// Verify `rec` and, when clean, compute minimized [`PlanOverrides`].
pub fn optimize(rec: &ProgramRecord) -> OptOutcome {
    let (report, attrib, ops) = interp(rec, true);
    let mut stats = OptStats {
        ops_before: ops.len(),
        ops_after: ops.len(),
        ..OptStats::default()
    };
    let identity = |report: LintReport, stats: OptStats| {
        let reverify = report.clone();
        OptOutcome {
            report,
            overrides: PlanOverrides::new(rec.nthreads),
            stats,
            reverify,
        }
    };
    // Nothing to rewrite: plans are ignored (HCC, inter Base), the
    // record has no plan ops at all, or it is not even correct yet.
    if !report.is_clean() || ops.is_empty() {
        return identity(report, stats);
    }

    let mut acc = PlanOverrides::new(rec.nthreads);
    let mut current = rec.clone();
    let mut cur_attrib = attrib.unwrap_or_default();
    let mut cur_ops = ops;
    for _ in 0..MAX_ROUNDS {
        let delta = rewrite_round(rec, &current, &cur_attrib, &cur_ops, &mut stats);
        if delta.is_empty() {
            break;
        }
        for (t, is_wb, site, plan) in delta {
            if is_wb {
                acc.set_wb(t, site, plan);
            } else {
                acc.set_inv(t, site, plan);
            }
        }
        current = apply_overrides(rec, &acc);
        let (rep, at, o) = interp(&current, true);
        if !rep.is_clean() {
            break; // re-verification below falls back
        }
        cur_attrib = at.unwrap_or_default();
        cur_ops = o;
    }
    if acc.is_empty() {
        return identity(report, stats);
    }
    stats.ops_after = current.num_plan_ops();
    stats.sites_overridden = acc.num_overridden();

    // Safety net: the minimized record must itself verify clean.
    let reverify = interp(&current, false).0;
    if !reverify.is_clean() {
        stats.fallback = true;
        stats.ops_after = stats.ops_before;
        stats.pruned = 0;
        stats.downgraded = 0;
        stats.sites_overridden = 0;
        return OptOutcome {
            report,
            overrides: PlanOverrides::new(rec.nthreads),
            stats,
            reverify,
        };
    }
    OptOutcome {
        report,
        overrides: acc,
        stats,
        reverify,
    }
}

/// The record with `overrides` substituted at the matching plan call
/// sites — what the runtime will actually issue.
pub fn apply_overrides(rec: &ProgramRecord, overrides: &PlanOverrides) -> ProgramRecord {
    let mut out = rec.clone();
    for (t, events) in out.threads.iter_mut().enumerate() {
        let (mut wb_site, mut inv_site) = (0usize, 0usize);
        for ev in events.iter_mut() {
            match ev {
                RecEvent::PlanWb(plan) => {
                    if let Some(o) = overrides.wb_at(t, wb_site) {
                        *plan = o.clone();
                    }
                    wb_site += 1;
                }
                RecEvent::PlanInv(plan) => {
                    if let Some(o) = overrides.inv_at(t, inv_site) {
                        *plan = o.clone();
                    }
                    inv_site += 1;
                }
                _ => {}
            }
        }
    }
    out
}
