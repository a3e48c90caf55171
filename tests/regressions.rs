//! Regression tests for bugs found (and fixed) during development. Each
//! test encodes the exact scenario that failed, so the bug cannot return
//! silently.

use hic_core::{CohInstr, Target};
use hic_machine::IncoherentSystem;
use hic_mem::{Addr, WordAddr};
use hic_runtime::{Config, InterConfig, ProgramBuilder};
use hic_sim::{CoreId, MachineConfig};

/// Bug 1: the lock annotation placed `INV_L2(ALL)` *before* the acquire
/// on the multi-block machine. The paper's "INV immediately before the
/// acquire" optimization (§IV-A1) is only sound for a private cache: the
/// shared L2 can be re-filled by same-block peers between the INV and the
/// grant, leaving a stale copy that the granted holder then reads. With
/// 32 contended threads this lost counter increments.
#[test]
fn inter_lock_counter_is_exact_under_contention() {
    for cfg in [InterConfig::Base, InterConfig::Addr, InterConfig::AddrL] {
        let mut p = ProgramBuilder::new(Config::Inter(cfg));
        let counter = p.alloc(1);
        let l = p.lock_occ(false);
        let bar = p.barrier_of(32);
        let out = p.run_tasks(32, async move |ctx| {
            for _ in 0..4 {
                ctx.lock(l).await;
                let v = ctx.read(counter, 0).await;
                ctx.write(counter, 0, v + 1).await;
                ctx.unlock(l).await;
            }
            ctx.plan_barrier(bar).await;
        });
        assert_eq!(
            out.peek(counter, 0),
            128,
            "lost increments under {} (stale read in a critical section)",
            cfg.name()
        );
    }
}

/// Bug 2: a word- or range-granularity WB cleaned the *whole* line's
/// dirty bits after transferring only the targeted words, silently losing
/// the co-located updates §III-B promises to preserve.
#[test]
fn partial_wb_preserves_colocated_dirty_words() {
    let mut m = IncoherentSystem::new(MachineConfig::intra_block());
    let w0 = Addr(0x1000).word(); // word 0 of the line
    let w1 = WordAddr(w0.0 + 1); // word 1 of the same line
    m.write(CoreId(0), w0, 111);
    m.write(CoreId(0), w1, 222);
    // Write back ONLY w0.
    m.exec_coh(CoreId(0), CohInstr::wb(Target::word(w0)));
    // w1's dirty bit must survive; a later INV must push it down.
    m.exec_coh(CoreId(0), CohInstr::inv(Target::word(w1)));
    assert_eq!(m.peek_word(w0), 111);
    assert_eq!(
        m.peek_word(w1),
        222,
        "partial WB must not clean words it did not transfer"
    );
}

/// Bug 3 (design-level): an accumulator reset that is never written back
/// lingers dirty in the resetter's L1 and is pushed over newer data by a
/// later self-invalidation. The CG annotation covers the reset with a WB;
/// this test pins the machine-level behavior that makes the WB necessary.
#[test]
fn stale_dirty_word_is_pushed_by_inv_over_newer_data() {
    let mut m = IncoherentSystem::new(MachineConfig::inter_block());
    let w = Addr(0x2000).word();
    // Core 0 writes 0 and NEVER writes it back.
    m.write(CoreId(0), w, 0);
    // Core 8 (another block) writes 5 and publishes it globally.
    m.write(CoreId(8), w, 5);
    m.exec_coh(CoreId(8), CohInstr::wb_l3(Target::word(w)));
    assert_eq!(m.peek_word(w), 5);
    // Core 0's INV pushes its stale dirty zero down: newer data lost.
    // (This is WHY the annotation methodology requires every produced
    // value to be written back at its epoch's end.)
    m.exec_coh(CoreId(0), CohInstr::inv_l2(Target::word(w)));
    assert_eq!(
        m.peek_word(w),
        0,
        "the stale push is the modeled (correct) hardware behavior"
    );
}

/// The hierarchical-reduction EP extension (§VII-C's suggested rewrite)
/// is correct everywhere and actually reduces global WBs under Addr+L.
#[test]
fn hierarchical_ep_localizes_reductions() {
    use hic_apps::inter::ep::EpHier;
    use hic_apps::{App, Scale};
    use hic_runtime::RunRequest;
    let app = EpHier::new(Scale::Test);
    let mut counts = Vec::new();
    for cfg in InterConfig::ALL {
        let r = app.run_req(&RunRequest::new(
            app.name(),
            Config::Inter(cfg),
            Scale::Test,
        ));
        assert!(r.correct, "EP-hier wrong under {}", cfg.name());
        counts.push((cfg, r.stats.counters.global_wbs));
    }
    let addr = counts
        .iter()
        .find(|(c, _)| *c == InterConfig::Addr)
        .unwrap()
        .1;
    let addrl = counts
        .iter()
        .find(|(c, _)| *c == InterConfig::AddrL)
        .unwrap()
        .1;
    assert!(
        addrl < addr,
        "hierarchical reduction must let Addr+L localize partial gathers \
         ({addrl} vs {addr} global WBs)"
    );
}
