//! Demonstrates what "hardware-incoherent" actually means: without WB/INV
//! instructions, a consumer simply never sees the producer's update — and
//! how the incoherence sanitizer (`hic-check`) pinpoints the bug at the
//! first faulty access.
//!
//! ```text
//! cargo run --example staleness
//! ```

use hic_core::{CohInstr, Target};
use hic_runtime::{CheckMode, Config, FindingKind, FlagOpts, IntraConfig, ProgramBuilder};

/// The buggy producer/consumer program: the producer signals through the
/// flag WITHOUT the WB half of the Figure 2 protocol (`FlagOpts::raw()`),
/// so its update never leaves the private L1.
fn buggy_run(mode: CheckMode) -> (hic_runtime::RunOutcome, hic_mem::Region) {
    let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
    p.check_mode(mode);
    let x = p.alloc_named("x", 1);
    p.init(x, 0, 1);
    let observed = p.alloc_named("observed", 2);
    let f = p.flag();
    let out = p.run(2, move |ctx| {
        match ctx.tid() {
            0 => {
                // Producer: update x, but signal WITHOUT writing back:
                // the fresh value never leaves this core's L1.
                ctx.store(x.at(0), 2);
                ctx.flag_set_opts(f, FlagOpts::raw());
            }
            _ => {
                let _ = ctx.load(x.at(0)); // warm a (soon stale) copy
                ctx.flag_wait_opts(f, FlagOpts::raw());
                // No INV: this read sees the stale cached copy.
                let stale = ctx.load(x.at(0));
                // Even after a proper self-invalidation the value is
                // still old: the producer never performed its WB half.
                ctx.coh(CohInstr::inv(Target::range(x)));
                let after_inv = ctx.load(x.at(0));
                ctx.store(observed.at(0), stale);
                ctx.store(observed.at(1), after_inv);
                ctx.coh(CohInstr::wb(Target::range(observed)));
            }
        }
    });
    (out, observed)
}

fn main() {
    // --- Part 1: missing annotations leave the consumer stale. --------
    let (out, observed) = buggy_run(CheckMode::Off);
    let stale = out.peek(observed, 0);
    let after_inv = out.peek(observed, 1);
    println!("producer skipped its WB:");
    println!("  consumer read (no INV):   {stale}   <- stale, as expected");
    println!("  consumer read (with INV): {after_inv}   <- still stale: nothing was written back");
    assert_eq!(stale, 1);
    assert_eq!(after_inv, 1);

    // --- Part 2: the sanitizer catches the bug at the faulty access. --
    let (out, _) = buggy_run(CheckMode::Report);
    let diag = out.diagnostics();
    println!("\nunder CheckMode::Report the sanitizer explains the bug:");
    for f in &diag.findings {
        println!("  {}", f.render());
    }
    assert!(!diag.is_clean(), "the sanitizer must flag the stale read");
    assert!(
        diag.count(FindingKind::MissingWb) >= 1,
        "the finding names the missing WB (producer side)"
    );

    // --- Part 3: CheckMode::Strict fails the run on the spot. ---------
    let (out, _) = buggy_run(CheckMode::Strict);
    let err = out
        .result()
        .expect_err("strict checking must fail the buggy run");
    println!("\nunder CheckMode::Strict the run fails at the stale read:");
    println!(
        "  {}: {}",
        err.kind(),
        err.to_string().lines().next().unwrap()
    );

    // --- Part 4: the correct Figure 2 protocol is silent. -------------
    let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
    p.check_mode(CheckMode::Report);
    let x = p.alloc_named("x", 1);
    p.init(x, 0, 1);
    let observed = p.alloc_named("observed", 1);
    let f = p.flag();
    let out = p.run(2, move |ctx| {
        match ctx.tid() {
            0 => {
                ctx.store(x.at(0), 2);
                // flag_set performs the WB ALL before the set (§IV-A1).
                ctx.flag_set(f);
            }
            _ => {
                let _ = ctx.load(x.at(0)); // warm a stale copy
                                           // flag_wait performs the INV ALL after the wait.
                ctx.flag_wait(f);
                let fresh = ctx.load(x.at(0));
                ctx.store(observed.at(0), fresh);
                ctx.coh(CohInstr::wb(Target::range(observed)));
            }
        }
    });
    println!("\nwith the WB -> sync -> INV protocol of Figure 2:");
    println!("  consumer read: {}   <- fresh", out.peek(observed, 0));
    assert_eq!(out.peek(observed, 0), 2);
    assert!(
        out.diagnostics().is_clean(),
        "correct protocol, no findings"
    );
}
