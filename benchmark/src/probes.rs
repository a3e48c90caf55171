//! Layer probes, run only in traced mode after the timed phase: each
//! times one layer's public entry point in isolation.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use hic_apps::{all_apps, Scale};
use hic_core::{CohInstr, Target};
use hic_machine::{Exec, Machine, Op};
use hic_mem::{Region, WordAddr};
use hic_runtime::{Config, InterConfig, IntraConfig, ProgramBuilder};
use hic_sim::{CoreId, MachineConfig, SplitMix64};

use crate::stats;
use crate::trace::Tracer;

/// Repetitions of the fixed-cost probes; each reports its median.
const REPS: usize = 15;
/// Ops in the single-core `Machine::execute` stream.
const STREAM_OPS: usize = 200_000;
/// Ops per `machine.execute` span.
const SPAN_OPS: usize = 10_000;

fn median_ms(tracer: &Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let mut ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        tracer.span(name, 0, &mut f);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&ms).expect("REPS > 0")
}

/// A seeded single-core op stream over twice the L1 capacity: 45 %
/// loads, 45 % stores, 5 % line writebacks, 5 % line invalidations.
fn op_stream(seed: u64, cfg: &MachineConfig) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0x0070_726f_6265);
    let words = 2 * cfg.l1.size_bytes as u64 / cfg.word_bytes as u64;
    let line_words = (cfg.l1.line_bytes / cfg.word_bytes) as u64;
    (0..STREAM_OPS)
        .map(|i| {
            let w = rng.below(words);
            let line = Target::range(Region::new(WordAddr(w - w % line_words), line_words));
            match rng.below(100) {
                0..=44 => Op::Load(WordAddr(w)),
                45..=89 => Op::Store(WordAddr(w), i as u32),
                90..=94 => Op::Coh(CohInstr::wb(line)),
                _ => Op::Coh(CohInstr::inv(line)),
            }
        })
        .collect()
}

/// Nanoseconds per op of `Machine::execute` over `ops`, after one
/// untimed warming pass over the same stream.
fn ns_per_op(tracer: &Tracer, mut machine: Machine, ops: &[Op]) -> f64 {
    let mut now = 0;
    let mut pass = |timed: bool| {
        for chunk in ops.chunks(SPAN_OPS) {
            let mut exec = || {
                for op in chunk {
                    match machine.execute(CoreId(0), op, now) {
                        Exec::Done { end, .. } => now = end,
                        Exec::Parked => unreachable!("memory ops never park"),
                    }
                }
            };
            if timed {
                tracer.span("machine.execute", 0, exec);
            } else {
                exec();
            }
        }
    };
    pass(false);
    let t = Instant::now();
    pass(true);
    t.elapsed().as_secs_f64() * 1e9 / ops.len() as f64
}

/// Run every probe; keys are `PER_LAYER` names.
pub fn run(tracer: &Tracer, seed: u64) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let intra = MachineConfig::intra_block();
    let inter = MachineConfig::inter_block();

    out.insert(
        "machine.build_ms.intra16",
        median_ms(tracer, "machine.build", || {
            black_box(Machine::incoherent(intra));
        }),
    );
    out.insert(
        "machine.build_ms.inter32",
        median_ms(tracer, "machine.build", || {
            black_box(Machine::incoherent(inter));
        }),
    );
    for (key, config, threads) in [
        (
            "runtime.empty_run_ms.intra16",
            Config::Intra(IntraConfig::Base),
            16,
        ),
        (
            "runtime.empty_run_ms.inter32",
            Config::Inter(InterConfig::Base),
            32,
        ),
    ] {
        out.insert(
            key,
            median_ms(tracer, "runtime.empty_run", || {
                black_box(ProgramBuilder::new(config).run(threads, |_| {}));
            }),
        );
    }

    let ops = op_stream(seed, &intra);
    out.insert(
        "machine.ns_per_op.incoherent",
        ns_per_op(tracer, Machine::incoherent(intra), &ops),
    );
    out.insert(
        "machine.ns_per_op.mesi",
        ns_per_op(tracer, Machine::coherent(intra), &ops),
    );
    out.insert(
        "machine.ns_per_op.dragon",
        ns_per_op(tracer, Machine::dragon(intra), &ops),
    );

    let (mut verify_s, mut optimize_s) = (0.0, 0.0);
    let (mut before, mut after) = (0, 0);
    for app in all_apps(Scale::Small) {
        for scheme in [InterConfig::Addr, InterConfig::AddrL] {
            let Some(record) = app.record(Config::Inter(scheme)) else {
                continue;
            };
            let t = Instant::now();
            black_box(tracer.span("lint.lint", 0, || hic_lint::lint(&record)));
            verify_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let opt = tracer.span("lint.optimize", 0, || hic_lint::optimize(&record));
            optimize_s += t.elapsed().as_secs_f64();
            before += opt.stats.ops_before;
            after += opt.stats.ops_after;
        }
    }
    out.insert("lint.verify_ms", verify_s * 1e3);
    out.insert("lint.optimize_ms", optimize_s * 1e3);
    out.insert("lint.plan_ops_before", before as f64);
    out.insert("lint.plan_ops_after", after as f64);
    out
}
