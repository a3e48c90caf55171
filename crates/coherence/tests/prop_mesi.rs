//! Property test: both directory protocols (MESI and Dragon) are
//! sequentially consistent with respect to the (global) order in which
//! the simulator performs operations — every read returns exactly what
//! the last write to that word (in execution order) stored — and their
//! invariants hold after every step.
//!
//! Besides the paper machines, every protocol runs on a flat 1x4 and a
//! hierarchical 2x4 machine with tiny caches, where L2 and L3 evictions
//! and cross-block recalls happen on almost every miss.
//!
//! Randomized with the deterministic in-repo `SplitMix64` (fixed seeds).

mod common;

use common::{gen_conflict_op, gen_op, tiny_flat, tiny_hier, Op, Protocol};
use hic_coherence::{DragonSystem, MesiSystem};
use hic_mem::WordAddr;
use hic_sim::{CoreId, MachineConfig, SplitMix64};

fn run_sequence<P: Protocol>(case: u64, cfg: MachineConfig, ops: &[Op]) {
    let cores = cfg.num_cores();
    let mut m = P::build(cfg);
    let name = P::NAME;
    // Reference model: last written value per word.
    let mut model = std::collections::HashMap::<u64, u32>::new();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Read { core, word } => {
                assert!(core < cores);
                let (v, lat) = m.read(CoreId(core), WordAddr(word));
                let want = model.get(&word).copied().unwrap_or(0);
                assert_eq!(
                    v, want,
                    "{name} case {case} step {step}: core {core} read word {word} -> {v} want {want}"
                );
                assert!(lat >= 2, "no access is faster than an L1 hit");
            }
            Op::Write { core, word, value } => {
                m.write(CoreId(core), WordAddr(word), value);
                model.insert(word, value);
            }
        }
        if let Err(e) = m.check() {
            panic!("{name} case {case} step {step}: {e}");
        }
        // peek agrees with the model at every step, for every word.
        for (&w, &want) in &model {
            assert_eq!(
                m.peek(WordAddr(w)),
                want,
                "{name} case {case}: peek of word {w} at step {step}"
            );
        }
    }
}

/// Run `cases` generated sequences through both protocols.
fn check_both(
    seed: u64,
    cases: u64,
    cfg: MachineConfig,
    mut gen: impl FnMut(&mut SplitMix64) -> Vec<Op>,
) {
    let mut rng = SplitMix64::new(seed);
    for case in 0..cases {
        let ops = gen(&mut rng);
        run_sequence::<MesiSystem>(case, cfg, &ops);
        run_sequence::<DragonSystem>(case, cfg, &ops);
    }
}

/// Flat (single-block) machine. Word space spans a few cache sets and
/// forces line sharing (16 words per line over 8 lines).
#[test]
fn flat_protocols_are_sequentially_consistent() {
    check_both(0x3E51, 48, MachineConfig::intra_block(), |rng| {
        let len = 1 + rng.below(119);
        (0..len).map(|_| gen_op(rng, 16, 128)).collect()
    });
}

/// Hierarchical (4x8) machine: cross-block recalls, L3 directory.
#[test]
fn hierarchical_protocols_are_sequentially_consistent() {
    check_both(0x3E52, 48, MachineConfig::inter_block(), |rng| {
        let len = 1 + rng.below(99);
        (0..len).map(|_| gen_op(rng, 32, 128)).collect()
    });
}

/// Capacity stress: words spread over many lines mapping to few sets,
/// forcing L1 evictions, writebacks, and directory cleanup.
#[test]
fn protocols_survive_capacity_evictions() {
    check_both(0x3E53, 48, MachineConfig::intra_block(), |rng| {
        let len = 1 + rng.below(79);
        (0..len)
            .map(|_| {
                // 8 distinct lines all in L1 set 0 (stride = sets * 16 words).
                Op::Write {
                    core: rng.below(4) as usize,
                    word: rng.below(8) * 128 * 16,
                    value: rng.next_u32(),
                }
            })
            .collect()
    });
}

/// Flat 1x4 machine with tiny caches: L2 evictions recall L1 copies and
/// write dirty data to memory.
#[test]
fn tiny_flat_machine_evicts_and_stays_consistent() {
    check_both(0x3E54, 200, tiny_flat(), |rng| {
        let len = 1 + rng.below(119);
        (0..len).map(|_| gen_conflict_op(rng, 4)).collect()
    });
}

/// Hierarchical 2x4 machine with tiny caches: L2 and L3 evictions and
/// cross-block recalls.
#[test]
fn tiny_hierarchical_machine_evicts_and_stays_consistent() {
    check_both(0x3E55, 200, tiny_hier(), |rng| {
        let len = 1 + rng.below(119);
        (0..len).map(|_| gen_conflict_op(rng, 8)).collect()
    });
}
