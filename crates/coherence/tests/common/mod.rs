//! Shared by the protocol integration tests (`prop_mesi`,
//! `protocol_pins`): one interface over both directory protocols, the
//! tiny-cache machines that make every eviction path run, and the op
//! generators.

// Each test binary uses a different part of this module.
#![allow(dead_code)]

use hic_coherence::{DragonSystem, MesiSystem};
use hic_mem::{Word, WordAddr};
use hic_noc::TrafficLedger;
use hic_sim::config::line_bytes;
use hic_sim::{CacheGeometry, CoreId, MachineConfig, SplitMix64, TopologyBuilder};

/// Either directory protocol, as the tests drive it.
pub trait Protocol {
    const NAME: &'static str;
    fn build(cfg: MachineConfig) -> Self;
    fn read(&mut self, c: CoreId, w: WordAddr) -> (Word, u64);
    fn write(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64;
    fn peek(&self, w: WordAddr) -> Word;
    fn check(&self) -> Result<(), String>;
    fn ledger(&self) -> TrafficLedger;
}

macro_rules! protocol {
    ($ty:ident, $name:literal) => {
        impl Protocol for $ty {
            const NAME: &'static str = $name;
            fn build(cfg: MachineConfig) -> Self {
                $ty::new(cfg)
            }
            fn read(&mut self, c: CoreId, w: WordAddr) -> (Word, u64) {
                $ty::read(self, c, w)
            }
            fn write(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64 {
                $ty::write(self, c, w, v)
            }
            fn peek(&self, w: WordAddr) -> Word {
                self.peek_word(w)
            }
            fn check(&self) -> Result<(), String> {
                self.check_invariants()
            }
            fn ledger(&self) -> TrafficLedger {
                self.traffic
            }
        }
    };
}

protocol!(MesiSystem, "MESI");
protocol!(DragonSystem, "Dragon");

/// A fully associative cache of `lines` lines.
fn lines(lines: usize) -> CacheGeometry {
    CacheGeometry {
        size_bytes: lines * line_bytes(),
        ways: lines,
        line_bytes: line_bytes(),
    }
}

/// `blocks` x 4 cores with caches so small that fills keep evicting:
/// 2-line L1s, two 4-line L2 banks per block and, on multi-block
/// machines, two 8-line L3 banks. Every L1, L2 and L3 eviction path and
/// every cross-block recall runs within a few dozen ops.
fn tiny(blocks: usize) -> MachineConfig {
    let mut shape = TopologyBuilder::new(blocks, 4).l2_banks_per_block(2);
    if blocks > 1 {
        shape = shape.l3(lines(8), 20, 2);
    }
    let mut cfg = MachineConfig::with_topology(shape.validate().expect("tiny shape is valid"));
    cfg.l1 = lines(2);
    cfg.l2 = lines(4);
    cfg.validate().expect("tiny caches are valid");
    cfg
}

/// Flat 1x4 machine with tiny caches.
pub fn tiny_flat() -> MachineConfig {
    tiny(1)
}

/// Hierarchical 2x4 machine with tiny caches.
pub fn tiny_hier() -> MachineConfig {
    tiny(2)
}

#[derive(Debug, Clone, Copy)]
pub enum Op {
    Read { core: usize, word: u64 },
    Write { core: usize, word: u64, value: u32 },
}

/// A read or a write, evenly, by a random core to a random word below
/// `words`.
pub fn gen_op(rng: &mut SplitMix64, cores: usize, words: u64) -> Op {
    let core = rng.below(cores as u64) as usize;
    let word = rng.below(words);
    if rng.below(2) == 0 {
        Op::Read { core, word }
    } else {
        Op::Write {
            core,
            word,
            value: rng.next_u32(),
        }
    }
}

/// Like [`gen_op`], over the first 4 words of 20 lines: 8 neighboring
/// hot lines and 12 lines 8192 lines apart. The 13 lines at multiples of
/// 8192 share one set of one bank at every level of both paper machines
/// (L1, L2 and L3), so those machines evict too, not only the tiny ones.
pub fn gen_conflict_op(rng: &mut SplitMix64, cores: usize) -> Op {
    let line = if rng.below(2) == 0 {
        rng.below(8)
    } else {
        (1 + rng.below(12)) * 8192
    };
    match gen_op(rng, cores, 4) {
        Op::Read { core, word } => Op::Read {
            core,
            word: line * 16 + word,
        },
        Op::Write { core, word, value } => Op::Write {
            core,
            word: line * 16 + word,
            value,
        },
    }
}
