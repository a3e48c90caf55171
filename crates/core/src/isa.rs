//! The coherence-management instruction family (paper §III-B and §V).
//!
//! WB and INV are memory instructions that command the cache controller.
//! Flavors:
//!
//! * **granularity**: byte, half word, word, double word, quad word —
//!   taking an operand address;
//! * **range**: start address plus length;
//! * **ALL**: the whole cache, no argument;
//! * **explicit level** (§V): `WB_L3(addr)` writes back through L2 to L3,
//!   `INV_L2(addr)` invalidates from L2 and L1;
//! * **level-adaptive** (§V): `WB_CONS(addr, consumer)` and
//!   `INV_PROD(addr, producer)` consult the ThreadMap and pick the cache
//!   level that actually separates the two threads.
//!
//! Because caches are organized into lines, every flavor expands to the set
//! of cache lines overlapping its target; per-word dirty bits guarantee the
//! expansion never destroys co-located updates.

use hic_mem::addr::{Addr, Region};
use hic_mem::{LineAddr, WordAddr};
use hic_sim::ThreadId;

/// Data granularity of a single-operand WB/INV (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    Byte,
    HalfWord,
    Word,
    DoubleWord,
    QuadWord,
}

impl Granularity {
    /// Operand size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Granularity::Byte => 1,
            Granularity::HalfWord => 2,
            Granularity::Word => 4,
            Granularity::DoubleWord => 8,
            Granularity::QuadWord => 16,
        }
    }
}

/// What a WB or INV operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// A single operand of the given granularity at the given address.
    Operand(Addr, Granularity),
    /// A contiguous range of words.
    Range(Region),
    /// The whole cache (`WB ALL` / `INV ALL`).
    All,
}

impl Target {
    /// The cache lines this target expands to, or `None` for `All`
    /// (the controller traverses the tags instead).
    pub fn lines(&self) -> Option<Vec<LineAddr>> {
        match *self {
            Target::Operand(addr, g) => {
                let first = addr.line();
                let last = Addr(addr.0 + g.bytes() - 1).line();
                Some((first.0..=last.0).map(LineAddr).collect())
            }
            Target::Range(r) => Some(r.lines().collect()),
            Target::All => None,
        }
    }

    /// Convenience: a one-word operand target.
    pub fn word(w: WordAddr) -> Target {
        Target::Operand(w.byte_addr(), Granularity::Word)
    }

    /// Convenience: the whole region of an allocation.
    pub fn range(r: Region) -> Target {
        Target::Range(r)
    }

    /// Word-granularity mask restricting the operation within a line, if
    /// the target covers only part of it. `None` means "all words".
    /// Used so a word-granularity WB writes back only that word even when
    /// other words of the line are dirty (minimizing transfer volume is the
    /// point of fine-grained dirty bits; a range or ALL WB covers them all).
    pub fn word_mask(&self, line: LineAddr) -> u16 {
        match *self {
            Target::All => u16::MAX,
            Target::Range(r) => mask_for_span(line, r.start, r.end()),
            Target::Operand(addr, g) => {
                let start = addr.word();
                let end = WordAddr(Addr(addr.0 + g.bytes() - 1).word().0 + 1);
                mask_for_span(line, start, end)
            }
        }
    }
}

fn mask_for_span(line: LineAddr, start: WordAddr, end: WordAddr) -> u16 {
    let lo = line.first_word().0.max(start.0);
    let hi = (line.first_word().0 + hic_mem::addr::WORDS_PER_LINE as u64).min(end.0);
    let mut m = 0u16;
    let base = line.first_word().0;
    for w in lo..hi {
        m |= 1 << (w - base);
    }
    m
}

/// Destination scope of a writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WbScope {
    /// Plain `WB`: push dirty words from L1 to the block's shared L2.
    ToL2,
    /// `WB_L3`: push dirty words from L1 (and L2) all the way to L3.
    ToL3,
    /// `WB_CONS(consumer)`: level-adaptive; the L2 controller's ThreadMap
    /// decides whether L2 suffices (consumer in-block) or L3 is needed.
    Cons(ThreadId),
}

/// Source scope of a self-invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvScope {
    /// Plain `INV`: drop lines from the local L1.
    FromL1,
    /// `INV_L2`: drop lines from both L1 and the block's L2.
    FromL2,
    /// `INV_PROD(producer)`: level-adaptive; L1-only if the producer runs
    /// in this block, otherwise L1+L2.
    Prod(ThreadId),
}

/// A fully-specified coherence-management instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohInstr {
    Wb { target: Target, scope: WbScope },
    Inv { target: Target, scope: InvScope },
}

impl CohInstr {
    /// `WB target` (to L2).
    pub fn wb(target: Target) -> CohInstr {
        CohInstr::Wb {
            target,
            scope: WbScope::ToL2,
        }
    }

    /// `WB ALL`.
    pub fn wb_all() -> CohInstr {
        CohInstr::Wb {
            target: Target::All,
            scope: WbScope::ToL2,
        }
    }

    /// `WB_L3 target`.
    pub fn wb_l3(target: Target) -> CohInstr {
        CohInstr::Wb {
            target,
            scope: WbScope::ToL3,
        }
    }

    /// `WB_CONS(target, consumer)`.
    pub fn wb_cons(target: Target, consumer: ThreadId) -> CohInstr {
        CohInstr::Wb {
            target,
            scope: WbScope::Cons(consumer),
        }
    }

    /// `INV target` (from L1).
    pub fn inv(target: Target) -> CohInstr {
        CohInstr::Inv {
            target,
            scope: InvScope::FromL1,
        }
    }

    /// `INV ALL`.
    pub fn inv_all() -> CohInstr {
        CohInstr::Inv {
            target: Target::All,
            scope: InvScope::FromL1,
        }
    }

    /// `INV_L2 target`.
    pub fn inv_l2(target: Target) -> CohInstr {
        CohInstr::Inv {
            target,
            scope: InvScope::FromL2,
        }
    }

    /// `INV_PROD(target, producer)`.
    pub fn inv_prod(target: Target, producer: ThreadId) -> CohInstr {
        CohInstr::Inv {
            target,
            scope: InvScope::Prod(producer),
        }
    }

    /// Is this a whole-cache (ALL) flavor?
    pub fn is_all(&self) -> bool {
        matches!(
            self,
            CohInstr::Wb {
                target: Target::All,
                ..
            } | CohInstr::Inv {
                target: Target::All,
                ..
            }
        )
    }

    /// Mnemonic, for traces and error messages.
    pub fn mnemonic(&self) -> String {
        match self {
            CohInstr::Wb { target, scope } => {
                let base = match scope {
                    WbScope::ToL2 => "WB".to_string(),
                    WbScope::ToL3 => "WB_L3".to_string(),
                    WbScope::Cons(t) => format!("WB_CONS[{t}]"),
                };
                match target {
                    Target::All => format!("{base} ALL"),
                    _ => base,
                }
            }
            CohInstr::Inv { target, scope } => {
                let base = match scope {
                    InvScope::FromL1 => "INV".to_string(),
                    InvScope::FromL2 => "INV_L2".to_string(),
                    InvScope::Prod(t) => format!("INV_PROD[{t}]"),
                };
                match target {
                    Target::All => format!("{base} ALL"),
                    _ => base,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_mem::addr::WORDS_PER_LINE;

    #[test]
    fn operand_within_one_line() {
        let t = Target::Operand(Addr(64), Granularity::Word);
        assert_eq!(t.lines(), Some(vec![LineAddr(1)]));
    }

    #[test]
    fn quadword_operand_can_straddle_lines() {
        // Quad word (16 bytes) starting 8 bytes before a line boundary.
        let t = Target::Operand(Addr(56), Granularity::QuadWord);
        assert_eq!(t.lines(), Some(vec![LineAddr(0), LineAddr(1)]));
    }

    #[test]
    fn range_target_expands_to_overlapping_lines() {
        let r = Region::new(WordAddr(15), 3); // words 15,16,17: lines 0 and 1
        let t = Target::Range(r);
        assert_eq!(t.lines(), Some(vec![LineAddr(0), LineAddr(1)]));
    }

    #[test]
    fn all_target_has_no_line_list() {
        assert_eq!(Target::All.lines(), None);
    }

    #[test]
    fn word_mask_restricts_to_target_words() {
        // Word-granularity WB of word 3 of line 0.
        let t = Target::word(WordAddr(3));
        assert_eq!(t.word_mask(LineAddr(0)), 1 << 3);
        // ALL covers everything.
        assert_eq!(Target::All.word_mask(LineAddr(0)), u16::MAX);
    }

    #[test]
    fn word_mask_for_partial_range() {
        // Range words 14..18: line 0 gets words 14,15; line 1 gets 16,17
        // (i.e. words 0,1 of line 1).
        let t = Target::Range(Region::new(WordAddr(14), 4));
        assert_eq!(t.word_mask(LineAddr(0)), (1 << 14) | (1 << 15));
        assert_eq!(t.word_mask(LineAddr(1)), 0b11);
    }

    #[test]
    fn word_mask_full_line_range() {
        let t = Target::Range(Region::new(WordAddr(0), WORDS_PER_LINE as u64));
        assert_eq!(t.word_mask(LineAddr(0)), u16::MAX);
    }

    #[test]
    fn granularity_sizes() {
        assert_eq!(Granularity::Byte.bytes(), 1);
        assert_eq!(Granularity::HalfWord.bytes(), 2);
        assert_eq!(Granularity::Word.bytes(), 4);
        assert_eq!(Granularity::DoubleWord.bytes(), 8);
        assert_eq!(Granularity::QuadWord.bytes(), 16);
    }

    #[test]
    fn byte_granularity_still_names_its_word() {
        let t = Target::Operand(Addr(5), Granularity::Byte);
        // Byte 5 lives in word 1 of line 0.
        assert_eq!(t.word_mask(LineAddr(0)), 1 << 1);
    }

    #[test]
    fn mnemonics() {
        assert_eq!(CohInstr::wb_all().mnemonic(), "WB ALL");
        assert_eq!(CohInstr::inv_all().mnemonic(), "INV ALL");
        assert_eq!(CohInstr::wb(Target::word(WordAddr(0))).mnemonic(), "WB");
        assert_eq!(CohInstr::wb_l3(Target::All).mnemonic(), "WB_L3 ALL");
        assert_eq!(
            CohInstr::wb_cons(Target::word(WordAddr(0)), ThreadId(3)).mnemonic(),
            "WB_CONS[t3]"
        );
        assert_eq!(
            CohInstr::inv_prod(Target::word(WordAddr(0)), ThreadId(1)).mnemonic(),
            "INV_PROD[t1]"
        );
        assert_eq!(
            CohInstr::inv_l2(Target::word(WordAddr(0))).mnemonic(),
            "INV_L2"
        );
    }

    #[test]
    fn is_all_detection() {
        assert!(CohInstr::wb_all().is_all());
        assert!(CohInstr::inv_all().is_all());
        assert!(!CohInstr::wb(Target::word(WordAddr(9))).is_all());
    }
}
