//! Property tests for the cache substrate: whatever sequence of fills,
//! writes, merges, invalidations, and (spilled) evictions happens, no
//! written word is ever lost — the cache plus the backing store always
//! holds the newest value of every word.
//!
//! Each property runs on a tiny cache and on one with 512 sets that the
//! ops touch only 16 of, and checks after every op that each resident
//! line's MEB line ID maps back to it.
//!
//! Randomized with the deterministic in-repo `SplitMix64` (fixed seeds).

use hic_mem::addr::WORDS_PER_LINE;
use hic_mem::{Cache, LineAddr, Memory, WordAddr};
use hic_sim::config::CacheGeometry;
use hic_sim::SplitMix64;

#[derive(Debug, Clone)]
enum OpKind {
    /// Write a word (filling the line from memory if missing).
    Write { line: u64, word: usize, value: u32 },
    /// Read a word and check it (filling if missing).
    Read { line: u64, word: usize },
    /// Invalidate a line, spilling its dirty words to memory.
    Invalidate { line: u64 },
    /// Clean a line (write its dirty words to memory, keep it resident).
    Clean { line: u64 },
}

/// A cache shape and the lines the properties touch in it. Both draw
/// more lines per set than there are ways, so evictions are frequent.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// 4 sets x 2 ways: 24 lines, 6 per set.
    Tiny,
    /// 512 sets x 2 ways: 3 lines on each of the first and last set of
    /// every 64-set block, so ops touch 16 scattered sets, in any order,
    /// and probe sets not yet allocated.
    Sparse,
}

const SHAPES: [Shape; 2] = [Shape::Tiny, Shape::Sparse];

impl Shape {
    fn cache(self) -> Cache {
        let size_bytes = match self {
            Shape::Tiny => 512,
            Shape::Sparse => 512 * 2 * 64,
        };
        Cache::new(CacheGeometry {
            size_bytes,
            ways: 2,
            line_bytes: 64,
        })
    }

    /// Sets the shape's lines fall in.
    fn sets(self) -> usize {
        match self {
            Shape::Tiny => 4,
            Shape::Sparse => 16,
        }
    }

    fn line(self, rng: &mut SplitMix64) -> u64 {
        match self {
            Shape::Tiny => rng.below(24),
            Shape::Sparse => {
                let set = rng.below(8) * 64 + 63 * rng.below(2);
                set + 512 * rng.below(3)
            }
        }
    }
}

/// Every resident line's line ID (`set * ways + way`) maps back to it.
fn assert_line_ids_round_trip(cache: &Cache, ctx: &str) {
    for la in cache.valid_line_addrs() {
        let id = cache.line_id(la).expect("a resident line has a line ID");
        assert_eq!(
            cache.line_at_id(id).map(|v| v.addr),
            Some(la),
            "{ctx}: line ID {id} does not map back to {la:?}"
        );
    }
}

fn gen_op(rng: &mut SplitMix64, shape: Shape) -> OpKind {
    let line = shape.line(rng);
    match rng.below(4) {
        0 => OpKind::Write {
            line,
            word: rng.below(WORDS_PER_LINE as u64) as usize,
            value: rng.next_u32(),
        },
        1 => OpKind::Read {
            line,
            word: rng.below(WORDS_PER_LINE as u64) as usize,
        },
        2 => OpKind::Invalidate { line },
        _ => OpKind::Clean { line },
    }
}

fn gen_ops(rng: &mut SplitMix64, shape: Shape, max_len: u64) -> Vec<OpKind> {
    let len = 1 + rng.below(max_len - 1);
    (0..len).map(|_| gen_op(rng, shape)).collect()
}

fn spill(mem: &mut Memory, ev: hic_mem::cache::EvictedLine) {
    if ev.dirty != 0 {
        mem.merge_words(ev.addr, &ev.data, ev.dirty);
    }
}

#[test]
fn no_written_word_is_ever_lost() {
    for shape in SHAPES {
        let mut rng = SplitMix64::new(0xCAC4E);
        let mut most_sets = 0;
        for case in 0..64 {
            let ops = gen_ops(&mut rng, shape, 200);
            let mut cache = shape.cache();
            let mut mem = Memory::new();
            // Reference: the true current value of every word.
            let mut model = std::collections::HashMap::<(u64, usize), u32>::new();

            for op in ops {
                match op {
                    OpKind::Write { line, word, value } => {
                        let la = LineAddr(line);
                        if cache.write_word(la, word, value).is_none() {
                            let data = mem.read_line(la);
                            if let Some(ev) = cache.fill(la, data, 0) {
                                spill(&mut mem, ev);
                            }
                            cache.write_word(la, word, value).expect("just filled");
                        }
                        model.insert((line, word), value);
                    }
                    OpKind::Read { line, word } => {
                        let la = LineAddr(line);
                        let got = match cache.read_word(la, word) {
                            Some(v) => v,
                            None => {
                                let data = mem.read_line(la);
                                if let Some(ev) = cache.fill(la, data, 0) {
                                    spill(&mut mem, ev);
                                }
                                cache.read_word(la, word).expect("just filled")
                            }
                        };
                        let want = model.get(&(line, word)).copied().unwrap_or(0);
                        assert_eq!(
                            got, want,
                            "{shape:?} case {case}: read {line}:{word} saw {got} want {want}"
                        );
                    }
                    OpKind::Invalidate { line } => {
                        if let Some(ev) = cache.invalidate(LineAddr(line)) {
                            spill(&mut mem, ev);
                        }
                    }
                    OpKind::Clean { line } => {
                        let la = LineAddr(line);
                        if let Some(v) = cache.view(la) {
                            if v.dirty != 0 {
                                let (data, dirty) = (*v.data, v.dirty);
                                mem.merge_words(la, &data, dirty);
                                cache.clean_line(la);
                            }
                        }
                    }
                }
                // Counter invariants hold at every step.
                assert!(cache.dirty_lines_resident() <= cache.resident_lines());
                assert!(cache.resident_lines() <= cache.capacity_lines());
                assert_line_ids_round_trip(&cache, &format!("{shape:?} case {case}"));
            }
            most_sets = most_sets.max(cache.sets_materialized());

            // Drain the cache: memory must now hold the model exactly.
            for la in cache.valid_line_addrs() {
                if let Some(ev) = cache.invalidate(la) {
                    spill(&mut mem, ev);
                }
            }
            for ((line, word), want) in model {
                let got = mem.read_word(WordAddr(line * WORDS_PER_LINE as u64 + word as u64));
                assert_eq!(
                    got, want,
                    "{shape:?} case {case}: after drain, {line}:{word}"
                );
            }
        }
        // The generator reaches every set it draws from.
        assert_eq!(most_sets, shape.sets(), "{shape:?}");
    }
}

/// The dirty-line counter always equals the number of lines with a
/// nonzero dirty mask.
#[test]
fn dirty_counter_is_exact() {
    for shape in SHAPES {
        let mut rng = SplitMix64::new(0xD1271);
        for case in 0..64 {
            let ops = gen_ops(&mut rng, shape, 100);
            let mut cache = shape.cache();
            let mut mem = Memory::new();
            for op in ops {
                match op {
                    OpKind::Write { line, word, value } => {
                        let la = LineAddr(line);
                        if cache.write_word(la, word, value).is_none() {
                            let data = mem.read_line(la);
                            if let Some(ev) = cache.fill(la, data, 0) {
                                spill(&mut mem, ev);
                            }
                            cache.write_word(la, word, value);
                        }
                    }
                    OpKind::Read { line, word } => {
                        let la = LineAddr(line);
                        if cache.read_word(la, word).is_none() {
                            let data = mem.read_line(la);
                            if let Some(ev) = cache.fill(la, data, 0) {
                                spill(&mut mem, ev);
                            }
                        }
                    }
                    OpKind::Invalidate { line } => {
                        if let Some(ev) = cache.invalidate(LineAddr(line)) {
                            spill(&mut mem, ev);
                        }
                    }
                    OpKind::Clean { line } => {
                        cache.clean_line(LineAddr(line));
                    }
                }
                let truth = cache.valid_lines().filter(|v| v.dirty != 0).count();
                assert_eq!(cache.dirty_lines_resident(), truth, "{shape:?} case {case}");
                assert_line_ids_round_trip(&cache, &format!("{shape:?} case {case}"));
            }
        }
    }
}

/// The incremental valid/dirty slot index (`valid_line_addrs` /
/// `dirty_line_addrs`, backed by per-slot bitmaps) always equals a naive
/// recount over the raw slot sweep (`valid_lines`), in the same order,
/// under arbitrary fill / write / merge / clean / partial-clean /
/// invalidate sequences.
#[test]
fn dirty_index_matches_naive_recount() {
    for shape in SHAPES {
        let mut rng = SplitMix64::new(0x1D8E);
        for case in 0..96 {
            let len = 1 + rng.below(199);
            let mut cache = shape.cache();
            let mut mem = Memory::new();
            for step in 0..len {
                let line = shape.line(&mut rng);
                let la = LineAddr(line);
                match rng.below(7) {
                    0 => {
                        // Fill with a random (possibly dirty) mask.
                        let mask = (rng.next_u32() & 0xFFFF) as u16;
                        let data = mem.read_line(la);
                        if let Some(ev) = cache.fill(la, data, mask) {
                            spill(&mut mem, ev);
                        }
                    }
                    1 => {
                        let word = rng.below(WORDS_PER_LINE as u64) as usize;
                        let value = rng.next_u32();
                        if cache.write_word(la, word, value).is_none() {
                            let data = mem.read_line(la);
                            if let Some(ev) = cache.fill(la, data, 0) {
                                spill(&mut mem, ev);
                            }
                            cache.write_word(la, word, value);
                        }
                    }
                    2 => {
                        let mask = (rng.next_u32() & 0xFFFF) as u16;
                        let data = [rng.next_u32(); WORDS_PER_LINE];
                        cache.merge_words(la, &data, mask);
                    }
                    3 => {
                        cache.clean_line(la);
                    }
                    4 => {
                        // Partial clean: may or may not leave dirty words.
                        let mask = (rng.next_u32() & 0xFFFF) as u16;
                        cache.clean_words(la, mask);
                    }
                    _ => {
                        if let Some(ev) = cache.invalidate(la) {
                            spill(&mut mem, ev);
                        }
                    }
                }

                let ctx = format!("{shape:?} case {case} step {step}");
                let naive_valid: Vec<LineAddr> = cache.valid_lines().map(|v| v.addr).collect();
                let naive_dirty: Vec<LineAddr> = cache
                    .valid_lines()
                    .filter(|v| v.dirty != 0)
                    .map(|v| v.addr)
                    .collect();
                assert_eq!(
                    cache.valid_line_addrs(),
                    naive_valid,
                    "{ctx}: valid index diverged from slot sweep"
                );
                assert_eq!(
                    cache.dirty_line_addrs(),
                    naive_dirty,
                    "{ctx}: dirty index diverged from slot sweep"
                );
                assert_eq!(cache.dirty_lines_resident(), naive_dirty.len());
                assert_eq!(cache.resident_lines(), naive_valid.len());
                assert_line_ids_round_trip(&cache, &ctx);
            }
        }
    }
}
