//! A set-associative, write-back cache with per-word dirty bits.
//!
//! This is the storage structure shared by L1, L2 banks, and L3 banks.
//! Per-word dirty bits are the key hardware feature the paper relies on
//! (§III-B): a writeback transfers *only dirty words*, so two cores that
//! write disjoint words of the same line never overwrite each other's data.
//!
//! The cache stores real word values. It is policy-free: callers decide
//! when lines move. Evictions return the victim so the caller can spill
//! its dirty words down the hierarchy.
//!
//! Slot storage is allocated one set at a time: a set's slots are created
//! by the first fill into it, so building a cache allocates nothing and a
//! run pays only for the sets it touches (DESIGN.md §9). Bank interleaving
//! sends a shared-cache bank only every `banks`-th line, so storage in
//! blocks of consecutive sets would mostly sit empty there. The layout is
//! invisible to callers: slot numbering, victim choice and sweep order are
//! those of a flat slot array.

use crate::addr::{LineAddr, WORDS_PER_LINE};
use crate::checkpoint::CheckpointStore;
use crate::Word;
use hic_sim::config::CacheGeometry;

/// Dirty-word bitmask: bit `i` set means word `i` of the line is dirty.
pub type DirtyMask = u16;

/// Mask with all words of a line dirty.
pub const FULL_DIRTY: DirtyMask = u16::MAX;

#[derive(Debug, Clone)]
struct Slot {
    addr: LineAddr,
    valid: bool,
    dirty: DirtyMask,
    /// LRU stamp: larger = more recently used.
    lru: u64,
    data: [Word; WORDS_PER_LINE],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            addr: LineAddr(0),
            valid: false,
            dirty: 0,
            lru: 0,
            data: [0; WORDS_PER_LINE],
        }
    }

    fn view(&self) -> LineView<'_> {
        LineView {
            addr: self.addr,
            dirty: self.dirty,
            data: &self.data,
        }
    }

    fn evicted(&self) -> EvictedLine {
        EvictedLine {
            addr: self.addr,
            dirty: self.dirty,
            data: self.data,
        }
    }
}

/// Per-set slot storage. A set's `ways` slots are one contiguous run of
/// `arena`, appended by the set's first fill; `index[set]` is the run's
/// offset + 1, 0 while the set has never been filled. `index` itself is
/// allocated by the cache's first fill, so an untouched cache owns no
/// storage. Slot `id = set * ways + way` is the `way`-th slot of its
/// set's run, so IDs are those of a flat slot array.
#[derive(Debug, Clone)]
struct Slots {
    sets: usize,
    ways: usize,
    index: Vec<u32>,
    arena: Vec<Slot>,
}

impl Slots {
    fn new(sets: usize, ways: usize) -> Slots {
        assert!(
            u32::try_from(sets * ways).is_ok(),
            "a cache has fewer than 2^32 slots"
        );
        Slots {
            sets,
            ways,
            index: Vec::new(),
            arena: Vec::new(),
        }
    }

    /// The set of `addr`.
    #[inline]
    fn set_of(&self, addr: LineAddr) -> usize {
        (addr.0 as usize) & (self.sets - 1)
    }

    /// The slots of `set`; `None` while the set has never been filled.
    #[inline]
    fn set(&self, set: usize) -> Option<&[Slot]> {
        let first = (*self.index.get(set)? as usize).checked_sub(1)?;
        Some(&self.arena[first..first + self.ways])
    }

    #[inline]
    fn set_mut(&mut self, set: usize) -> Option<&mut [Slot]> {
        let first = (*self.index.get(set)? as usize).checked_sub(1)?;
        Some(&mut self.arena[first..first + self.ways])
    }

    /// The slot holding `addr`, with its ID, if resident.
    #[inline]
    fn find(&self, addr: LineAddr) -> Option<(usize, &Slot)> {
        let set = self.set_of(addr);
        let slots = self.set(set)?;
        let way = slots.iter().position(|s| s.valid && s.addr == addr)?;
        Some((set * self.ways + way, &slots[way]))
    }

    #[inline]
    fn find_mut(&mut self, addr: LineAddr) -> Option<(usize, &mut Slot)> {
        let set = self.set_of(addr);
        let ways = self.ways;
        let slots = self.set_mut(set)?;
        let way = slots.iter().position(|s| s.valid && s.addr == addr)?;
        Some((set * ways + way, &mut slots[way]))
    }

    /// The slot a fill of `addr` takes: the one already holding it, else
    /// the set's first invalid way, else its least recently used one.
    /// Allocates the index on the cache's first fill and the set's slots
    /// on the set's first fill.
    fn fill_slot(&mut self, addr: LineAddr) -> (usize, &mut Slot) {
        let set = self.set_of(addr);
        if self.index.is_empty() {
            self.index = vec![0; self.sets];
        }
        if self.index[set] == 0 {
            self.index[set] = self.arena.len() as u32 + 1;
            self.arena
                .resize(self.arena.len() + self.ways, Slot::empty());
        }
        let ways = self.ways;
        let slots = self.set_mut(set).expect("the set was just allocated");
        let way = match slots.iter().position(|s| s.valid && s.addr == addr) {
            Some(way) => way,
            None => slots.iter().position(|s| !s.valid).unwrap_or_else(|| {
                (0..slots.len())
                    .min_by_key(|&w| slots[w].lru)
                    .expect("a set has at least one way")
            }),
        };
        (set * ways + way, &mut slots[way])
    }

    /// Slot `id`; `None` when its set was never filled or `id` is out of
    /// range.
    fn get(&self, id: usize) -> Option<&Slot> {
        self.set(id / self.ways)?.get(id % self.ways)
    }

    /// The slot a set bit of a slot bitmap names (its set is allocated).
    fn by_bit(&self, id: usize) -> &Slot {
        self.get(id)
            .expect("a set bitmap bit names an allocated slot")
    }

    /// Every slot of every filled set, in ascending ID order.
    fn iter(&self) -> impl Iterator<Item = &Slot> {
        (0..self.index.len()).flat_map(|set| self.set(set).into_iter().flatten())
    }
}

/// A line evicted to make room, carrying its dirty words (if any).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine {
    pub addr: LineAddr,
    pub dirty: DirtyMask,
    pub data: [Word; WORDS_PER_LINE],
}

impl EvictedLine {
    /// Number of dirty words carried.
    pub fn dirty_words(&self) -> u32 {
        self.dirty.count_ones()
    }
}

/// Immutable view of a resident line.
#[derive(Debug, Clone, Copy)]
pub struct LineView<'a> {
    pub addr: LineAddr,
    pub dirty: DirtyMask,
    pub data: &'a [Word; WORDS_PER_LINE],
}

/// Result of a lookup: hit with the line's dirty mask, or miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    Hit { dirty: DirtyMask },
    Miss,
}

impl LookupResult {
    pub fn is_hit(self) -> bool {
        matches!(self, LookupResult::Hit { .. })
    }
}

/// Set-associative write-back cache with LRU replacement and per-word
/// dirty bits.
///
/// Slot storage is per set: construction allocates none, the first fill
/// into a set allocates its slots, and a lookup into a never-filled set
/// is a miss.
#[derive(Debug, Clone)]
pub struct Cache {
    slots: Slots,
    tick: u64,
    /// Number of valid lines resident.
    line_count_resident: usize,
    /// Number of valid lines with at least one dirty word. Hardware keeps
    /// this as a counter register so `WB ALL` / `INV ALL` can skip the
    /// tag traversal entirely when the cache is clean (flash-clear).
    dirty_line_count: usize,
    /// Bit per slot: the slot holds a valid line. Models the hardware
    /// valid-bit column read out as a vector, so ALL-flavor traversals
    /// visit only resident lines instead of sweeping every slot.
    valid_bits: Vec<u64>,
    /// Bit per slot: the slot holds a valid line with at least one dirty
    /// word (the OR-reduction of its per-word dirty bits). `WB ALL`
    /// walks exactly these.
    dirty_bits: Vec<u64>,
    /// Per-line parity protection, modeling the ECC-lite arrays of a
    /// near-threshold design (off by default; enabled by fault
    /// injection). When on, bit `i` holds the even parity of slot `i`'s
    /// data and is maintained on every legitimate write; a bit flip
    /// injected via [`Cache::corrupt_bit`] bypasses the update, so
    /// [`Cache::parity_ok`] detects it on the next read.
    parity_enabled: bool,
    parity_bits: Vec<u64>,
    /// Copy-on-write epoch checkpoints for dirty lines (rollback
    /// recovery; see [`crate::checkpoint`]). Off by default — every
    /// maintenance hook is behind the option, so recovery-disabled runs
    /// pay one branch. Owned by the cache itself so no mutation path
    /// can bypass the journal.
    ckpt: Option<Box<CheckpointStore>>,
}

/// Even parity of a line's data: XOR-reduction of all its bits. Parity
/// is linear, so the words are XOR-folded first and counted once.
#[inline]
fn line_parity(data: &[Word; WORDS_PER_LINE]) -> bool {
    data.iter().fold(0, |p, w| p ^ w).count_ones() & 1 == 1
}

/// Set or clear bit `i` of a slot bitmap.
#[inline]
fn set_bit(bits: &mut [u64], i: usize, on: bool) {
    if on {
        bits[i / 64] |= 1 << (i % 64);
    } else {
        bits[i / 64] &= !(1 << (i % 64));
    }
}

/// Iterate the indices of set bits in a slot bitmap, ascending.
fn for_each_set_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let b = rest.trailing_zeros() as usize;
            f(w * 64 + b);
            rest &= rest - 1;
        }
    }
}

impl Cache {
    /// Build a cache from a geometry. Panics if the geometry's line size
    /// does not match the global line (`MachineConfig::validate` rejects
    /// such geometries before a machine is ever assembled; this assert is
    /// the defense in depth for direct `Cache` construction).
    pub fn new(geom: CacheGeometry) -> Cache {
        assert_eq!(
            geom.line_bytes,
            hic_sim::config::line_bytes(),
            "cache geometry line size must match the global line size"
        );
        let sets = geom.num_sets();
        let ways = geom.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let words = (sets * ways).div_ceil(64);
        Cache {
            slots: Slots::new(sets, ways),
            tick: 0,
            line_count_resident: 0,
            dirty_line_count: 0,
            valid_bits: vec![0; words],
            dirty_bits: vec![0; words],
            parity_enabled: false,
            parity_bits: vec![0; words],
            ckpt: None,
        }
    }

    /// Turn on copy-on-write epoch checkpointing of dirty lines. Like
    /// [`Cache::enable_parity`] it can be enabled mid-flight: every
    /// already-dirty resident line is captured at its *current* image
    /// (the best recovery point available once its epoch is underway).
    pub fn enable_checkpoints(&mut self) {
        let mut ck = Box::new(CheckpointStore::new());
        for s in self.valid_lines().filter(|s| s.dirty != 0) {
            ck.rebase(s.addr, s.data, s.dirty);
        }
        self.ckpt = Some(ck);
    }

    /// Whether dirty-line checkpointing is on.
    pub fn checkpoints_enabled(&self) -> bool {
        self.ckpt.is_some()
    }

    /// Epoch boundary (MEB/IEB marker): collapse every line's store
    /// journal into its checkpoint base, so no rollback replays past
    /// this point. No-op when checkpointing is off.
    pub fn epoch_mark(&mut self) {
        if let Some(ck) = self.ckpt.as_mut() {
            ck.epoch_mark();
        }
    }

    /// Repair a (presumed corrupted) resident line from its checkpoint:
    /// rewrite the line's data with the checkpoint reconstruction and
    /// restore parity consistency. Returns the number of journaled
    /// stores the restore replayed, or `None` when the line is resident
    /// but untracked / checkpointing is off (the caller must fall back
    /// to the fatal path).
    pub fn rollback_line(&mut self, addr: LineAddr) -> Option<u64> {
        let (id, s) = self.slots.find_mut(addr)?;
        let (image, stores) = self.ckpt.as_ref()?.rollback_image(addr)?;
        s.data = image;
        if self.parity_enabled {
            set_bit(&mut self.parity_bits, id, line_parity(&image));
        }
        Some(stores)
    }

    /// Total words captured into checkpoint bases (0 when checkpointing
    /// is off). Charged to `ResilienceStats::checkpoint_words`.
    pub fn checkpoint_words(&self) -> u64 {
        self.ckpt.as_ref().map_or(0, |ck| ck.captured_words())
    }

    /// Turn on per-line parity tracking. Recomputes parity for every
    /// resident line so it can be enabled mid-flight; costs nothing when
    /// never called (every maintenance site is behind the flag).
    pub fn enable_parity(&mut self) {
        self.parity_enabled = true;
        self.parity_bits.fill(0);
        let (slots, parity) = (&self.slots, &mut self.parity_bits);
        for_each_set_bit(&self.valid_bits, |i| {
            if line_parity(&slots.by_bit(i).data) {
                set_bit(parity, i, true);
            }
        });
    }

    /// Flip the stored parity of slot `i` when a word changes from `old`
    /// to `new` (parity of a line is linear in its bits).
    #[inline]
    fn update_parity_for_write(&mut self, i: usize, old: Word, new: Word) {
        if self.parity_enabled && (old ^ new).count_ones() & 1 == 1 {
            self.parity_bits[i / 64] ^= 1 << (i % 64);
        }
    }

    /// Does the stored parity of a resident line match its data? Always
    /// `true` when parity is disabled or the line is not resident.
    pub fn parity_ok(&self, addr: LineAddr) -> bool {
        if !self.parity_enabled {
            return true;
        }
        match self.slots.find(addr) {
            Some((id, s)) => {
                let stored = self.parity_bits[id / 64] & (1 << (id % 64)) != 0;
                stored == line_parity(&s.data)
            }
            None => true,
        }
    }

    /// Fault injection: flip one bit of a resident line's data *without*
    /// updating its parity, modeling a transient upset in the data array.
    /// Returns `true` if the line was resident and the bit was flipped.
    pub fn corrupt_bit(&mut self, addr: LineAddr, word: usize, bit: u32) -> bool {
        match self.slots.find_mut(addr) {
            Some((_, s)) => {
                s.data[word % WORDS_PER_LINE] ^= 1 << (bit % Word::BITS);
                true
            }
            None => false,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.slots.sets
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.slots.sets * self.slots.ways
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.line_count_resident
    }

    /// Number of resident lines with at least one dirty word (tracked in
    /// a hardware counter; lets ALL-flavor operations flash-complete when
    /// the cache is clean).
    pub fn dirty_lines_resident(&self) -> usize {
        self.dirty_line_count
    }

    /// Number of sets whose slot storage has been allocated (the sets
    /// filled at least once since construction or [`Cache::reset`]).
    pub fn sets_materialized(&self) -> usize {
        self.slots.arena.len() / self.slots.ways
    }

    /// The line ID the MEB stores: position of the line within the cache
    /// (set index * ways + way), `line_id_bits` wide (paper §IV-B1).
    pub fn line_id(&self, addr: LineAddr) -> Option<usize> {
        self.slots.find(addr).map(|(id, _)| id)
    }

    /// Line address currently resident at a given line ID, if valid.
    /// Used when draining the MEB: an ID whose slot was re-filled by a
    /// different (never-written) line is a stale MEB entry.
    pub fn line_at_id(&self, id: usize) -> Option<LineView<'_>> {
        self.slots.get(id).filter(|s| s.valid).map(Slot::view)
    }

    /// Probe without disturbing LRU state.
    pub fn probe(&self, addr: LineAddr) -> LookupResult {
        match self.slots.find(addr) {
            Some((_, s)) => LookupResult::Hit { dirty: s.dirty },
            None => LookupResult::Miss,
        }
    }

    /// Immutable view of a resident line.
    pub fn view(&self, addr: LineAddr) -> Option<LineView<'_>> {
        self.slots.find(addr).map(|(_, s)| s.view())
    }

    /// Read one word if the line is resident; bumps LRU.
    pub fn read_word(&mut self, addr: LineAddr, word: usize) -> Option<Word> {
        let (_, s) = self.slots.find_mut(addr)?;
        self.tick += 1;
        s.lru = self.tick;
        Some(s.data[word])
    }

    /// Is a specific word of a resident line dirty?
    pub fn word_dirty(&self, addr: LineAddr, word: usize) -> bool {
        match self.slots.find(addr) {
            Some((_, s)) => s.dirty & (1 << word) != 0,
            None => false,
        }
    }

    /// Write one word if the line is resident; sets its dirty bit and bumps
    /// LRU. Returns `true` on hit. The second element reports whether the
    /// word was clean before (the MEB inserts on clean->dirty transitions).
    pub fn write_word(&mut self, addr: LineAddr, word: usize, value: Word) -> Option<bool> {
        let (id, s) = self.slots.find_mut(addr)?;
        self.tick += 1;
        if let Some(ck) = self.ckpt.as_mut() {
            // Journal the store *before* it lands: the first store to an
            // untracked line captures the pre-store image as its base.
            ck.on_store(addr, word, value, &s.data);
        }
        s.lru = self.tick;
        if s.dirty == 0 {
            self.dirty_line_count += 1;
            set_bit(&mut self.dirty_bits, id, true);
        }
        let was_clean = s.dirty & (1 << word) == 0;
        let old = s.data[word];
        s.data[word] = value;
        s.dirty |= 1 << word;
        self.update_parity_for_write(id, old, value);
        Some(was_clean)
    }

    /// Install a line (e.g. on a miss fill). The line arrives clean unless
    /// `dirty` says otherwise. Returns the evicted victim, if the set was
    /// full and a valid line had to leave.
    pub fn fill(
        &mut self,
        addr: LineAddr,
        data: [Word; WORDS_PER_LINE],
        dirty: DirtyMask,
    ) -> Option<EvictedLine> {
        let (id, s) = self.slots.fill_slot(addr);
        self.tick += 1;
        if s.valid && s.addr == addr {
            // Refill of a resident line: overwrite data, merge dirty mask.
            s.lru = self.tick;
            s.data = data;
            if s.dirty == 0 && dirty != 0 {
                self.dirty_line_count += 1;
                set_bit(&mut self.dirty_bits, id, true);
            }
            s.dirty |= dirty;
            if self.parity_enabled {
                set_bit(&mut self.parity_bits, id, line_parity(&data));
            }
            if let Some(ck) = self.ckpt.as_mut() {
                // Wholesale data replacement: the old journal no longer
                // reconstructs this line. Re-capture (still dirty) or
                // drop (clean).
                ck.rebase(addr, &data, s.dirty);
            }
            return None;
        }
        let evicted = s.valid.then(|| s.evicted());
        *s = Slot {
            addr,
            valid: true,
            dirty,
            lru: self.tick,
            data,
        };
        if let Some(ev) = &evicted {
            self.line_count_resident -= 1;
            if ev.dirty != 0 {
                self.dirty_line_count -= 1;
            }
            if let Some(ck) = self.ckpt.as_mut() {
                ck.prune(ev.addr);
            }
        }
        self.line_count_resident += 1;
        if dirty != 0 {
            self.dirty_line_count += 1;
        }
        set_bit(&mut self.valid_bits, id, true);
        set_bit(&mut self.dirty_bits, id, dirty != 0);
        if self.parity_enabled {
            set_bit(&mut self.parity_bits, id, line_parity(&data));
        }
        if dirty != 0 {
            if let Some(ck) = self.ckpt.as_mut() {
                ck.rebase(addr, &data, dirty);
            }
        }
        evicted
    }

    /// Merge dirty words into a resident line (a writeback arriving from a
    /// cache above). Only the words selected by `mask` are written; they
    /// become dirty here. Returns `false` if the line is not resident.
    pub fn merge_words(
        &mut self,
        addr: LineAddr,
        data: &[Word; WORDS_PER_LINE],
        mask: DirtyMask,
    ) -> bool {
        let Some((id, s)) = self.slots.find_mut(addr) else {
            return false;
        };
        self.tick += 1;
        s.lru = self.tick;
        let mut parity_delta = 0u32;
        for (w, incoming) in data.iter().enumerate() {
            if mask & (1 << w) != 0 {
                parity_delta ^= s.data[w] ^ *incoming;
                s.data[w] = *incoming;
            }
        }
        if self.parity_enabled && parity_delta.count_ones() & 1 == 1 {
            self.parity_bits[id / 64] ^= 1 << (id % 64);
        }
        if s.dirty == 0 && mask != 0 {
            self.dirty_line_count += 1;
            set_bit(&mut self.dirty_bits, id, true);
        }
        s.dirty |= mask;
        if let Some(ck) = self.ckpt.as_mut() {
            // An incoming writeback replaced words out-of-band of the
            // store journal: re-capture at the merged image.
            ck.rebase(addr, &s.data, s.dirty);
        }
        true
    }

    /// Clear the dirty bits of a resident line (it was just written back
    /// and is now "clean valid", §III-B). Returns the mask that was dirty.
    pub fn clean_line(&mut self, addr: LineAddr) -> DirtyMask {
        match self.slots.find_mut(addr) {
            Some((id, s)) => {
                let was = std::mem::take(&mut s.dirty);
                if was != 0 {
                    self.dirty_line_count -= 1;
                    set_bit(&mut self.dirty_bits, id, false);
                    if let Some(ck) = self.ckpt.as_mut() {
                        ck.prune(addr);
                    }
                }
                was
            }
            None => 0,
        }
    }

    /// Clear only the selected dirty bits of a resident line. A partial
    /// (word- or range-granularity) writeback must not mark words it did
    /// not transfer as clean — their updates would be silently lost.
    pub fn clean_words(&mut self, addr: LineAddr, mask: DirtyMask) {
        if let Some((id, s)) = self.slots.find_mut(addr) {
            let was = s.dirty;
            s.dirty &= !mask;
            if was != 0 && s.dirty == 0 {
                self.dirty_line_count -= 1;
                set_bit(&mut self.dirty_bits, id, false);
                if let Some(ck) = self.ckpt.as_mut() {
                    ck.prune(addr);
                }
            }
        }
    }

    /// Invalidate a resident line, returning its content so the caller can
    /// first write back dirty words (INV must not lose updates, §III-B).
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<EvictedLine> {
        let (id, s) = self.slots.find_mut(addr)?;
        s.valid = false;
        let ev = s.evicted();
        if let Some(ck) = self.ckpt.as_mut() {
            ck.prune(addr);
        }
        self.line_count_resident -= 1;
        if ev.dirty != 0 {
            self.dirty_line_count -= 1;
        }
        set_bit(&mut self.valid_bits, id, false);
        set_bit(&mut self.dirty_bits, id, false);
        Some(ev)
    }

    /// Iterate over all valid lines (for WB ALL / INV ALL traversals).
    ///
    /// Deliberately a raw slot sweep (over the filled sets, in ascending
    /// slot order) rather than a bitmap walk: this is the naive
    /// reference the property tests compare the valid/dirty slot bitmaps
    /// against.
    pub fn valid_lines(&self) -> impl Iterator<Item = LineView<'_>> {
        self.slots.iter().filter(|s| s.valid).map(Slot::view)
    }

    /// Visit every valid line with at least one dirty word in ascending
    /// slot order (same order as [`Cache::valid_lines`]), walking the
    /// dirty-slot bitmap instead of sweeping all slots.
    pub fn for_each_dirty_line(&self, mut f: impl FnMut(LineView<'_>)) {
        for_each_set_bit(&self.dirty_bits, |i| {
            let s = self.slots.by_bit(i);
            debug_assert!(s.valid && s.dirty != 0, "stale dirty bit for slot {i}");
            f(s.view());
        });
    }

    /// Append the addresses of all valid lines with at least one dirty
    /// word to `out` (ascending slot order, same as [`Cache::valid_lines`]).
    /// Walks the dirty-slot bitmap, so a mostly-clean cache costs
    /// O(capacity/64), not O(capacity), and the caller reuses `out`
    /// across instructions instead of allocating.
    pub fn dirty_line_addrs_into(&self, out: &mut Vec<LineAddr>) {
        for_each_set_bit(&self.dirty_bits, |i| {
            let s = self.slots.by_bit(i);
            debug_assert!(s.valid && s.dirty != 0, "stale dirty bit for slot {i}");
            out.push(s.addr);
        });
    }

    /// Append the addresses of all valid lines to `out` (ascending slot
    /// order).
    pub fn valid_line_addrs_into(&self, out: &mut Vec<LineAddr>) {
        for_each_set_bit(&self.valid_bits, |i| {
            let s = self.slots.by_bit(i);
            debug_assert!(s.valid, "stale valid bit for slot {i}");
            out.push(s.addr);
        });
    }

    /// Addresses of all valid lines with at least one dirty word.
    pub fn dirty_line_addrs(&self) -> Vec<LineAddr> {
        let mut out = Vec::with_capacity(self.dirty_line_count);
        self.dirty_line_addrs_into(&mut out);
        out
    }

    /// Addresses of all valid lines.
    pub fn valid_line_addrs(&self) -> Vec<LineAddr> {
        let mut out = Vec::with_capacity(self.line_count_resident);
        self.valid_line_addrs_into(&mut out);
        out
    }

    /// Drop every line and all slot storage (power-on reset; used between
    /// experiment runs).
    pub fn reset(&mut self) {
        self.slots = Slots::new(self.slots.sets, self.slots.ways);
        self.tick = 0;
        self.line_count_resident = 0;
        self.dirty_line_count = 0;
        self.valid_bits.fill(0);
        self.dirty_bits.fill(0);
        self.parity_bits.fill(0);
        if let Some(ck) = self.ckpt.as_mut() {
            **ck = CheckpointStore::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheGeometry {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    fn line_data(seed: Word) -> [Word; WORDS_PER_LINE] {
        std::array::from_fn(|i| seed.wrapping_add(i as Word))
    }

    #[test]
    fn fill_then_read() {
        let mut c = small_cache();
        assert!(c.fill(LineAddr(10), line_data(100), 0).is_none());
        assert_eq!(c.read_word(LineAddr(10), 3), Some(103));
        assert!(c.probe(LineAddr(10)).is_hit());
        assert_eq!(c.probe(LineAddr(11)), LookupResult::Miss);
    }

    #[test]
    fn write_sets_per_word_dirty_bits() {
        let mut c = small_cache();
        c.fill(LineAddr(1), line_data(0), 0);
        assert_eq!(c.write_word(LineAddr(1), 5, 99), Some(true)); // was clean
        assert_eq!(c.write_word(LineAddr(1), 5, 98), Some(false)); // already dirty
        assert!(c.word_dirty(LineAddr(1), 5));
        assert!(!c.word_dirty(LineAddr(1), 4));
        match c.probe(LineAddr(1)) {
            LookupResult::Hit { dirty } => assert_eq!(dirty, 1 << 5),
            _ => panic!("expected hit"),
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Lines 0, 4, 8 all map to set 0 (4 sets). Ways = 2.
        c.fill(LineAddr(0), line_data(0), 0);
        c.fill(LineAddr(4), line_data(4), 0);
        // Touch line 0 so line 4 is LRU.
        c.read_word(LineAddr(0), 0);
        let ev = c.fill(LineAddr(8), line_data(8), 0).expect("must evict");
        assert_eq!(ev.addr, LineAddr(4));
        assert!(c.probe(LineAddr(0)).is_hit());
        assert!(c.probe(LineAddr(8)).is_hit());
        assert!(!c.probe(LineAddr(4)).is_hit());
    }

    #[test]
    fn eviction_carries_dirty_words() {
        let mut c = small_cache();
        c.fill(LineAddr(0), line_data(0), 0);
        c.write_word(LineAddr(0), 2, 777).unwrap();
        c.fill(LineAddr(4), line_data(4), 0);
        let ev = c.fill(LineAddr(8), line_data(8), 0).expect("evicts line 0");
        assert_eq!(ev.addr, LineAddr(0));
        assert_eq!(ev.dirty, 1 << 2);
        assert_eq!(ev.data[2], 777);
        assert_eq!(ev.dirty_words(), 1);
    }

    #[test]
    fn merge_words_applies_only_masked_words() {
        let mut c = small_cache();
        c.fill(LineAddr(3), line_data(0), 0);
        let incoming = line_data(1000);
        assert!(c.merge_words(LineAddr(3), &incoming, 0b101));
        assert_eq!(c.read_word(LineAddr(3), 0), Some(1000));
        assert_eq!(c.read_word(LineAddr(3), 1), Some(1)); // untouched
        assert_eq!(c.read_word(LineAddr(3), 2), Some(1002));
        match c.probe(LineAddr(3)) {
            LookupResult::Hit { dirty } => assert_eq!(dirty, 0b101),
            _ => panic!(),
        }
        assert!(!c.merge_words(LineAddr(99), &incoming, 1));
    }

    #[test]
    fn clean_line_clears_and_reports_dirty_mask() {
        let mut c = small_cache();
        c.fill(LineAddr(1), line_data(0), 0);
        c.write_word(LineAddr(1), 0, 5).unwrap();
        c.write_word(LineAddr(1), 7, 5).unwrap();
        assert_eq!(c.clean_line(LineAddr(1)), (1 << 0) | (1 << 7));
        match c.probe(LineAddr(1)) {
            LookupResult::Hit { dirty } => assert_eq!(dirty, 0),
            _ => panic!(),
        }
        assert_eq!(c.clean_line(LineAddr(222)), 0);
    }

    #[test]
    fn invalidate_returns_content() {
        let mut c = small_cache();
        c.fill(LineAddr(6), line_data(60), 0);
        c.write_word(LineAddr(6), 1, 1).unwrap();
        let inv = c.invalidate(LineAddr(6)).unwrap();
        assert_eq!(inv.addr, LineAddr(6));
        assert_eq!(inv.dirty, 1 << 1);
        assert!(!c.probe(LineAddr(6)).is_hit());
        assert!(c.invalidate(LineAddr(6)).is_none());
    }

    #[test]
    fn refill_of_resident_line_merges_dirty() {
        let mut c = small_cache();
        c.fill(LineAddr(2), line_data(0), 0);
        c.write_word(LineAddr(2), 3, 42).unwrap();
        // Refill (e.g. prefetch) must not drop the dirty bit.
        c.fill(LineAddr(2), line_data(500), 0);
        match c.probe(LineAddr(2)) {
            LookupResult::Hit { dirty } => assert_eq!(dirty, 1 << 3),
            _ => panic!(),
        }
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn traversal_iterators() {
        let mut c = small_cache();
        c.fill(LineAddr(0), line_data(0), 0);
        c.fill(LineAddr(1), line_data(0), 0);
        c.write_word(LineAddr(1), 0, 9).unwrap();
        assert_eq!(c.valid_line_addrs().len(), 2);
        assert_eq!(c.dirty_line_addrs(), vec![LineAddr(1)]);
        assert_eq!(c.valid_lines().count(), 2);
    }

    #[test]
    fn line_id_is_stable_while_resident() {
        let mut c = small_cache();
        c.fill(LineAddr(0), line_data(0), 0);
        let id = c.line_id(LineAddr(0)).unwrap();
        c.read_word(LineAddr(0), 0);
        assert_eq!(c.line_id(LineAddr(0)), Some(id));
        let v = c.line_at_id(id).unwrap();
        assert_eq!(v.addr, LineAddr(0));
    }

    #[test]
    fn stale_meb_id_points_to_different_line_after_replacement() {
        // Models paper §IV-B1: MEB entry goes stale when its line is
        // evicted and the slot refilled by a never-written line.
        let mut c = small_cache();
        c.fill(LineAddr(0), line_data(0), 0);
        c.write_word(LineAddr(0), 0, 1).unwrap();
        let id = c.line_id(LineAddr(0)).unwrap();
        c.fill(LineAddr(4), line_data(0), 0);
        // Evict line 0 (LRU after touching line 4), refill slot with line 8.
        c.fill(LineAddr(8), line_data(0), 0);
        let now = c.line_at_id(id).unwrap();
        // The slot holds a different, clean line: drain must skip it.
        assert_ne!(now.addr, LineAddr(0));
        assert_eq!(now.dirty, 0);
    }

    #[test]
    fn reset_empties_cache() {
        let mut c = small_cache();
        c.fill(LineAddr(0), line_data(0), FULL_DIRTY);
        c.reset();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.probe(LineAddr(0)).is_hit());
    }

    #[test]
    fn parity_tracks_legitimate_writes() {
        let mut c = small_cache();
        c.fill(LineAddr(1), line_data(7), 0);
        c.enable_parity();
        assert!(c.parity_ok(LineAddr(1)));
        // Every legitimate mutation keeps parity consistent.
        c.write_word(LineAddr(1), 3, 0xDEAD_BEEF).unwrap();
        assert!(c.parity_ok(LineAddr(1)));
        assert!(c.merge_words(LineAddr(1), &line_data(9000), 0b1101));
        assert!(c.parity_ok(LineAddr(1)));
        c.fill(LineAddr(1), line_data(1234), 0);
        assert!(c.parity_ok(LineAddr(1)));
        c.fill(LineAddr(2), line_data(55), FULL_DIRTY);
        assert!(c.parity_ok(LineAddr(2)));
        // Non-resident and parity-disabled caches always report ok.
        assert!(c.parity_ok(LineAddr(99)));
        assert!(small_cache().parity_ok(LineAddr(1)));
    }

    #[test]
    fn corrupt_bit_is_detected_by_parity() {
        let mut c = small_cache();
        c.fill(LineAddr(1), line_data(7), 0);
        c.enable_parity();
        assert!(c.corrupt_bit(LineAddr(1), 5, 17));
        assert!(!c.parity_ok(LineAddr(1)));
        // A refetch (refill) restores consistency.
        c.fill(LineAddr(1), line_data(7), 0);
        assert!(c.parity_ok(LineAddr(1)));
        assert_eq!(c.read_word(LineAddr(1), 5), Some(12));
        // Corrupting a missing line is a no-op.
        assert!(!c.corrupt_bit(LineAddr(42), 0, 0));
    }

    #[test]
    fn rollback_restores_a_corrupted_dirty_line() {
        let mut c = small_cache();
        c.fill(LineAddr(1), line_data(7), 0);
        c.enable_parity();
        c.enable_checkpoints();
        c.write_word(LineAddr(1), 3, 0xAAAA).unwrap();
        c.write_word(LineAddr(1), 3, 0xBBBB).unwrap();
        c.write_word(LineAddr(1), 9, 0x1234).unwrap();
        assert!(c.corrupt_bit(LineAddr(1), 4, 11));
        assert!(!c.parity_ok(LineAddr(1)));
        let stores = c.rollback_line(LineAddr(1)).expect("line is tracked");
        assert_eq!(stores, 3);
        assert!(c.parity_ok(LineAddr(1)), "rollback restores parity");
        assert_eq!(c.read_word(LineAddr(1), 3), Some(0xBBBB));
        assert_eq!(c.read_word(LineAddr(1), 9), Some(0x1234));
        assert_eq!(c.read_word(LineAddr(1), 4), Some(11)); // pre-corruption
        assert_eq!(c.checkpoint_words(), WORDS_PER_LINE as u64);
    }

    #[test]
    fn epoch_mark_bounds_the_replay_window() {
        let mut c = small_cache();
        c.fill(LineAddr(1), line_data(0), 0);
        c.enable_checkpoints();
        c.write_word(LineAddr(1), 0, 1).unwrap();
        c.epoch_mark();
        assert_eq!(c.rollback_line(LineAddr(1)), Some(0));
        c.write_word(LineAddr(1), 1, 2).unwrap();
        assert_eq!(c.rollback_line(LineAddr(1)), Some(1));
        assert_eq!(c.read_word(LineAddr(1), 0), Some(1));
        assert_eq!(c.read_word(LineAddr(1), 1), Some(2));
    }

    #[test]
    fn clean_and_invalidate_drop_checkpoints() {
        let mut c = small_cache();
        c.fill(LineAddr(1), line_data(0), 0);
        c.fill(LineAddr(2), line_data(0), 0);
        c.enable_checkpoints();
        c.write_word(LineAddr(1), 0, 1).unwrap();
        c.write_word(LineAddr(2), 0, 1).unwrap();
        c.clean_line(LineAddr(1));
        assert_eq!(c.rollback_line(LineAddr(1)), None, "clean line untracked");
        c.invalidate(LineAddr(2));
        assert_eq!(c.rollback_line(LineAddr(2)), None);
        // Untouched caches report nothing and checkpointing stays off.
        assert!(!small_cache().checkpoints_enabled());
        assert_eq!(small_cache().rollback_line(LineAddr(1)), None);
    }

    #[test]
    fn checkpoints_survive_mid_flight_enable_and_refill() {
        let mut c = small_cache();
        c.fill(LineAddr(1), line_data(5), 0);
        c.write_word(LineAddr(1), 2, 99).unwrap();
        // Enabled with a dirty line already resident: captured as-is.
        c.enable_checkpoints();
        assert_eq!(c.rollback_line(LineAddr(1)), Some(0));
        assert_eq!(c.read_word(LineAddr(1), 2), Some(99));
        // A refill of a still-dirty line rebases its checkpoint.
        c.fill(LineAddr(1), line_data(500), 0);
        assert_eq!(c.rollback_line(LineAddr(1)), Some(0));
        assert_eq!(c.read_word(LineAddr(1), 2), Some(502));
    }

    /// One 4 MB, 8-way L3 bank of the inter-block machine: 8192 sets.
    fn l3_bank() -> Cache {
        Cache::new(CacheGeometry {
            size_bytes: 4 * 1024 * 1024,
            ways: 8,
            line_bytes: 64,
        })
    }

    #[test]
    fn fresh_cache_allocates_no_page() {
        let c = l3_bank();
        assert_eq!(c.sets_materialized(), 0);
        let lines = 2 * c.capacity_lines() as u64;
        assert!((0..lines).all(|l| c.probe(LineAddr(l)) == LookupResult::Miss));
        assert!((0..c.capacity_lines()).all(|id| c.line_at_id(id).is_none()));
        assert_eq!(c.valid_lines().count(), 0);
    }

    #[test]
    fn a_fill_allocates_only_its_set() {
        let mut c = l3_bank();
        c.fill(LineAddr(5), line_data(5), 0);
        assert_eq!(c.sets_materialized(), 1);
        // Every fourth line, as one bank of a 4-bank L3 receives them:
        // only the sets those lines map to get storage.
        for l in (0..256).step_by(4) {
            c.fill(LineAddr(l), line_data(l as Word), 0);
        }
        assert_eq!(c.sets_materialized(), 65);
        // Line 8192 maps back to set 0, which already has its slots.
        c.fill(LineAddr(8192), line_data(8192), 0);
        assert_eq!(c.sets_materialized(), 65);
        assert_eq!(c.resident_lines(), 66);
        c.reset();
        assert_eq!(c.sets_materialized(), 0);
        assert!(!c.probe(LineAddr(5)).is_hit());
    }

    #[test]
    fn line_ids_are_flat_slot_indices() {
        let mut c = l3_bank();
        // Set 4000, first way, gets storage before set 0 does; then the
        // second way of set 0.
        c.fill(LineAddr(4000), line_data(0), 0);
        c.fill(LineAddr(0), line_data(0), 0);
        c.fill(LineAddr(8192), line_data(0), 0);
        assert_eq!(c.line_id(LineAddr(4000)), Some(4000 * 8));
        assert_eq!(c.line_id(LineAddr(8192)), Some(1));
        assert_eq!(c.line_at_id(4000 * 8).unwrap().addr, LineAddr(4000));
        assert_eq!(c.line_at_id(1).unwrap().addr, LineAddr(8192));
        assert!(c.line_at_id(4000 * 8 + 1).is_none());
        assert!(c.line_at_id(c.capacity_lines()).is_none());
        // Bitmap walks and the raw sweep agree on ascending slot order.
        let order = vec![LineAddr(0), LineAddr(8192), LineAddr(4000)];
        assert_eq!(c.valid_line_addrs(), order);
        assert_eq!(c.valid_lines().map(|v| v.addr).collect::<Vec<_>>(), order);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        Cache::new(CacheGeometry {
            size_bytes: 3 * 64 * 2,
            ways: 2,
            line_bytes: 64,
        });
    }
}
