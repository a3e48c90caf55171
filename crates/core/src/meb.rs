//! The Modified Entry Buffer (MEB), paper §IV-B1.
//!
//! A small hardware buffer (16 entries) next to the L1 that accumulates the
//! *line IDs* (not addresses — an ID is the line's slot position in the
//! cache, 9 bits for a 32 KB / 64 B cache) of lines written during the
//! current epoch. At the end of a short epoch that would otherwise execute
//! `WB ALL`, the controller walks the MEB instead of traversing every cache
//! tag, writing back only the (still-)dirty lines it names.
//!
//! Stale entries are possible — a written line may be evicted and its slot
//! refilled by a never-written line — and are *not* removed; the drain
//! simply skips slots that are no longer dirty. If the MEB overflows during
//! the epoch, the terminating `WB ALL` executes normally (full traversal).

/// Result of draining the MEB at the end of an epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MebDrain {
    /// The MEB tracked every write: write back the lines at these IDs
    /// (skipping any whose slot is no longer dirty).
    Ids(Vec<usize>),
    /// The MEB overflowed: fall back to a full `WB ALL` traversal.
    Overflowed,
}

/// Modified Entry Buffer state machine.
#[derive(Debug, Clone)]
pub struct Meb {
    capacity: usize,
    ids: Vec<usize>,
    overflowed: bool,
    /// Is the MEB recording (i.e. are we inside a tracked epoch)?
    recording: bool,
}

impl Meb {
    /// An MEB with the given entry capacity (16 in the paper).
    pub fn new(capacity: usize) -> Meb {
        assert!(capacity > 0);
        Meb {
            capacity,
            ids: Vec::with_capacity(capacity),
            overflowed: false,
            recording: false,
        }
    }

    /// Begin a tracked epoch (e.g. on lock acquire): clear and record.
    pub fn begin_epoch(&mut self) {
        self.ids.clear();
        self.overflowed = false;
        self.recording = true;
    }

    /// Is the MEB currently recording?
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Hardware hook: a *clean word* of line-ID `id` was just written in
    /// the L1 (the MEB updates in parallel with the cache write). Inserts
    /// the ID if absent; sets the overflow flag if there is no room.
    pub fn on_clean_word_write(&mut self, id: usize) {
        if !self.recording || self.overflowed {
            return;
        }
        if self.ids.contains(&id) {
            return;
        }
        if self.ids.len() == self.capacity {
            self.overflowed = true;
        } else {
            self.ids.push(id);
        }
    }

    /// Number of IDs currently held.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Did the MEB overflow this epoch?
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// End the epoch: return the recorded IDs (or `Overflowed`), and stop
    /// recording.
    pub fn drain(&mut self) -> MebDrain {
        self.recording = false;
        if self.overflowed {
            self.overflowed = false;
            self.ids.clear();
            MebDrain::Overflowed
        } else {
            MebDrain::Ids(std::mem::take(&mut self.ids))
        }
    }

    /// Storage cost in bits: each entry holds a line ID plus a valid bit
    /// (paper Table III: "16 entries. Size: 9b (ID) + 1b (Valid)").
    pub fn storage_bits(&self, line_id_bits: u32) -> u64 {
        self.capacity as u64 * (line_id_bits as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_unique_ids_in_epoch() {
        let mut m = Meb::new(4);
        m.begin_epoch();
        m.on_clean_word_write(7);
        m.on_clean_word_write(3);
        m.on_clean_word_write(7); // duplicate ignored
        assert_eq!(m.len(), 2);
        assert_eq!(m.drain(), MebDrain::Ids(vec![7, 3]));
    }

    #[test]
    fn ignores_writes_outside_epoch() {
        let mut m = Meb::new(4);
        m.on_clean_word_write(1);
        assert!(m.is_empty());
        m.begin_epoch();
        assert!(!m.overflowed());
        m.drain();
        // After drain, recording stops again.
        m.on_clean_word_write(2);
        assert!(m.is_empty());
    }

    #[test]
    fn overflow_forces_full_traversal() {
        let mut m = Meb::new(2);
        m.begin_epoch();
        m.on_clean_word_write(0);
        m.on_clean_word_write(1);
        m.on_clean_word_write(2); // overflows
        assert!(m.overflowed());
        assert_eq!(m.drain(), MebDrain::Overflowed);
        // Next epoch starts fresh.
        m.begin_epoch();
        m.on_clean_word_write(9);
        assert_eq!(m.drain(), MebDrain::Ids(vec![9]));
    }

    #[test]
    fn repeated_writes_to_dirty_words_do_not_grow_meb() {
        // The hardware only inserts on clean->dirty transitions; the caller
        // models that by invoking the hook once per transition. Here we
        // check idempotence for the same ID.
        let mut m = Meb::new(2);
        m.begin_epoch();
        for _ in 0..10 {
            m.on_clean_word_write(5);
        }
        assert_eq!(m.len(), 1);
        assert!(!m.overflowed());
    }

    #[test]
    fn storage_matches_table3() {
        let m = Meb::new(16);
        // 16 entries x (9-bit ID + valid) = 160 bits.
        assert_eq!(m.storage_bits(9), 160);
    }

    #[test]
    fn begin_epoch_clears_previous_state() {
        let mut m = Meb::new(1);
        m.begin_epoch();
        m.on_clean_word_write(0);
        m.on_clean_word_write(1); // overflow
        assert!(m.overflowed());
        m.begin_epoch();
        assert!(!m.overflowed());
        assert!(m.is_empty());
    }
}
