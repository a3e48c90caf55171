//! The pluggable memory side of a [`crate::Machine`].
//!
//! A [`MemBackend`] is everything the machine needs from a memory system:
//! timed reads/writes (cached and uncacheable), execution of WB/INV
//! coherence-management instructions, epoch-buffer hooks, traffic and
//! event counters, and the untimed peek/poke backdoors used by tests and
//! program initialization.
//!
//! Four implementations exist:
//!
//! * [`IncoherentSystem`] — the paper's hardware-incoherent hierarchy;
//! * [`MesiSystem`] — the directory-MESI hardware-coherent baseline;
//! * [`DragonSystem`] — update-based Dragon over the same directory
//!   hierarchy;
//! * [`RefBackend`] — a flat, always-fresh store with uniform latency.
//!   It has no caches at all, so no read can ever be stale: it is the
//!   correctness oracle that cache-backed runs are checked against (see
//!   `tests/prop_epochs.rs`), and the fastest backend for functional-only
//!   experiments.

use hic_check::Checker;
use hic_coherence::{DragonSystem, MesiSystem};
use hic_core::CohInstr;
use hic_fault::{FaultPlan, ResilienceStats};
use hic_mem::{Memory, Word, WordAddr};
use hic_noc::TrafficLedger;
use hic_sim::{CoreId, MachineConfig};

use crate::incoherent::{IncCounters, IncoherentSystem};

/// A memory system the [`crate::Machine`] can drive.
///
/// All timed operations return latencies in cycles; the machine charges
/// them to the issuing core's stall ledger and advances its local clock.
/// Implementations must be deterministic: the same operation sequence
/// must produce the same latencies, traffic, and values on every run.
pub trait MemBackend: Send {
    /// Timed load: `(value, latency)`.
    fn read(&mut self, c: CoreId, w: WordAddr) -> (Word, u64);

    /// Timed store: latency.
    fn write(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64;

    /// Uncacheable load, served by the shared level without allocating in
    /// the L1. Backends whose hardware keeps all copies fresh may treat
    /// this as a plain load.
    fn read_uncached(&mut self, c: CoreId, w: WordAddr) -> (Word, u64);

    /// Uncacheable store (see [`MemBackend::read_uncached`]).
    fn write_uncached(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64;

    /// Core `c`'s load of `w`, executed only if it touches nothing but
    /// the core's own private state right now, so that it commutes with
    /// every other core's op: `(value, latency)`, as
    /// [`MemBackend::read`] would return. Otherwise `None`, and nothing
    /// changed: no LRU stamp, buffer or counter moved. Always `None` (the
    /// default) where an access can reach shared state or another core's
    /// copy: the coherent hierarchies and the flat reference store. The
    /// machine calls it only while no sanitizer, fault plan or trace
    /// observes the run.
    fn read_private(&mut self, _c: CoreId, _w: WordAddr) -> Option<(Word, u64)> {
        None
    }

    /// Core `c`'s store of `v` to `w` if it is private, as for
    /// [`MemBackend::read_private`]: its latency, or `None` with nothing
    /// changed.
    fn write_private(&mut self, _c: CoreId, _w: WordAddr, _v: Word) -> Option<u64> {
        None
    }

    /// Execute a WB/INV instruction; returns `(latency, is_wb)` so the
    /// machine can charge the right stall category. Backends that need no
    /// software coherence management complete them in zero cycles.
    fn exec_coh(&mut self, c: CoreId, instr: CohInstr) -> (u64, bool);

    /// Start MEB recording for core `c` (no-op without a MEB).
    fn meb_begin(&mut self, _c: CoreId) {}

    /// Start an IEB-governed epoch for core `c` (no-op without an IEB).
    fn ieb_begin(&mut self, _c: CoreId) {}

    /// End core `c`'s IEB-governed epoch (no-op without an IEB).
    fn ieb_end(&mut self, _c: CoreId) {}

    /// Snapshot of the flit-traffic ledger.
    fn traffic(&self) -> TrafficLedger;

    /// Mutable traffic ledger (the machine adds synchronization flits).
    fn traffic_mut(&mut self) -> &mut TrafficLedger;

    /// Incoherent-machine event counters (zeros for other backends).
    fn counters(&self) -> IncCounters {
        IncCounters::default()
    }

    /// Untimed value backdoor: what a fresh reader would see.
    fn peek_word(&self, w: WordAddr) -> Word;

    /// Untimed memory backdoor for pre-run initialization.
    fn poke_word(&mut self, w: WordAddr, v: Word);

    /// Downcast for incoherent-specific probes (counters, L1 lines).
    fn as_incoherent(&self) -> Option<&IncoherentSystem> {
        None
    }

    /// Attach the incoherence sanitizer. Returns `false` on backends that
    /// cannot exhibit incoherence bugs (MESI, reference) — their hardware
    /// keeps every copy fresh, so there is nothing to check.
    fn attach_checker(&mut self, _chk: Box<Checker>) -> bool {
        false
    }

    /// The attached sanitizer, if any.
    fn checker(&self) -> Option<&Checker> {
        None
    }

    /// Mutable access to the attached sanitizer (the machine feeds it
    /// sync events).
    fn checker_mut(&mut self) -> Option<&mut Checker> {
        None
    }

    /// Install a fault-injection plan (`hic-fault`). Returns `false` on
    /// backends with no injection support — their runs stay fault-free
    /// apart from the machine-level sync perturbations.
    fn install_faults(&mut self, _plan: &FaultPlan) -> bool {
        false
    }

    /// Resilience ledger accumulated by injected faults (zeros without
    /// a plan installed).
    fn resilience(&self) -> ResilienceStats {
        ResilienceStats::default()
    }

    /// An unrecoverable fault condition (a corrupted dirty line),
    /// delivered at most once; the machine surfaces it as
    /// [`crate::RunError::CorruptDirtyLine`].
    fn take_fault_fatal(&mut self) -> Option<String> {
        None
    }
}

impl MemBackend for IncoherentSystem {
    fn read(&mut self, c: CoreId, w: WordAddr) -> (Word, u64) {
        let r = IncoherentSystem::read(self, c, w);
        if let Some(chk) = self.checker.as_deref_mut() {
            chk.on_load(c.0, w, r.0);
        }
        r
    }

    fn write(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64 {
        let lat = IncoherentSystem::write(self, c, w, v);
        if let Some(chk) = self.checker.as_deref_mut() {
            chk.on_store(c.0, w, v);
        }
        lat
    }

    fn read_uncached(&mut self, c: CoreId, w: WordAddr) -> (Word, u64) {
        let r = IncoherentSystem::read_uncached(self, c, w);
        if let Some(chk) = self.checker.as_deref_mut() {
            chk.on_load_unc(c.0, w, r.0);
        }
        r
    }

    fn write_uncached(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64 {
        let lat = IncoherentSystem::write_uncached(self, c, w, v);
        if let Some(chk) = self.checker.as_deref_mut() {
            chk.on_store_unc(c.0, w, v);
        }
        lat
    }

    fn read_private(&mut self, c: CoreId, w: WordAddr) -> Option<(Word, u64)> {
        IncoherentSystem::read_private(self, c, w)
    }

    fn write_private(&mut self, c: CoreId, w: WordAddr, v: Word) -> Option<u64> {
        IncoherentSystem::write_private(self, c, w, v)
    }

    fn exec_coh(&mut self, c: CoreId, instr: CohInstr) -> (u64, bool) {
        IncoherentSystem::exec_coh(self, c, instr)
    }

    fn meb_begin(&mut self, c: CoreId) {
        IncoherentSystem::meb_begin(self, c);
    }

    fn ieb_begin(&mut self, c: CoreId) {
        IncoherentSystem::ieb_begin(self, c);
    }

    fn ieb_end(&mut self, c: CoreId) {
        IncoherentSystem::ieb_end(self, c);
    }

    fn traffic(&self) -> TrafficLedger {
        self.traffic
    }

    fn traffic_mut(&mut self) -> &mut TrafficLedger {
        &mut self.traffic
    }

    fn counters(&self) -> IncCounters {
        self.counters
    }

    fn peek_word(&self, w: WordAddr) -> Word {
        IncoherentSystem::peek_word(self, w)
    }

    fn poke_word(&mut self, w: WordAddr, v: Word) {
        IncoherentSystem::poke_word(self, w, v);
    }

    fn as_incoherent(&self) -> Option<&IncoherentSystem> {
        Some(self)
    }

    fn attach_checker(&mut self, chk: Box<Checker>) -> bool {
        self.checker = Some(chk);
        true
    }

    fn checker(&self) -> Option<&Checker> {
        self.checker.as_deref()
    }

    fn checker_mut(&mut self) -> Option<&mut Checker> {
        self.checker.as_deref_mut()
    }

    fn install_faults(&mut self, plan: &FaultPlan) -> bool {
        IncoherentSystem::install_faults(self, plan);
        true
    }

    fn resilience(&self) -> ResilienceStats {
        IncoherentSystem::resilience(self)
    }

    fn take_fault_fatal(&mut self) -> Option<String> {
        IncoherentSystem::take_fault_fatal(self)
    }
}

impl MemBackend for MesiSystem {
    fn read(&mut self, c: CoreId, w: WordAddr) -> (Word, u64) {
        MesiSystem::read(self, c, w)
    }

    fn write(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64 {
        MesiSystem::write(self, c, w, v)
    }

    /// Uncacheable semantics degenerate to plain coherent accesses under
    /// MESI (hardware keeps every copy fresh).
    fn read_uncached(&mut self, c: CoreId, w: WordAddr) -> (Word, u64) {
        MesiSystem::read(self, c, w)
    }

    fn write_uncached(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64 {
        MesiSystem::write(self, c, w, v)
    }

    /// The coherent machine ignores WB/INV: hardware already moves the
    /// data, so the instructions retire in zero cycles.
    fn exec_coh(&mut self, _c: CoreId, instr: CohInstr) -> (u64, bool) {
        (0, matches!(instr, CohInstr::Wb { .. }))
    }

    fn traffic(&self) -> TrafficLedger {
        self.traffic
    }

    fn traffic_mut(&mut self) -> &mut TrafficLedger {
        &mut self.traffic
    }

    fn peek_word(&self, w: WordAddr) -> Word {
        MesiSystem::peek_word(self, w)
    }

    fn poke_word(&mut self, w: WordAddr, v: Word) {
        MesiSystem::poke_word(self, w, v);
    }
}

impl MemBackend for DragonSystem {
    fn read(&mut self, c: CoreId, w: WordAddr) -> (Word, u64) {
        DragonSystem::read(self, c, w)
    }

    fn write(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64 {
        DragonSystem::write(self, c, w, v)
    }

    /// Uncacheable semantics degenerate to plain coherent accesses under
    /// Dragon — updates keep every copy fresh by construction.
    fn read_uncached(&mut self, c: CoreId, w: WordAddr) -> (Word, u64) {
        DragonSystem::read(self, c, w)
    }

    fn write_uncached(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64 {
        DragonSystem::write(self, c, w, v)
    }

    /// Like MESI, Dragon needs no WB/INV: they retire in zero cycles.
    fn exec_coh(&mut self, _c: CoreId, instr: CohInstr) -> (u64, bool) {
        (0, matches!(instr, CohInstr::Wb { .. }))
    }

    fn traffic(&self) -> TrafficLedger {
        self.traffic
    }

    fn traffic_mut(&mut self) -> &mut TrafficLedger {
        &mut self.traffic
    }

    fn peek_word(&self, w: WordAddr) -> Word {
        DragonSystem::peek_word(self, w)
    }

    fn poke_word(&mut self, w: WordAddr, v: Word) {
        DragonSystem::poke_word(self, w, v);
    }
}

/// A flat, always-fresh memory with uniform access latency.
///
/// Every load and store goes straight to one shared word-addressed store:
/// there are no caches, so no copy can ever be stale and WB/INV
/// instructions have nothing to do. Cycle counts from this backend are
/// *not* comparable to the cache-backed machines — its purpose is
/// functional: any program whose final memory state differs between a
/// cache-backed run and a `RefBackend` run has a coherence-management
/// bug (in the program's annotations or in the memory system itself).
#[derive(Debug, Default)]
pub struct RefBackend {
    mem: Memory,
    traffic: TrafficLedger,
    /// Uniform latency per access, taken from the config's L1 round trip
    /// so compute/memory interleavings keep a realistic shape.
    access_rt: u64,
}

impl RefBackend {
    pub fn new(cfg: &MachineConfig) -> RefBackend {
        RefBackend {
            mem: Memory::new(),
            traffic: TrafficLedger::new(),
            access_rt: cfg.l1_rt,
        }
    }
}

impl MemBackend for RefBackend {
    fn read(&mut self, _c: CoreId, w: WordAddr) -> (Word, u64) {
        (self.mem.read_word(w), self.access_rt)
    }

    fn write(&mut self, _c: CoreId, w: WordAddr, v: Word) -> u64 {
        self.mem.write_word(w, v);
        self.access_rt
    }

    fn read_uncached(&mut self, c: CoreId, w: WordAddr) -> (Word, u64) {
        self.read(c, w)
    }

    fn write_uncached(&mut self, c: CoreId, w: WordAddr, v: Word) -> u64 {
        self.write(c, w, v)
    }

    fn exec_coh(&mut self, _c: CoreId, instr: CohInstr) -> (u64, bool) {
        (0, matches!(instr, CohInstr::Wb { .. }))
    }

    fn traffic(&self) -> TrafficLedger {
        self.traffic
    }

    fn traffic_mut(&mut self) -> &mut TrafficLedger {
        &mut self.traffic
    }

    fn peek_word(&self, w: WordAddr) -> Word {
        self.mem.read_word(w)
    }

    fn poke_word(&mut self, w: WordAddr, v: Word) {
        self.mem.write_word(w, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_core::Target;
    use hic_mem::Addr;

    #[test]
    fn ref_backend_is_never_stale() {
        let cfg = MachineConfig::intra_block();
        let mut b = RefBackend::new(&cfg);
        let w = Addr(0x100).word();
        b.write(CoreId(0), w, 7);
        // Another core sees the value immediately, with no WB/INV.
        assert_eq!(b.read(CoreId(5), w).0, 7);
        // Coherence instructions are free and preserve state.
        let (lat, is_wb) = b.exec_coh(CoreId(0), CohInstr::wb(Target::word(w)));
        assert_eq!(lat, 0);
        assert!(is_wb);
        assert_eq!(b.peek_word(w), 7);
    }

    #[test]
    fn incoherent_downcast_roundtrips() {
        let cfg = MachineConfig::intra_block();
        let b: Box<dyn MemBackend> = Box::new(IncoherentSystem::new(cfg));
        assert!(b.as_incoherent().is_some());
        let m: Box<dyn MemBackend> = Box::new(MesiSystem::new(cfg));
        assert!(m.as_incoherent().is_none());
    }
}
