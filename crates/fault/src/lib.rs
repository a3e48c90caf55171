//! Seeded, deterministic fault injection for the hardware-incoherent
//! hierarchy.
//!
//! The paper's central claim is that correctness in an incoherent
//! hierarchy comes from *software-placed* WB/INV instructions and sync
//! ordering, never from hardware timing. That makes correctness
//! **timing-independent**: any protocol-legal perturbation of NoC
//! latency, controller ack timing, or retry schedules must leave the
//! readable memory of a race-free program bit-identical (only cycles and
//! traffic may move). This crate defines the perturbations and the
//! accounting; `tests/fault_resilience.rs` proves the invariant
//! metamorphically.
//!
//! A [`FaultPlan`] is a pure function of a seed: two runs with the same
//! plan take identical fault decisions, so every faulted run is exactly
//! reproducible. Four fault classes are modeled, all of them ones a
//! Runnemede-style near-threshold machine (PAPERS.md) must survive:
//!
//! * **Link jitter / transient slowdowns** — extra latency on mesh links
//!   ([`hic_noc::LinkFaults`]). Pure timing; always recoverable.
//! * **Dropped flits** — a transfer is lost and retransmitted by the
//!   controller after a timeout with exponential backoff. Costs latency
//!   and retry flits; counted in [`ResilienceStats`]. Always recoverable.
//! * **Delayed sync acks** — the sync controller's grant ack is held for
//!   extra cycles. Pure timing; always recoverable.
//! * **Single-bit flips in cache lines** — detected by per-line parity in
//!   `hic-mem`. A flip in a *clean* line recovers by invalidate + refetch
//!   from the next level (recovery traffic is counted); a flip in a
//!   *dirty* line destroys the only copy of the data and — without
//!   checkpoint recovery ([`FaultPlan::recover`]) — must surface as a
//!   typed fatal error, never as a silently wrong answer. With recovery
//!   enabled the backend restores the line from its epoch checkpoint and
//!   replays the journaled stores, charging `rollbacks`/`rollback_cycles`
//!   in [`ResilienceStats`]; only a second upset striking the same line
//!   during its own replay window ([`FaultState::replay_flip`]) still
//!   surfaces the fatal.

use hic_noc::{mix64, LinkFaults};

/// A complete, seeded description of what to perturb. Fully determines
/// every fault decision of a run; serializable into run diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master seed. Every component derives its decisions from this.
    pub seed: u64,
    /// Static per-link latency jitter, uniform in `0..=link_jitter_max`
    /// cycles. 0 disables.
    pub link_jitter_max: u64,
    /// Every `slow_period` traversals of a link, the next `slow_len`
    /// traversals are slowed by `slow_factor`. `slow_period == 0` or
    /// `slow_factor == 1` disables.
    pub slow_period: u64,
    pub slow_len: u64,
    pub slow_factor: u64,
    /// Roughly one in `drop_period` memory-path transfers is dropped and
    /// retransmitted. 0 disables.
    pub drop_period: u64,
    /// Cycles the controller waits before the first retransmission;
    /// doubles per consecutive drop (exponential backoff).
    pub retry_timeout: u64,
    /// Upper bound on consecutive drops of one transfer (the retry that
    /// follows the last allowed drop always succeeds).
    pub max_retries: u32,
    /// Roughly one in `ack_delay_period` sync-controller grant acks is
    /// delayed by `ack_delay_cycles`. 0 disables.
    pub ack_delay_period: u64,
    pub ack_delay_cycles: u64,
    /// Roughly one in `flip_period` L1 reads flips one bit in the line
    /// being read (before the read observes it). 0 disables.
    pub flip_period: u64,
    /// Allow flips to land in lines holding dirty words. A dirty-line
    /// flip destroys the only copy of the data; without `recover` it
    /// surfaces as a fatal `RunError`. Plans with `flip_dirty == false`
    /// only ever corrupt clean lines, so they must always recover.
    pub flip_dirty: bool,
    /// Enable epoch-checkpoint rollback recovery: the backend keeps a
    /// copy-on-write image + store journal per dirty L1 line and, when
    /// parity detects a dirty-line flip, restores the line and replays
    /// the journaled stores instead of latching `CorruptDirtyLine`. The
    /// fatal remains reachable only via a second upset during the replay
    /// window itself ([`FaultState::replay_flip`]).
    pub recover: bool,
}

impl FaultPlan {
    /// A plan with every amplitude at zero. Installing it must be
    /// bit-identical to installing nothing — in cycles *and* traffic.
    pub fn zero(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            link_jitter_max: 0,
            slow_period: 0,
            slow_len: 0,
            slow_factor: 1,
            drop_period: 0,
            retry_timeout: 0,
            max_retries: 0,
            ack_delay_period: 0,
            ack_delay_cycles: 0,
            flip_period: 0,
            flip_dirty: false,
            recover: false,
        }
    }

    /// A randomized timing-only plan: jitter, slowdowns, drops/retries,
    /// and ack delays, but no bit flips. Readable memory must be
    /// bit-identical to the unfaulted run for race-free programs.
    pub fn timing_only(seed: u64) -> FaultPlan {
        let r = |salt: u64| mix64(seed ^ salt);
        FaultPlan {
            seed,
            link_jitter_max: 1 + r(0x01) % 8,
            slow_period: 16 + r(0x02) % 48,
            slow_len: 1 + r(0x03) % 8,
            slow_factor: 2 + r(0x04) % 3,
            drop_period: 64 + r(0x05) % 192,
            retry_timeout: 20 + r(0x06) % 60,
            max_retries: 3,
            ack_delay_period: 8 + r(0x07) % 24,
            ack_delay_cycles: 10 + r(0x08) % 40,
            flip_period: 0,
            flip_dirty: false,
            recover: false,
        }
    }

    /// The canned recoverable plan a request's `FaultSpec::Recoverable`
    /// names: timing faults plus clean-line bit flips. Every fault in it
    /// is recoverable, so any race-free program must still produce
    /// bit-identical readable memory (and stay finding-free under
    /// `CheckMode::Strict`).
    pub fn from_seed(seed: u64) -> FaultPlan {
        FaultPlan {
            flip_period: 400,
            flip_dirty: false,
            ..FaultPlan::timing_only(seed)
        }
    }

    /// A deliberately *unrecoverable* plan: [`FaultPlan::from_seed`]'s
    /// timing faults plus aggressive bit flips allowed to land in dirty
    /// lines. A dirty-line flip destroys the only copy of the data, so
    /// any run that writes to memory fails with a typed
    /// `RunError::CorruptDirtyLine`. This exists to *poison* a run on
    /// purpose — e.g. proving that one failing job in a sweep-server
    /// batch surfaces its error without taking the other jobs down.
    pub fn corrupting(seed: u64) -> FaultPlan {
        FaultPlan {
            flip_period: 1,
            flip_dirty: true,
            ..FaultPlan::from_seed(seed)
        }
    }

    /// [`FaultPlan::from_seed`]'s timing faults plus bit flips allowed to
    /// land in dirty lines — but with epoch-checkpoint rollback recovery
    /// enabled, so dirty-line corruption is repaired by restore + replay
    /// instead of killing the run. Every fault in this plan is
    /// recoverable modulo the (deterministically seeded, rare at
    /// `flip_period = 400`) second-upset-during-replay case, so race-free
    /// programs must complete with bit-identical readable memory and
    /// `ResilienceStats::rollbacks` accounting the repairs.
    pub fn corrupting_recoverable(seed: u64) -> FaultPlan {
        FaultPlan {
            flip_dirty: true,
            recover: true,
            ..FaultPlan::from_seed(seed)
        }
    }

    /// True when no amplitude is nonzero (installing the plan cannot
    /// change anything).
    pub fn is_zero(&self) -> bool {
        self.link_jitter_max == 0
            && (self.slow_period == 0 || self.slow_factor <= 1)
            && self.drop_period == 0
            && self.ack_delay_period == 0
            && self.flip_period == 0
    }

    /// The link-fault component, ready to install into a mesh.
    pub fn link_faults(&self) -> LinkFaults {
        LinkFaults::new(
            self.seed,
            self.link_jitter_max,
            self.slow_period,
            self.slow_len,
            self.slow_factor,
        )
    }

    /// One-line human summary for diagnostics.
    pub fn summary(&self) -> String {
        if self.is_zero() {
            return format!("fault plan seed={} (zero: no perturbation)", self.seed);
        }
        format!(
            "fault plan seed={}: jitter<={}cyc, slowdown {}/{} x{}, drop 1/{} (retry {}cyc, <= {}), \
             ack delay 1/{} +{}cyc, bit flip 1/{} ({} lines{})",
            self.seed,
            self.link_jitter_max,
            self.slow_len,
            self.slow_period,
            self.slow_factor,
            self.drop_period,
            self.retry_timeout,
            self.max_retries,
            self.ack_delay_period,
            self.ack_delay_cycles,
            self.flip_period,
            if self.flip_dirty { "any" } else { "clean" },
            if self.recover { ", rollback recovery" } else { "" },
        )
    }
}

/// Running counts of injected faults and the work spent recovering from
/// them. Lives in `RunStats`; merged from the backend and the machine's
/// sync controller at `Machine::finish`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Flits lost to injected drops (each re-sent transfer re-counts its
    /// flits under `retry_flits`).
    pub dropped_flits: u64,
    /// Retransmissions performed by the controller-side retry.
    pub retries: u64,
    /// Flits re-sent by retries (charged to the same traffic category as
    /// the original transfer).
    pub retry_flits: u64,
    /// Extra cycles spent in retry timeouts (exponential backoff).
    pub retry_cycles: u64,
    /// Single-bit flips injected into cache lines.
    pub bit_flips: u64,
    /// Flips detected by parity in clean lines and repaired by refetch.
    pub flips_recovered: u64,
    /// Flits spent refetching lines to repair detected flips.
    pub recovery_flits: u64,
    /// Sync-controller grant acks that were delayed.
    pub delayed_acks: u64,
    /// Extra cycles added to delayed acks.
    pub ack_delay_cycles: u64,
    /// Dirty-line corruptions repaired by checkpoint restore + replay
    /// (only nonzero under `FaultPlan::recover`).
    pub rollbacks: u64,
    /// Extra cycles charged to rollbacks: the restore round-trip plus
    /// one cycle per replayed journal store.
    pub rollback_cycles: u64,
    /// Words captured into copy-on-write epoch checkpoints (each first
    /// store to an untracked line snapshots the full line image).
    pub checkpoint_words: u64,
}

impl ResilienceStats {
    pub fn is_zero(&self) -> bool {
        *self == ResilienceStats::default()
    }

    /// Element-wise sum.
    pub fn merged(&self, o: &ResilienceStats) -> ResilienceStats {
        ResilienceStats {
            dropped_flits: self.dropped_flits + o.dropped_flits,
            retries: self.retries + o.retries,
            retry_flits: self.retry_flits + o.retry_flits,
            retry_cycles: self.retry_cycles + o.retry_cycles,
            bit_flips: self.bit_flips + o.bit_flips,
            flips_recovered: self.flips_recovered + o.flips_recovered,
            recovery_flits: self.recovery_flits + o.recovery_flits,
            delayed_acks: self.delayed_acks + o.delayed_acks,
            ack_delay_cycles: self.ack_delay_cycles + o.ack_delay_cycles,
            rollbacks: self.rollbacks + o.rollbacks,
            rollback_cycles: self.rollback_cycles + o.rollback_cycles,
            checkpoint_words: self.checkpoint_words + o.checkpoint_words,
        }
    }
}

impl std::ops::AddAssign for ResilienceStats {
    fn add_assign(&mut self, rhs: Self) {
        *self = self.merged(&rhs);
    }
}

/// Divisibility by a fixed `d > 0` without a division (Lemire, Kaser &
/// Kurz, "Faster remainder by direct computation", 2019): with
/// `c = ⌈2^128 / d⌉`, `d` divides a 64-bit `x` exactly when
/// `c·x mod 2^128 < c`, one 128-bit multiply. `c` does not fit for
/// `d = 1`, which divides everything; it is stored as 0.
#[derive(Debug, Clone, Copy)]
struct Divisor(u128);

impl Divisor {
    fn new(d: u64) -> Divisor {
        assert!(d > 0, "divisibility by zero");
        Divisor(if d == 1 {
            0
        } else {
            u128::MAX / u128::from(d) + 1
        })
    }

    /// Does `d` divide `x`?
    #[inline]
    fn divides(self, x: u64) -> bool {
        self.0 == 0 || self.0.wrapping_mul(u128::from(x)) < self.0
    }
}

/// Per-component dynamic fault state: the plan plus event counters.
/// Each consumer (the memory backend, the machine's sync controller)
/// owns its own `FaultState` with a distinct `salt`, so their decision
/// streams are independent but individually reproducible.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    salt: u64,
    /// The flip period as a [`Divisor`] (`None` when flips are off):
    /// the flip decision is taken on every L1 read, so it is made
    /// without a division.
    flip: Option<Divisor>,
    transfers: u64,
    acks: u64,
    reads: u64,
    replays: u64,
    /// Injected-fault accounting, merged into `RunStats` at finish.
    pub stats: ResilienceStats,
}

/// Salt for the memory-backend fault stream.
pub const SALT_MEM: u64 = 0x4D45_4D00;
/// Salt for the sync-controller fault stream.
pub const SALT_SYNC: u64 = 0x5359_4E00;

impl FaultState {
    pub fn new(plan: FaultPlan, salt: u64) -> FaultState {
        FaultState {
            plan,
            salt,
            flip: (plan.flip_period > 0).then(|| Divisor::new(plan.flip_period)),
            transfers: 0,
            acks: 0,
            reads: 0,
            replays: 0,
            stats: ResilienceStats::default(),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The pseudo-random draw of `stream`'s `event`-th decision.
    #[inline]
    fn draw(&self, stream: u64, event: u64) -> u64 {
        mix64(self.plan.seed ^ self.salt ^ stream ^ event.wrapping_mul(0x9E37))
    }

    /// Does `stream`'s `event`-th decision fire, about one in `period`?
    #[inline]
    fn decide(&self, stream: u64, event: u64, period: u64) -> bool {
        period > 0 && self.draw(stream, event).is_multiple_of(period)
    }

    /// Account one memory-path transfer of `flits` flits. Returns
    /// `(extra_cycles, extra_flits)`: the retry-timeout latency (with
    /// exponential backoff) and the retransmitted flits caused by
    /// injected drops. `(0, 0)` on the (overwhelmingly common) clean
    /// path.
    #[inline]
    pub fn on_transfer(&mut self, flits: u64) -> (u64, u64) {
        if self.plan.drop_period == 0 {
            return (0, 0);
        }
        let n = self.transfers;
        self.transfers += 1;
        if !self.decide(0x7472, n, self.plan.drop_period) {
            return (0, 0);
        }
        // The transfer was dropped at least once. Each consecutive drop
        // doubles the timeout; the drop after `max_retries` always
        // succeeds, bounding the tail.
        let mut drops: u32 = 1;
        while drops < self.plan.max_retries.max(1)
            && self.decide(0x7273, n.wrapping_mul(7).wrapping_add(drops as u64), 2)
        {
            drops += 1;
        }
        // timeout + 2*timeout + ... = timeout * (2^drops - 1).
        let extra_cycles = self
            .plan
            .retry_timeout
            .saturating_mul((1u64 << drops.min(32)) - 1);
        let extra_flits = flits * drops as u64;
        self.stats.dropped_flits += extra_flits;
        self.stats.retries += drops as u64;
        self.stats.retry_flits += extra_flits;
        self.stats.retry_cycles += extra_cycles;
        (extra_cycles, extra_flits)
    }

    /// Account one sync-controller grant ack. Returns the extra cycles
    /// the ack is held for (usually 0).
    #[inline]
    pub fn on_ack(&mut self) -> u64 {
        if self.plan.ack_delay_period == 0 {
            return 0;
        }
        let n = self.acks;
        self.acks += 1;
        if self.decide(0x61636B, n, self.plan.ack_delay_period) {
            self.stats.delayed_acks += 1;
            self.stats.ack_delay_cycles += self.plan.ack_delay_cycles;
            self.plan.ack_delay_cycles
        } else {
            0
        }
    }

    /// Decide whether this L1 read suffers a bit flip. Returns the
    /// `(word_selector, bit)` to corrupt (the caller maps the selector
    /// onto the line) or `None`.
    #[inline]
    pub fn flip_decision(&mut self) -> Option<(usize, u32)> {
        let period = self.flip?;
        let n = self.reads;
        self.reads += 1;
        if !period.divides(self.draw(0x666C70, n)) {
            return None;
        }
        let r = mix64(self.plan.seed ^ self.salt ^ 0x776264 ^ n);
        Some(((r >> 8) as usize, (r % 32) as u32))
    }

    /// Whether flips may land in dirty lines (unrecoverable).
    pub fn flip_dirty_allowed(&self) -> bool {
        self.plan.flip_dirty
    }

    /// Whether dirty-line corruption is repaired by checkpoint rollback.
    pub fn recover_enabled(&self) -> bool {
        self.plan.recover
    }

    /// Decide whether a *second* upset strikes the line being rolled
    /// back during its own replay of `replayed_stores` journaled stores.
    /// The replay window is `replayed_stores` accesses long and the
    /// upset must land back in the very line under repair, so the
    /// per-rollback probability is `replayed_stores / flip_period²` —
    /// vanishing for the canned 1/400 plans, but `flip_period == 1`
    /// (the poison plans) makes any non-empty replay deterministically
    /// re-corrupt, which is how the two-corruptions-in-one-epoch fatal
    /// is forced in tests. Draws from its own counter + salt so the
    /// primary flip stream is unperturbed by recovery.
    #[inline]
    pub fn replay_flip(&mut self, replayed_stores: u64) -> bool {
        if self.plan.flip_period == 0 || replayed_stores == 0 {
            return false;
        }
        let n = self.replays;
        self.replays += 1;
        let window = self.plan.flip_period.saturating_mul(self.plan.flip_period);
        mix64(self.plan.seed ^ self.salt ^ 0x7270_6C79 ^ n.wrapping_mul(0x9E37)) % window
            < replayed_stores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_zero_and_inert() {
        let p = FaultPlan::zero(17);
        assert!(p.is_zero());
        let mut s = FaultState::new(p, SALT_MEM);
        for _ in 0..1000 {
            assert_eq!(s.on_transfer(9), (0, 0));
            assert_eq!(s.on_ack(), 0);
            assert_eq!(s.flip_decision(), None);
        }
        assert!(s.stats.is_zero());
    }

    #[test]
    fn timing_only_plans_never_flip() {
        for seed in 0..32 {
            let p = FaultPlan::timing_only(seed);
            assert!(!p.is_zero());
            assert_eq!(p.flip_period, 0);
        }
    }

    #[test]
    fn canned_plan_flips_only_clean_lines() {
        let p = FaultPlan::from_seed(3);
        assert!(p.flip_period > 0);
        assert!(!p.flip_dirty);
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = || {
            let mut s = FaultState::new(FaultPlan::timing_only(42), SALT_MEM);
            let transfers: Vec<(u64, u64)> = (0..500).map(|_| s.on_transfer(9)).collect();
            let acks: Vec<u64> = (0..500).map(|_| s.on_ack()).collect();
            (transfers, acks, s.stats)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn distinct_salts_give_distinct_streams() {
        let mut a = FaultState::new(FaultPlan::timing_only(42), SALT_MEM);
        let mut b = FaultState::new(FaultPlan::timing_only(42), SALT_SYNC);
        let va: Vec<(u64, u64)> = (0..2000).map(|_| a.on_transfer(9)).collect();
        let vb: Vec<(u64, u64)> = (0..2000).map(|_| b.on_transfer(9)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn drops_do_happen_and_backoff_is_bounded() {
        let mut s = FaultState::new(FaultPlan::timing_only(7), SALT_MEM);
        let mut total_extra = 0u64;
        for _ in 0..10_000 {
            let (cyc, flits) = s.on_transfer(9);
            if flits > 0 {
                // At most max_retries retransmissions per transfer.
                assert!(flits <= 9 * 3);
            }
            total_extra += cyc;
        }
        assert!(
            s.stats.retries > 0,
            "a 1/[64,256) drop rate must fire in 10k transfers"
        );
        assert!(total_extra > 0);
        assert_eq!(s.stats.retry_flits, s.stats.dropped_flits);
    }

    #[test]
    fn flips_fire_at_roughly_the_configured_rate() {
        let mut s = FaultState::new(FaultPlan::from_seed(11), SALT_MEM);
        let flips = (0..40_000).filter_map(|_| s.flip_decision()).count();
        assert!(flips > 20, "expected ~100 flips in 40k reads, got {flips}");
        for _ in 0..1000 {
            if let Some((_, bit)) = s.flip_decision() {
                assert!(bit < 32);
            }
        }
    }

    #[test]
    fn summary_mentions_the_seed() {
        assert!(FaultPlan::from_seed(99).summary().contains("seed=99"));
        assert!(FaultPlan::zero(5).summary().contains("zero"));
        assert!(FaultPlan::corrupting_recoverable(99)
            .summary()
            .contains("rollback recovery"));
    }

    #[test]
    fn recoverable_corrupting_plan_keeps_the_canned_rates() {
        let p = FaultPlan::corrupting_recoverable(7);
        assert!(p.recover && p.flip_dirty);
        assert_eq!(p.flip_period, FaultPlan::from_seed(7).flip_period);
        // The poison plan stays unrecoverable: serve's failure-isolation
        // contract depends on it latching the typed fatal.
        assert!(!FaultPlan::corrupting(7).recover);
    }

    #[test]
    fn replay_flip_is_deterministic_and_forced_at_period_one() {
        // flip_period == 1: any non-empty replay re-corrupts.
        let mut s = FaultState::new(FaultPlan::corrupting(3), SALT_MEM);
        assert!(!s.replay_flip(0), "empty replay exposes no window");
        assert!(s.replay_flip(1));
        assert!(s.replay_flip(5));
        // Canned 1/400 plans: second upsets are rare but reproducible.
        let draw = || {
            let mut s = FaultState::new(FaultPlan::corrupting_recoverable(11), SALT_MEM);
            (0..10_000).map(|_| s.replay_flip(4)).collect::<Vec<_>>()
        };
        let hits = draw().iter().filter(|&&b| b).count();
        assert!(hits < 10, "~replayed/period^2 per rollback, got {hits}/10k");
        assert_eq!(draw(), draw());
    }

    #[test]
    fn replay_flips_do_not_perturb_the_primary_streams() {
        let run = |with_replays: bool| {
            let mut s = FaultState::new(FaultPlan::corrupting_recoverable(42), SALT_MEM);
            (0..2000)
                .map(|i| {
                    if with_replays && i % 7 == 0 {
                        s.replay_flip(3);
                    }
                    (s.on_transfer(9), s.flip_decision())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    /// The multiply-and-compare test agrees with `%` on random `x`, for
    /// divisors at the edges (1, `u64::MAX`), small ones, the canned flip
    /// period, powers of two and random ones; `x` also takes multiples
    /// of `d`, its neighbors and the extremes.
    #[test]
    fn divisor_matches_the_remainder() {
        let mut rng = 0x5EED_u64;
        let mut next = || {
            rng = rng.wrapping_add(1);
            mix64(rng)
        };
        let mut ds = vec![1, 2, 3, 5, 7, 400, 641, u64::MAX, u64::MAX - 1, 1 << 63];
        ds.extend((1..63).map(|k| 1u64 << k));
        ds.extend((0..64).map(|_| next().max(1)));
        ds.extend((0..64).map(|_| (next() >> (next() % 64)).max(1)));
        for d in ds {
            let div = Divisor::new(d);
            let k = next() % (u64::MAX / d).max(1);
            let xs = [
                0,
                1,
                u64::MAX,
                d,
                d.wrapping_mul(k),
                d.wrapping_mul(k).wrapping_add(1),
            ];
            for x in xs.into_iter().chain((0..256).map(|_| next())) {
                assert_eq!(div.divides(x), x % d == 0, "{x} % {d}");
            }
        }
    }

    #[test]
    fn rollback_stats_merge() {
        let a = ResilienceStats {
            rollbacks: 2,
            rollback_cycles: 40,
            checkpoint_words: 64,
            ..ResilienceStats::default()
        };
        let m = a.merged(&a);
        assert_eq!(m.rollbacks, 4);
        assert_eq!(m.rollback_cycles, 80);
        assert_eq!(m.checkpoint_words, 128);
    }
}
