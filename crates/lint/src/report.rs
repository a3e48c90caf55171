//! Lint findings and reports.
//!
//! `hic-lint` findings deliberately mirror the dynamic sanitizer's
//! [`hic_check::Finding`]s — same kinds, same producer/consumer
//! attribution, same "which sync op should have carried the fix" hint —
//! but they are *ranges*, not single faulty accesses: the static analysis
//! sees the whole region summary at once, so one missing WB surfaces as
//! one finding over the full uncovered range instead of up to
//! `MAX_FINDINGS` per-word reports.

use hic_check::{FindingKind, SyncRef};
use hic_mem::{Region, WordAddr};
use hic_runtime::{Config, PlanOverrides};
use hic_sim::{Json, ThreadId};

/// Which parts of the static analysis a verification exercised — the
/// coverage signal the fuzzer's generation feedback loop consumes.
/// Counters over the *lowered* abstract-op streams (so they reflect the
/// per-config lowering rules, not the record's surface syntax) plus the
/// interpreter events that only some programs reach.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintCoverage {
    /// Lowered region-read / region-write events.
    pub reads: u64,
    pub writes: u64,
    /// Lowered WB instructions by scope (block-local vs global).
    pub wb_local: u64,
    pub wb_global: u64,
    /// ... and INV instructions.
    pub inv_local: u64,
    pub inv_global: u64,
    /// WB/INV with an `ALL` target (vs an address range).
    pub wb_all: u64,
    pub inv_all: u64,
    /// Lowered sync ops.
    pub barriers: u64,
    pub flag_sets: u64,
    pub flag_waits: u64,
    pub flag_clears: u64,
    /// Line fills whose captured copy raced the word's last write and was
    /// poisoned (the schedule-independence pessimization fired).
    pub poisoned_fills: u64,
}

impl LintCoverage {
    /// Accumulate another report's coverage into this one.
    pub fn merge(&mut self, o: &LintCoverage) {
        for (mine, theirs) in self
            .features_mut()
            .into_iter()
            .zip(o.features().iter().map(|&(_, v)| v))
        {
            *mine.1 += theirs;
        }
    }

    /// Named counters, in a stable order.
    pub fn features(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("reads", self.reads),
            ("writes", self.writes),
            ("wb_local", self.wb_local),
            ("wb_global", self.wb_global),
            ("inv_local", self.inv_local),
            ("inv_global", self.inv_global),
            ("wb_all", self.wb_all),
            ("inv_all", self.inv_all),
            ("barriers", self.barriers),
            ("flag_sets", self.flag_sets),
            ("flag_waits", self.flag_waits),
            ("flag_clears", self.flag_clears),
            ("poisoned_fills", self.poisoned_fills),
        ]
    }

    fn features_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
        vec![
            ("reads", &mut self.reads),
            ("writes", &mut self.writes),
            ("wb_local", &mut self.wb_local),
            ("wb_global", &mut self.wb_global),
            ("inv_local", &mut self.inv_local),
            ("inv_global", &mut self.inv_global),
            ("wb_all", &mut self.wb_all),
            ("inv_all", &mut self.inv_all),
            ("barriers", &mut self.barriers),
            ("flag_sets", &mut self.flag_sets),
            ("flag_waits", &mut self.flag_waits),
            ("flag_clears", &mut self.flag_clears),
            ("poisoned_fills", &mut self.poisoned_fills),
        ]
    }

    /// One stable JSON object, all counters by name.
    pub fn to_json(&self) -> Json {
        Json::obj(self.features().into_iter().map(|(k, v)| (k, Json::uint(v))))
    }
}

/// One statically-proven protocol violation over a word range.
#[derive(Debug, Clone)]
pub struct LintFinding {
    pub kind: FindingKind,
    /// The thread whose writes go stale (the producer).
    pub producer: ThreadId,
    /// The thread whose ordered reads observe the stale value.
    pub consumer: ThreadId,
    /// First affected word.
    pub start: WordAddr,
    /// Number of contiguous affected words.
    pub words: u64,
    /// `name[lo..hi]` within the containing allocation, when named.
    pub region: Option<String>,
    /// The producer's epoch whose values never arrive.
    pub write_epoch: u32,
    /// The sync op that should have carried the missing WB (producer's
    /// release) or INV (consumer's acquire).
    pub sync_hint: Option<SyncRef>,
}

impl LintFinding {
    /// The affected range as a [`Region`].
    pub fn range(&self) -> Region {
        Region::new(self.start, self.words)
    }

    /// Does this finding explain a dynamic sanitizer finding? Same kind,
    /// same producer/consumer pair, faulty word inside the range.
    pub fn explains(&self, f: &hic_check::Finding) -> bool {
        self.kind == f.kind
            && self.producer == f.writer
            && self.consumer == f.actor
            && self.range().contains(f.addr)
    }

    /// One-line human-readable report.
    pub fn render(&self) -> String {
        let loc = match &self.region {
            Some(r) => format!(
                "{} (words {:#x}..{:#x})",
                r,
                self.start.0,
                self.start.0 + self.words
            ),
            None => format!(
                "words {:#x}..{:#x}",
                self.start.0,
                self.start.0 + self.words
            ),
        };
        let (side, who) = match self.kind {
            FindingKind::MissingWb => ("WB", self.producer),
            FindingKind::MissingInv => ("INV", self.consumer),
            FindingKind::WriteRace => ("sync", self.consumer),
        };
        let hint = match (&self.sync_hint, self.kind) {
            (_, FindingKind::WriteRace) => String::new(),
            (Some(s), _) => format!(" — a {side} covering it should travel with {who}'s {s}"),
            (None, _) => format!(" — no sync op by {who} could carry the {side} at all"),
        };
        format!(
            "{}: {} -> {}: {} (producer epoch {}){}",
            self.kind.label(),
            self.producer,
            self.consumer,
            loc,
            self.write_epoch,
            hint
        )
    }

    /// Stable machine-readable JSON object (the `--json` schema).
    pub fn to_json(&self) -> Json {
        let hint = self.sync_hint.map_or(Json::Null, |s| {
            Json::obj([
                ("op", Json::str(s.op.tag())),
                ("id", Json::uint(s.id as u64)),
                ("at", Json::uint(s.at)),
            ])
        });
        Json::obj([
            ("kind", Json::str(self.kind.tag())),
            ("producer", Json::uint(self.producer.0 as u64)),
            ("consumer", Json::uint(self.consumer.0 as u64)),
            ("start", Json::uint(self.start.0)),
            ("words", Json::uint(self.words)),
            (
                "region",
                self.region.as_deref().map_or(Json::Null, Json::str),
            ),
            ("write_epoch", Json::uint(self.write_epoch.into())),
            ("sync_hint", hint),
        ])
    }
}

/// The outcome of statically verifying one [`hic_runtime::ProgramRecord`].
#[derive(Debug, Clone)]
pub struct LintReport {
    pub config: Config,
    /// Range-aggregated findings, in discovery order.
    pub findings: Vec<LintFinding>,
    /// Structural problems with the record itself (deadlocked barrier,
    /// flag never set, event streams that cannot interleave). A report
    /// with errors proves nothing about the program.
    pub errors: Vec<String>,
    /// Ordered cross-thread reads the verifier checked.
    pub checks: u64,
    /// Distinct words the abstract memory model materialized.
    pub tracked_words: usize,
    /// What the verification exercised (fuzzer steering signal).
    pub coverage: LintCoverage,
}

impl LintReport {
    /// A report for a configuration that needs no verification (HCC:
    /// hardware moves the data).
    pub fn trivially_clean(config: Config) -> LintReport {
        LintReport {
            config,
            findings: Vec::new(),
            errors: Vec::new(),
            checks: 0,
            tracked_words: 0,
            coverage: LintCoverage::default(),
        }
    }

    /// No findings and no structural errors.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.errors.is_empty()
    }

    /// Does some static finding explain the dynamic finding `f`?
    pub fn covers(&self, f: &hic_check::Finding) -> bool {
        self.findings.iter().any(|lf| lf.explains(f))
    }

    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.errors {
            out.push_str(&format!("error: {e}\n"));
        }
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        if self.is_clean() {
            out.push_str(&format!(
                "clean: {} ordered cross-thread reads verified over {} words\n",
                self.checks, self.tracked_words
            ));
        }
        out
    }

    /// Stable machine-readable JSON object (the `--json` schema).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("config", Json::str(self.config.name())),
            ("clean", Json::Bool(self.is_clean())),
            (
                "findings",
                Json::Arr(self.findings.iter().map(LintFinding::to_json).collect()),
            ),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
            ("checks", Json::uint(self.checks)),
            ("tracked_words", Json::uint(self.tracked_words as u64)),
            ("coverage", self.coverage.to_json()),
        ])
    }
}

/// What the optimizer did to the plans.
#[derive(Debug, Clone, Default)]
pub struct OptStats {
    /// Planned WB/INV operations across all plan call sites, before.
    pub ops_before: usize,
    /// ... and after pruning / downgrading / coalescing.
    pub ops_after: usize,
    /// Ops removed because no ordered read ever consumed what they moved.
    pub pruned: usize,
    /// `peer: None` ops given a statically-known local peer, turning a
    /// global WB/INV into a block-local one under `Addr+L`.
    pub downgraded: usize,
    /// Plan call sites whose plan was replaced.
    pub sites_overridden: usize,
    /// The minimized plans failed re-verification and were discarded
    /// (the returned overrides are empty). Should never happen; present
    /// as a safety net, not a normal outcome.
    pub fallback: bool,
}

impl OptStats {
    pub fn render(&self) -> String {
        format!(
            "plan ops {} -> {} ({} pruned, {} downgraded, {} sites rewritten){}",
            self.ops_before,
            self.ops_after,
            self.pruned,
            self.downgraded,
            self.sites_overridden,
            if self.fallback {
                " [re-verification failed: overrides discarded]"
            } else {
                ""
            }
        )
    }

    /// Stable machine-readable JSON object (the `--json` schema).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ops_before", Json::uint(self.ops_before as u64)),
            ("ops_after", Json::uint(self.ops_after as u64)),
            ("pruned", Json::uint(self.pruned as u64)),
            ("downgraded", Json::uint(self.downgraded as u64)),
            ("sites_overridden", Json::uint(self.sites_overridden as u64)),
            ("fallback", Json::Bool(self.fallback)),
        ])
    }
}

/// The outcome of [`crate::optimize`]: the verification report of the
/// original program, the minimized plan substitutions, and the proof that
/// the minimized program is still sufficient.
#[derive(Debug, Clone)]
pub struct OptOutcome {
    /// Verification of the *original* record (optimization only proceeds
    /// when this is clean).
    pub report: LintReport,
    /// Per-call-site plan substitutions for
    /// [`hic_runtime::ProgramBuilder::override_plans`]. Empty when the
    /// original record has findings or the config ignores plans.
    pub overrides: PlanOverrides,
    pub stats: OptStats,
    /// Verification of the record with the minimized plans applied.
    pub reverify: LintReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_check::SyncOp;
    use hic_runtime::InterConfig;

    /// Pins the `--json` schema byte for byte: field order, `null`s,
    /// string escaping and the nested coverage/sync-hint objects.
    #[test]
    fn json_rendering_is_pinned() {
        let report = LintReport {
            config: Config::Inter(InterConfig::AddrL),
            findings: vec![
                LintFinding {
                    kind: FindingKind::MissingWb,
                    producer: ThreadId(1),
                    consumer: ThreadId(6),
                    start: WordAddr(0x140),
                    words: 24,
                    region: Some("grid[8..32]".into()),
                    write_epoch: 3,
                    sync_hint: Some(SyncRef {
                        op: SyncOp::Barrier,
                        id: 2,
                        at: 1870,
                    }),
                },
                LintFinding {
                    kind: FindingKind::MissingInv,
                    producer: ThreadId(0),
                    consumer: ThreadId(5),
                    start: WordAddr(0x200),
                    words: 1,
                    region: None,
                    write_epoch: 0,
                    sync_hint: None,
                },
            ],
            errors: vec!["flag 4 waited on by t2 but never set (\"done\")".into()],
            checks: 96,
            tracked_words: 512,
            coverage: LintCoverage {
                reads: 40,
                writes: 17,
                wb_global: 4,
                inv_local: 2,
                barriers: 9,
                flag_waits: 1,
                poisoned_fills: 3,
                ..LintCoverage::default()
            },
        };
        assert_eq!(
            report.to_json().to_string(),
            r#"{"config":"Addr+L","clean":false,"findings":[{"kind":"missing-wb","producer":1,"consumer":6,"start":320,"words":24,"region":"grid[8..32]","write_epoch":3,"sync_hint":{"op":"barrier","id":2,"at":1870}},{"kind":"missing-inv","producer":0,"consumer":5,"start":512,"words":1,"region":null,"write_epoch":0,"sync_hint":null}],"errors":["flag 4 waited on by t2 but never set (\"done\")"],"checks":96,"tracked_words":512,"coverage":{"reads":40,"writes":17,"wb_local":0,"wb_global":4,"inv_local":2,"inv_global":0,"wb_all":0,"inv_all":0,"barriers":9,"flag_sets":0,"flag_waits":1,"flag_clears":0,"poisoned_fills":3}}"#
        );
        let stats = OptStats {
            ops_before: 728,
            ops_after: 419,
            pruned: 309,
            downgraded: 21,
            sites_overridden: 12,
            fallback: false,
        };
        assert_eq!(
            stats.to_json().to_string(),
            r#"{"ops_before":728,"ops_after":419,"pruned":309,"downgraded":21,"sites_overridden":12,"fallback":false}"#
        );
    }
}
