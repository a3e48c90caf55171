//! Typed failure modes of a run.
//!
//! A run that cannot complete — deadlock, watchdog expiry, an
//! unrecoverable injected fault, or a fatal sanitizer finding — surfaces
//! one [`RunError`] instead of aborting the process. The runtime engine
//! latches the *first* error, tears every simulated thread down
//! gracefully, and hands the error to the caller through
//! `RunOutcome::result()`, so a failed run leaves the host process
//! reusable (tested: a clean run succeeds right after a deadlocked one).

use std::fmt;

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Every unfinished core is parked on synchronization: nothing can
    /// ever execute again. `parked` lists each stuck core and the label
    /// of the stall category it is charged to (e.g. `"barrier stall"`);
    /// `trace_tail` carries the rendered recent-operation history when
    /// tracing was enabled (empty otherwise).
    Deadlock {
        parked: Vec<(usize, String)>,
        trace_tail: String,
    },
    /// A watchdog fired: the run exceeded its simulated-cycle budget or
    /// its host wall-clock timeout without finishing.
    Hang { detail: String },
    /// An injected bit flip corrupted a cache line holding dirty words.
    /// The dirty data exists nowhere else in the hierarchy, so the run
    /// cannot silently produce wrong answers — it fails instead. With
    /// epoch-checkpoint rollback recovery (`FaultPlan::recover`, a
    /// request's `FaultSpec::CorruptingRecover`) the corruption is
    /// repaired by restore + replay and this error is reachable only on
    /// recovery-disabled runs or when a second upset strikes the same
    /// line during its own replay window.
    CorruptDirtyLine { detail: String },
    /// The incoherence sanitizer (`hic-check`) latched a fatal finding
    /// under `CheckMode::Strict`. The message is the rendered finding
    /// (prefixed `"incoherence detected:"`), with the trace tail
    /// attached when tracing was enabled.
    CheckFatal { msg: String },
}

impl RunError {
    /// Short machine-readable tag (used by the bench JSON reports).
    pub fn kind(&self) -> &'static str {
        match self {
            RunError::Deadlock { .. } => "deadlock",
            RunError::Hang { .. } => "hang",
            RunError::CorruptDirtyLine { .. } => "corrupt_dirty_line",
            RunError::CheckFatal { .. } => "check_fatal",
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Deadlock { parked, trace_tail } => {
                let cores: Vec<String> = parked
                    .iter()
                    .map(|(c, cat)| format!("core{c} ({cat})"))
                    .collect();
                write!(
                    f,
                    "deadlock: no runnable core; parked cores: [{}] \
                     (a barrier is missing an arrival, or a lock is never released)",
                    cores.join(", ")
                )?;
                if !trace_tail.is_empty() {
                    write!(f, "\nmost recent operations (oldest first):\n{trace_tail}")?;
                }
                Ok(())
            }
            RunError::Hang { detail } => write!(f, "hang: {detail}"),
            RunError::CorruptDirtyLine { detail } => write!(f, "{detail}"),
            RunError::CheckFatal { msg } => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_display_names_cores_and_categories() {
        let e = RunError::Deadlock {
            parked: vec![(0, "barrier stall".into()), (3, "lock stall".into())],
            trace_tail: String::new(),
        };
        let msg = e.to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("core0 (barrier stall)"), "{msg}");
        assert!(msg.contains("core3 (lock stall)"), "{msg}");
        assert_eq!(e.kind(), "deadlock");
    }

    #[test]
    fn deadlock_display_appends_trace_tail() {
        let e = RunError::Deadlock {
            parked: vec![(1, "lock stall".into())],
            trace_tail: "core1 BarrierArrive".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("most recent operations"), "{msg}");
        assert!(msg.contains("BarrierArrive"), "{msg}");
    }

    #[test]
    fn check_fatal_displays_the_rendered_finding_verbatim() {
        let e = RunError::CheckFatal {
            msg: "incoherence detected: stale load".into(),
        };
        assert_eq!(e.to_string(), "incoherence detected: stale load");
    }
}
