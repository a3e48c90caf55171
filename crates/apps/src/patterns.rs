//! Communication-pattern classification (paper Table I).
//!
//! Each application declares its main and other synchronization patterns;
//! the `figures table1` harness prints the table from this metadata.

/// A synchronization/communication pattern of §IV-A1 (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncPattern {
    /// Program-wide barrier (Figure 4a).
    Barrier,
    /// Critical section under lock (Figure 4b).
    Critical,
    /// Flag set/wait (Figure 4c).
    Flag,
    /// Outside-critical-section communication (Figure 4d).
    OutsideCritical,
    /// Intentional data race enforced with per-word WB/INV (Figure 6).
    DataRace,
}

impl SyncPattern {
    pub fn label(self) -> &'static str {
        match self {
            SyncPattern::Barrier => "Barrier",
            SyncPattern::Critical => "Critical",
            SyncPattern::Flag => "Flag",
            SyncPattern::OutsideCritical => "Outside critical",
            SyncPattern::DataRace => "Data race",
        }
    }
}

/// Table I row: main pattern(s) plus others the application exhibits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternInfo {
    pub main: Vec<SyncPattern>,
    pub other: Vec<SyncPattern>,
}

impl PatternInfo {
    pub fn new(main: &[SyncPattern], other: &[SyncPattern]) -> PatternInfo {
        PatternInfo {
            main: main.to_vec(),
            other: other.to_vec(),
        }
    }

    /// Render like the paper's Table I cells.
    pub fn main_label(&self) -> String {
        self.main
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join(", ")
    }

    pub fn other_label(&self) -> String {
        self.other
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_render_like_table1() {
        let p = PatternInfo::new(
            &[SyncPattern::Barrier, SyncPattern::OutsideCritical],
            &[SyncPattern::Critical],
        );
        assert_eq!(p.main_label(), "Barrier, Outside critical");
        assert_eq!(p.other_label(), "Critical");
    }
}
