//! The configurations evaluated in the paper (Table II), plus the
//! machine topology they run on.
//!
//! A [`Config`] pairs a coherence-management *scheme* (which protocol or
//! WB/INV discipline the run uses) with a validated [`Topology`] (the
//! machine's geometry). The paper's two shapes are the defaults —
//! `Config::Intra(..)` runs on the 16-core single block,
//! `Config::Inter(..)` on 4 blocks × 8 cores — and
//! [`Config::with_topology`] retargets a scheme onto any other validated
//! geometry (the sweep behind `bench_host --geometry`).
//!
//! A `Config` also owns the annotation policy of its Table II row: which
//! WB/INV flavors a barrier, flag or lock carries ([`Config::sync_wb`],
//! [`Config::sync_inv`]) and which instructions an epoch plan lowers to
//! ([`Config::plan_wb`], [`Config::plan_inv`]). `ThreadCtx` issues
//! exactly what they yield, and `hic-lint` interprets exactly that.

use hic_core::{CohInstr, Target};
use hic_mem::Region;
use hic_sim::{ConfigError, MachineConfig, ThreadId, Topology};

use crate::ctx::SyncData;
use crate::plan::{CommOp, EpochPlan};

/// Intra-block configurations (upper half of Table II), plus the
/// update-based Dragon protocol from the extended protocol zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntraConfig {
    /// Hardware cache coherence (directory MESI).
    Hcc,
    /// Hardware cache coherence, update-based (directory Dragon).
    /// Not part of Table II — excluded from [`IntraConfig::ALL`].
    Dragon,
    /// Baseline: WB ALL and INV ALL around every synchronization.
    Base,
    /// Base plus the MEB (critical sections drain via the MEB).
    BM,
    /// Base plus the IEB (critical sections skip the up-front INV ALL).
    BI,
    /// Base plus both buffers.
    BMI,
}

impl IntraConfig {
    /// The five Table II configurations (Dragon is an extension and is
    /// swept separately).
    pub const ALL: [IntraConfig; 5] = [
        IntraConfig::Hcc,
        IntraConfig::Base,
        IntraConfig::BM,
        IntraConfig::BI,
        IntraConfig::BMI,
    ];

    pub fn name(self) -> &'static str {
        match self {
            IntraConfig::Hcc => "HCC",
            IntraConfig::Dragon => "Dragon",
            IntraConfig::Base => "Base",
            IntraConfig::BM => "B+M",
            IntraConfig::BI => "B+I",
            IntraConfig::BMI => "B+M+I",
        }
    }

    pub fn uses_meb(self) -> bool {
        matches!(self, IntraConfig::BM | IntraConfig::BMI)
    }

    pub fn uses_ieb(self) -> bool {
        matches!(self, IntraConfig::BI | IntraConfig::BMI)
    }

    pub fn is_coherent(self) -> bool {
        matches!(self, IntraConfig::Hcc | IntraConfig::Dragon)
    }
}

/// Inter-block configurations (lower half of Table II), plus Dragon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterConfig {
    /// Hardware cache coherence (hierarchical directory MESI).
    Hcc,
    /// Hardware cache coherence, update-based (hierarchical Dragon).
    /// Not part of Table II — excluded from [`InterConfig::ALL`].
    Dragon,
    /// Baseline: WB ALL to L3 and INV ALL from L2 at every epoch boundary.
    Base,
    /// WB of specific addresses to L3; INV of specific addresses from L2.
    Addr,
    /// Level-adaptive WB_CONS and INV_PROD.
    AddrL,
}

impl InterConfig {
    /// The four Table II configurations (Dragon is an extension and is
    /// swept separately).
    pub const ALL: [InterConfig; 4] = [
        InterConfig::Hcc,
        InterConfig::Base,
        InterConfig::Addr,
        InterConfig::AddrL,
    ];

    pub fn name(self) -> &'static str {
        match self {
            InterConfig::Hcc => "HCC",
            InterConfig::Dragon => "Dragon",
            InterConfig::Base => "Base",
            InterConfig::Addr => "Addr",
            InterConfig::AddrL => "Addr+L",
        }
    }

    pub fn is_coherent(self) -> bool {
        matches!(self, InterConfig::Hcc | InterConfig::Dragon)
    }
}

/// The coherence-management scheme of a run: which half of Table II it
/// belongs to and which row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    Intra(IntraConfig),
    Inter(InterConfig),
}

impl Scheme {
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Intra(c) => c.name(),
            Scheme::Inter(c) => c.name(),
        }
    }

    pub fn is_coherent(self) -> bool {
        match self {
            Scheme::Intra(c) => c.is_coherent(),
            Scheme::Inter(c) => c.is_coherent(),
        }
    }

    pub fn is_dragon(self) -> bool {
        matches!(
            self,
            Scheme::Intra(IntraConfig::Dragon) | Scheme::Inter(InterConfig::Dragon)
        )
    }
}

/// A fully-specified run configuration: management scheme + machine
/// topology.
///
/// The associated functions [`Config::Intra`] and [`Config::Inter`]
/// construct the paper's configurations on the paper's shapes, so the
/// historical `Config::Intra(IntraConfig::Base)` expression keeps
/// working; matching on the scheme goes through [`Config::scheme`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Config {
    scheme: Scheme,
    topology: Topology,
}

impl Config {
    /// An intra-block scheme on the paper's single-block topology
    /// (1 block × 16 cores, Table III).
    #[allow(non_snake_case)] // constructor: reads as the old enum variant
    pub fn Intra(c: IntraConfig) -> Config {
        Config {
            scheme: Scheme::Intra(c),
            topology: Topology::intra_block(),
        }
    }

    /// An inter-block scheme on the paper's hierarchical topology
    /// (4 blocks × 8 cores + shared L3, Table III).
    #[allow(non_snake_case)] // constructor: reads as the old enum variant
    pub fn Inter(c: InterConfig) -> Config {
        Config {
            scheme: Scheme::Inter(c),
            topology: Topology::inter_block(),
        }
    }

    /// Retarget this scheme onto another validated topology. Fails with
    /// [`ConfigError::SchemeMismatch`] when the scheme's hierarchy
    /// assumption disagrees with the shape: intra-block schemes need a
    /// single block, inter-block schemes need a hierarchical machine.
    pub fn with_topology(self, topology: Topology) -> Result<Config, ConfigError> {
        let hierarchical = matches!(self.scheme, Scheme::Inter(_));
        if topology.is_hierarchical() != hierarchical {
            return Err(ConfigError::SchemeMismatch {
                scheme: self.scheme.name(),
                blocks: topology.blocks(),
            });
        }
        Ok(Config {
            scheme: self.scheme,
            topology,
        })
    }

    pub fn scheme(self) -> Scheme {
        self.scheme
    }

    pub fn topology(self) -> Topology {
        self.topology
    }

    pub fn name(self) -> &'static str {
        self.scheme.name()
    }

    pub fn is_coherent(self) -> bool {
        self.scheme.is_coherent()
    }

    pub fn is_dragon(self) -> bool {
        self.scheme.is_dragon()
    }

    /// The machine this configuration runs on.
    pub fn machine_config(self) -> MachineConfig {
        MachineConfig::with_topology(self.topology)
    }

    /// Number of hardware threads (= cores) available.
    pub fn num_threads(self) -> usize {
        self.topology.num_cores()
    }

    pub fn intra(self) -> Option<IntraConfig> {
        match self.scheme {
            Scheme::Intra(c) => Some(c),
            _ => None,
        }
    }

    pub fn inter(self) -> Option<InterConfig> {
        match self.scheme {
            Scheme::Inter(c) => Some(c),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Annotation lowering (§IV-A, §V)
    // ------------------------------------------------------------------

    /// The WB half a barrier, flag set or lock carries for `data`, in
    /// issue order; nothing under hardware coherence. A sync names no
    /// consumer, so on the inter-block machine it writes back to L3
    /// (Addr and Addr+L refine epoch data movement through plans, not
    /// the conservative cross-block semantics of a sync).
    pub fn sync_wb<'a>(self, data: SyncData<'a>) -> impl Iterator<Item = CohInstr> + 'a {
        self.sync_targets(data)
            .map(move |t| self.wb_flavor(t, None))
    }

    /// The INV half a barrier, flag wait or lock carries for `data`.
    pub fn sync_inv<'a>(self, data: SyncData<'a>) -> impl Iterator<Item = CohInstr> + 'a {
        self.sync_targets(data)
            .map(move |t| self.inv_flavor(t, None))
    }

    /// The instructions a `plan_wb` call site issues for `plan`, each
    /// tagged with the index of its op in `plan.wb`. Base ignores the
    /// plan and issues one `WB_L3 ALL`, tagged `None`.
    pub fn plan_wb(self, plan: &EpochPlan) -> impl Iterator<Item = (Option<usize>, CohInstr)> + '_ {
        self.plan_targets(&plan.wb)
            .map(move |(i, t, consumer)| (i, self.wb_flavor(t, consumer)))
    }

    /// The instructions a `plan_inv` call site issues for `plan`, tagged
    /// like [`Config::plan_wb`]'s (Base: one `INV_L2 ALL`).
    pub fn plan_inv(
        self,
        plan: &EpochPlan,
    ) -> impl Iterator<Item = (Option<usize>, CohInstr)> + '_ {
        self.plan_targets(&plan.inv)
            .map(move |(i, t, producer)| (i, self.inv_flavor(t, producer)))
    }

    /// The WB flavor for `target`: `WB_CONS` when Addr+L knows the
    /// consumer, `WB_L3` elsewhere on the inter-block machine, plain `WB`
    /// within one block.
    fn wb_flavor(self, target: Target, consumer: Option<ThreadId>) -> CohInstr {
        match (self.inter(), consumer) {
            (Some(InterConfig::AddrL), Some(c)) => CohInstr::wb_cons(target, c),
            (Some(_), _) => CohInstr::wb_l3(target),
            (None, _) => CohInstr::wb(target),
        }
    }

    /// The INV flavor for `target`: `INV_PROD` when Addr+L knows the
    /// producer, `INV_L2` elsewhere on the inter-block machine, plain
    /// `INV` within one block.
    fn inv_flavor(self, target: Target, producer: Option<ThreadId>) -> CohInstr {
        match (self.inter(), producer) {
            (Some(InterConfig::AddrL), Some(p)) => CohInstr::inv_prod(target, p),
            (Some(_), _) => CohInstr::inv_l2(target),
            (None, _) => CohInstr::inv(target),
        }
    }

    fn sync_targets(self, data: SyncData<'_>) -> impl Iterator<Item = Target> + '_ {
        let (all, regions): (bool, &[Region]) = match data {
            _ if self.is_coherent() => (false, &[]),
            SyncData::All => (true, &[]),
            SyncData::None => (false, &[]),
            SyncData::Regions(rs) => (false, rs),
        };
        all.then_some(Target::All)
            .into_iter()
            .chain(regions.iter().map(|&r| Target::range(r)))
    }

    /// `(plan-op index, target, peer)` of each instruction a plan call
    /// site issues for `ops`: one per op, or one untagged ALL under Base.
    fn plan_targets(
        self,
        ops: &[CommOp],
    ) -> impl Iterator<Item = (Option<usize>, Target, Option<ThreadId>)> + '_ {
        let (all, ops): (bool, &[CommOp]) = match self.scheme {
            _ if self.is_coherent() => (false, &[]),
            Scheme::Inter(InterConfig::Base) => (true, &[]),
            _ => (false, ops),
        };
        all.then_some((None, Target::All, None)).into_iter().chain(
            ops.iter()
                .enumerate()
                .map(|(i, op)| (Some(i), Target::range(op.region), op.peer)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_sim::TopologyBuilder;

    #[test]
    fn table2_names() {
        let intra: Vec<_> = IntraConfig::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(intra, ["HCC", "Base", "B+M", "B+I", "B+M+I"]);
        let inter: Vec<_> = InterConfig::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(inter, ["HCC", "Base", "Addr", "Addr+L"]);
    }

    #[test]
    fn dragon_is_an_extension_not_a_table2_row() {
        assert!(!IntraConfig::ALL.contains(&IntraConfig::Dragon));
        assert!(!InterConfig::ALL.contains(&InterConfig::Dragon));
        assert!(IntraConfig::Dragon.is_coherent());
        assert!(Config::Intra(IntraConfig::Dragon).is_dragon());
        assert!(Config::Inter(InterConfig::Dragon).is_dragon());
        assert!(!Config::Intra(IntraConfig::Hcc).is_dragon());
    }

    #[test]
    fn buffer_usage_per_config() {
        assert!(!IntraConfig::Base.uses_meb());
        assert!(IntraConfig::BM.uses_meb());
        assert!(!IntraConfig::BM.uses_ieb());
        assert!(IntraConfig::BI.uses_ieb());
        assert!(IntraConfig::BMI.uses_meb() && IntraConfig::BMI.uses_ieb());
        assert!(!IntraConfig::Hcc.uses_meb() && !IntraConfig::Hcc.uses_ieb());
    }

    #[test]
    fn machine_shapes() {
        assert_eq!(Config::Intra(IntraConfig::Base).num_threads(), 16);
        assert_eq!(Config::Inter(InterConfig::Base).num_threads(), 32);
        assert!(Config::Intra(IntraConfig::Hcc).is_coherent());
        assert!(!Config::Inter(InterConfig::AddrL).is_coherent());
    }

    #[test]
    fn with_topology_retargets_matching_shapes() {
        let eight_by_eight = TopologyBuilder::new(8, 8).validate().unwrap();
        let c = Config::Inter(InterConfig::Base)
            .with_topology(eight_by_eight)
            .unwrap();
        assert_eq!(c.num_threads(), 64);
        assert_eq!(c.name(), "Base");
        let flat = TopologyBuilder::new(1, 4).validate().unwrap();
        let c = Config::Intra(IntraConfig::BMI).with_topology(flat).unwrap();
        assert_eq!(c.num_threads(), 4);
    }

    #[test]
    fn lowering_follows_table2() {
        use crate::plan::CommOp;
        use hic_core::{InvScope, WbScope};
        use hic_mem::WordAddr;

        let r = Region::new(WordAddr(0), 16);
        let plan = EpochPlan::new()
            .with_wb(CommOp::known(r, ThreadId(1)))
            .with_wb(CommOp::unknown(r))
            .with_inv(CommOp::known(r, ThreadId(0)));
        let wb = |c: Config| c.plan_wb(&plan).collect::<Vec<_>>();
        let inv = |c: Config| c.plan_inv(&plan).collect::<Vec<_>>();
        let t = Target::range(r);
        assert_eq!(
            wb(Config::Inter(InterConfig::Base)),
            [(None, CohInstr::wb_l3(Target::All))]
        );
        assert_eq!(
            wb(Config::Inter(InterConfig::Addr)),
            [(Some(0), CohInstr::wb_l3(t)), (Some(1), CohInstr::wb_l3(t))]
        );
        assert_eq!(
            wb(Config::Inter(InterConfig::AddrL)),
            [
                (Some(0), CohInstr::wb_cons(t, ThreadId(1))),
                (Some(1), CohInstr::wb_l3(t))
            ]
        );
        assert_eq!(
            inv(Config::Inter(InterConfig::AddrL)),
            [(Some(0), CohInstr::inv_prod(t, ThreadId(0)))]
        );
        assert_eq!(
            inv(Config::Intra(IntraConfig::BMI)),
            [(Some(0), CohInstr::inv(t))]
        );
        assert!(wb(Config::Inter(InterConfig::Hcc)).is_empty());

        let regions = [r, r];
        let base = Config::Inter(InterConfig::Base);
        let all: Vec<_> = base.sync_wb(SyncData::All).collect();
        assert_eq!(all, [CohInstr::wb_l3(Target::All)]);
        let each: Vec<_> = base.sync_inv(SyncData::Regions(&regions)).collect();
        assert!(each.iter().all(|i| matches!(
            i,
            CohInstr::Inv {
                scope: InvScope::FromL2,
                ..
            }
        )));
        assert_eq!(each.len(), 2);
        let intra: Vec<_> = Config::Intra(IntraConfig::Base)
            .sync_wb(SyncData::All)
            .collect();
        assert!(matches!(
            intra[..],
            [CohInstr::Wb {
                target: Target::All,
                scope: WbScope::ToL2
            }]
        ));
        assert_eq!(base.sync_wb(SyncData::None).count(), 0);
        let hcc = Config::Intra(IntraConfig::Hcc);
        assert_eq!(hcc.sync_inv(SyncData::All).count(), 0);
    }

    #[test]
    fn with_topology_rejects_scheme_mismatch() {
        let flat = TopologyBuilder::new(1, 4).validate().unwrap();
        let err = Config::Inter(InterConfig::Base)
            .with_topology(flat)
            .unwrap_err();
        assert!(matches!(err, ConfigError::SchemeMismatch { blocks: 1, .. }));
        let hier = TopologyBuilder::new(2, 4).validate().unwrap();
        let err = Config::Intra(IntraConfig::Base)
            .with_topology(hier)
            .unwrap_err();
        assert!(matches!(err, ConfigError::SchemeMismatch { blocks: 2, .. }));
    }
}
