//! Property-based end-to-end tests for the update-based Dragon backend
//! and for non-paper topologies, on `prop_epochs.rs`'s programs.
//!
//! Dragon is hardware-coherent: like MESI it needs no WB/INV
//! annotations, so any data-race-free program must compute exactly what
//! the flat always-fresh reference backend (`RefBackend`) computes. The
//! generator builds random epoch-structured programs (each word has at
//! most one writer per epoch; every thread reads the stable words and
//! checks them against a host-side model) and compares final readable
//! memory word for word.
//!
//! The same harness then runs on a topology the paper never evaluated
//! (8 blocks x 8 cores): the `Topology` refactor's contract is that the
//! simulator is geometry-generic, not specialized to Table III.
//!
//! Randomized with the deterministic in-repo `SplitMix64` (fixed seeds).

#[path = "common/epochs.rs"]
mod epochs;

use epochs::{gen_program, run_on};
use hic_runtime::{Config, InterConfig, IntraConfig, ProgramBuilder};
use hic_sim::{SplitMix64, TopologyBuilder};

/// Dragon on the single-block machine vs the cache-free oracle: final
/// readable memory must agree word for word.
#[test]
fn dragon_agrees_with_reference_on_random_epoch_programs() {
    let mut rng = SplitMix64::new(0xD7A6_0001);
    for _case in 0..6 {
        let prog = gen_program(&mut rng, 4);
        let oracle = run_on(
            ProgramBuilder::with_reference_backend(Config::Intra(IntraConfig::Base)),
            "reference",
            &prog,
        );
        let dragon = run_on(
            ProgramBuilder::new(Config::Intra(IntraConfig::Dragon)),
            "Dragon",
            &prog,
        );
        assert_eq!(
            dragon, oracle,
            "Dragon disagrees with the reference backend"
        );
    }
}

/// Dragon on the hierarchical machine, with threads spanning blocks
/// (thread `i` is pinned to core `i`; 12 threads cover blocks 0 and 1 of
/// the 4x8 machine): cross-block update broadcasts and L3 recalls must
/// preserve oracle agreement.
#[test]
fn dragon_agrees_with_reference_cross_block() {
    let mut rng = SplitMix64::new(0xD7A6_0002);
    for _case in 0..4 {
        let prog = gen_program(&mut rng, 12);
        let oracle = run_on(
            ProgramBuilder::with_reference_backend(Config::Inter(InterConfig::Base)),
            "reference",
            &prog,
        );
        let dragon = run_on(
            ProgramBuilder::new(Config::Inter(InterConfig::Dragon)),
            "Dragon",
            &prog,
        );
        assert_eq!(
            dragon, oracle,
            "hierarchical Dragon disagrees with the reference backend"
        );
    }
}

/// MESI and Dragon are both hardware-coherent: same values, different
/// timing. Both must match the oracle; their traffic mixes differ.
#[test]
fn dragon_and_mesi_compute_identical_values() {
    let mut rng = SplitMix64::new(0xD7A6_0003);
    for _case in 0..4 {
        let prog = gen_program(&mut rng, 4);
        let mesi = run_on(
            ProgramBuilder::new(Config::Intra(IntraConfig::Hcc)),
            "HCC",
            &prog,
        );
        let dragon = run_on(
            ProgramBuilder::new(Config::Intra(IntraConfig::Dragon)),
            "Dragon",
            &prog,
        );
        assert_eq!(dragon, mesi);
    }
}

/// The epoch harness on a topology the paper never built: 8 blocks x
/// 8 cores (64 cores, 8x8 mesh), threads spanning three blocks, under
/// every inter scheme plus Dragon. The annotations and protocols must be
/// geometry-generic.
#[test]
fn nonpaper_topology_8_blocks_x_8_cores_runs_every_scheme() {
    let topo = TopologyBuilder::new(8, 8).validate().expect("valid shape");
    assert_eq!(topo.num_cores(), 64);
    let mut rng = SplitMix64::new(0xD7A6_0004);
    let prog = gen_program(&mut rng, 20); // cores 0..20 span blocks 0..3
    let oracle = run_on(
        ProgramBuilder::with_reference_backend(
            Config::Inter(InterConfig::Base)
                .with_topology(topo)
                .unwrap(),
        ),
        "reference",
        &prog,
    );
    for scheme in [
        InterConfig::Hcc,
        InterConfig::Dragon,
        InterConfig::Base,
        InterConfig::Addr,
        InterConfig::AddrL,
    ] {
        let config = Config::Inter(scheme).with_topology(topo).unwrap();
        assert_eq!(config.num_threads(), 64);
        let got = run_on(ProgramBuilder::new(config), scheme.name(), &prog);
        assert_eq!(
            got,
            oracle,
            "{} disagrees with the oracle on the 8x8-core topology",
            scheme.name()
        );
    }
}

/// A tiny flat non-paper machine (1 block x 4 cores) runs the intra
/// schemes too — the other end of the geometry range.
#[test]
fn nonpaper_topology_flat_4_cores_runs_every_scheme() {
    let topo = TopologyBuilder::new(1, 4).validate().expect("valid shape");
    let mut rng = SplitMix64::new(0xD7A6_0005);
    let prog = gen_program(&mut rng, 4);
    let oracle = run_on(
        ProgramBuilder::with_reference_backend(
            Config::Intra(IntraConfig::Base)
                .with_topology(topo)
                .unwrap(),
        ),
        "reference",
        &prog,
    );
    for scheme in [
        IntraConfig::Hcc,
        IntraConfig::Dragon,
        IntraConfig::Base,
        IntraConfig::BM,
        IntraConfig::BI,
        IntraConfig::BMI,
    ] {
        let config = Config::Intra(scheme).with_topology(topo).unwrap();
        let got = run_on(ProgramBuilder::new(config), scheme.name(), &prog);
        assert_eq!(
            got,
            oracle,
            "{} disagrees with the oracle on the flat 4-core topology",
            scheme.name()
        );
    }
}
