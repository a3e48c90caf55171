//! Property-based end-to-end tests for the update-based Dragon backend
//! and for non-paper topologies, mirroring `prop_epochs.rs`.
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

use hic_runtime::{Config, InterConfig, IntraConfig, ProgramBuilder};
use hic_sim::{SplitMix64, TopologyBuilder};

const WORDS: usize = 48;

#[derive(Debug, Clone)]
struct EpochProgram {
    threads: usize,
    /// `writers[e][w]` = thread writing word `w` in epoch `e`, if any.
    writers: Vec<Vec<Option<u8>>>,
}

fn gen_program(rng: &mut SplitMix64, threads: usize) -> EpochProgram {
    let epochs = 2 + rng.below(2);
    let writers = (0..epochs)
        .map(|_| {
            (0..WORDS)
                .map(|_| {
                    if rng.unit_f64() < 0.4 {
                        Some(rng.below(threads as u64) as u8)
                    } else {
                        None
                    }
                })
                .collect()
        })
        .collect();
    EpochProgram { threads, writers }
}

fn value(e: usize, t: u8, w: usize) -> u32 {
    (e as u32 + 1) * 100_000 + (t as u32) * 1000 + w as u32
}

fn host_model(prog: &EpochProgram) -> Vec<Vec<u32>> {
    let mut model = vec![vec![0u32; WORDS]];
    for (e, epoch) in prog.writers.iter().enumerate() {
        let mut next = model[e].clone();
        for (w, wr) in epoch.iter().enumerate() {
            if let Some(t) = wr {
                next[w] = value(e, *t, w);
            }
        }
        model.push(next);
    }
    model
}

/// Run the program on the given builder; panics on any stale read.
/// Returns the final state of the shared array.
fn run_on(mut p: ProgramBuilder, label: &str, prog: &EpochProgram) -> Vec<u32> {
    let threads = prog.threads;
    let data = p.alloc(WORDS as u64);
    let bar = p.barrier_of(threads);
    let writers = prog.writers.clone();

    let model = std::sync::Arc::new(host_model(prog));
    let model2 = std::sync::Arc::clone(&model);
    let label2 = label.to_string();

    let out = p.run_tasks(threads, async move |ctx| {
        for (e, epoch) in writers.iter().enumerate() {
            for (w, wr) in epoch.iter().enumerate() {
                if wr.is_none() {
                    let got = ctx.read(data, w as u64).await;
                    let want = model2[e][w];
                    assert_eq!(
                        got, want,
                        "stale read of word {w} in epoch {e} under {label2}"
                    );
                }
            }
            for (w, wr) in epoch.iter().enumerate() {
                if *wr == Some(ctx.tid() as u8) {
                    ctx.write(data, w as u64, value(e, ctx.tid() as u8, w))
                        .await;
                }
            }
            ctx.barrier(bar).await;
        }
    });

    let last = model.last().unwrap();
    let mut finals = Vec::with_capacity(WORDS);
    for (w, want) in last.iter().enumerate() {
        let got = out.peek(data, w as u64);
        assert_eq!(got, *want, "final word {w} under {label}");
        finals.push(got);
    }
    finals
}

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
