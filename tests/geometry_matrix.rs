//! Smoke subset of the application suite on non-paper topologies.
//!
//! The `Topology` refactor's contract is that nothing in the stack is
//! specialized to the paper's two machines (1x16 and 4x8). Every run
//! here is made plain and again under the strict incoherence sanitizer:
//! a WB/INV policy that is only correct on the paper's shapes fails
//! loudly.
//!
//! Three non-paper shapes, smallest to largest:
//!
//! * 1 block x 4 cores (flat, below the paper's 16);
//! * 2 blocks x 4 cores (hierarchical, the smallest L3 machine);
//! * 8 blocks x 8 cores (64 cores, above the paper's 32).
//!
//! Each runs a two-app smoke subset under one incoherent scheme, MESI
//! (`Hcc`), and the update-based `Dragon` — the same protocol families
//! `bench_host --geometry` sweeps.

mod common;

use hic_apps::Scale;
use hic_runtime::{CheckMode, Config, InterConfig, IntraConfig, RunRequest};
use hic_sim::TopologyBuilder;

/// Run each smoke app under `config`, plain and under the strict
/// sanitizer.
fn check(apps: [&str; 2], config: Config) {
    for app in apps {
        for check in [CheckMode::Off, CheckMode::Strict] {
            let mut req = RunRequest::new(app, config, Scale::Test);
            req.check = check;
            let r = common::run(&req);
            assert!(
                r.correct,
                "{app} under {} on {} (check={}): {}",
                config.name(),
                config.topology().shape_label(),
                check.name(),
                r.detail
            );
        }
    }
}

#[test]
fn flat_4_core_machine_runs_the_intra_smoke_subset() {
    let topo = TopologyBuilder::new(1, 4).validate().expect("valid shape");
    for scheme in [IntraConfig::BMI, IntraConfig::Hcc, IntraConfig::Dragon] {
        let config = Config::Intra(scheme).with_topology(topo).unwrap();
        check(["FFT", "Water Nsq"], config);
    }
}

#[test]
fn two_block_8_core_machine_runs_the_inter_smoke_subset() {
    let topo = TopologyBuilder::new(2, 4).validate().expect("valid shape");
    for scheme in [InterConfig::AddrL, InterConfig::Hcc, InterConfig::Dragon] {
        let config = Config::Inter(scheme).with_topology(topo).unwrap();
        check(["EP", "Jacobi"], config);
    }
}

#[test]
fn eight_block_64_core_machine_runs_the_inter_smoke_subset() {
    let topo = TopologyBuilder::new(8, 8).validate().expect("valid shape");
    assert_eq!(topo.num_cores(), 64);
    for scheme in [InterConfig::Base, InterConfig::Hcc, InterConfig::Dragon] {
        let config = Config::Inter(scheme).with_topology(topo).unwrap();
        check(["EP", "Jacobi"], config);
    }
}
