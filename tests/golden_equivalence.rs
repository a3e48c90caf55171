//! Golden-equivalence pin: the preset topologies construct machines
//! bit-identical to the pre-`Topology` seed.
//!
//! The table below was captured from the seed implementation (before
//! `MachineConfig` grew a validated `Topology`) by running every app of
//! both suites at `Scale::Test` under every Table II configuration and
//! recording total cycles plus the six traffic-ledger categories. The
//! refactor's contract is that `Topology::intra_block()` /
//! `Topology::inter_block()` describe *exactly* the machines the seed
//! hard-coded — so every row must reproduce, cycle for cycle and flit
//! for flit, under both engines: the default one and the `Linear`
//! oracle must hit the same pins. Beyond the pins, each cell's default
//! run must equal its `Linear` run on every simulated field: per-core
//! stall ledgers, the incoherent machine's event counters, the
//! resilience ledger and the engine's op, wakeup and peak-parked counts.
//!
//! Re-pin (only when an intentional timing-model change lands): run
//!   cargo test --release --test golden_equivalence
//! A drifting test checks every cell of its suite, then fails once,
//! printing the replacement `GOLDEN` row of each drifted cell (tagged
//! with the engine that drifted); paste those rows over the old ones.

mod common;

use hic_apps::{sweep_requests, Scale};
use hic_machine::RunStats;
use hic_runtime::{RunRequest, Scheduler};

/// (app, config, total_cycles, [linefill, writeback, invalidation,
/// memory, l2l3, sync]) — captured at the seed commit.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, [u64; 6])] = &[
    ("FFT", "HCC", 14751, [13100, 4152, 6256, 320, 0, 288]),
    ("FFT", "Base", 7014, [4640, 1568, 0, 320, 0, 288]),
    ("FFT", "B+M", 7014, [4640, 1568, 0, 320, 0, 288]),
    ("FFT", "B+I", 7014, [4640, 1568, 0, 320, 0, 288]),
    ("FFT", "B+M+I", 7014, [4640, 1568, 0, 320, 0, 288]),
    ("LU cont", "HCC", 4822, [280, 71, 30, 80, 0, 384]),
    ("LU cont", "Base", 7043, [350, 140, 0, 80, 0, 384]),
    ("LU cont", "B+M", 7043, [350, 140, 0, 80, 0, 384]),
    ("LU cont", "B+I", 7043, [350, 140, 0, 80, 0, 384]),
    ("LU cont", "B+M+I", 7043, [350, 140, 0, 80, 0, 384]),
    ("LU non-cont", "HCC", 16017, [5325, 1654, 2950, 80, 0, 384]),
    ("LU non-cont", "Base", 9184, [1000, 220, 0, 80, 0, 384]),
    ("LU non-cont", "B+M", 9184, [1000, 220, 0, 80, 0, 384]),
    ("LU non-cont", "B+I", 9184, [1000, 220, 0, 80, 0, 384]),
    ("LU non-cont", "B+M+I", 9184, [1000, 220, 0, 80, 0, 384]),
    ("Cholesky", "HCC", 4258, [1415, 298, 534, 85, 0, 448]),
    ("Cholesky", "Base", 9610, [1965, 617, 0, 85, 0, 448]),
    ("Cholesky", "B+M", 9479, [1965, 617, 0, 85, 0, 448]),
    ("Cholesky", "B+I", 9598, [1965, 617, 0, 85, 0, 448]),
    ("Cholesky", "B+M+I", 9467, [1965, 617, 0, 85, 0, 448]),
    ("Barnes", "HCC", 57113, [6765, 954, 1428, 380, 0, 323]),
    ("Barnes", "Base", 55597, [7365, 849, 0, 380, 0, 323]),
    ("Barnes", "B+M", 49509, [7365, 849, 0, 380, 0, 323]),
    ("Barnes", "B+I", 56405, [7505, 869, 0, 380, 0, 323]),
    ("Barnes", "B+M+I", 50317, [7505, 869, 0, 380, 0, 323]),
    ("Raytrace", "HCC", 3463, [480, 62, 128, 100, 0, 160]),
    ("Raytrace", "Base", 5881, [480, 144, 0, 100, 0, 160]),
    ("Raytrace", "B+M", 3785, [480, 144, 0, 100, 0, 160]),
    ("Raytrace", "B+I", 7923, [480, 144, 0, 100, 0, 160]),
    ("Raytrace", "B+M+I", 3907, [480, 144, 0, 100, 0, 160]),
    ("Volrend", "HCC", 5862, [1455, 308, 438, 255, 0, 296]),
    ("Volrend", "Base", 9612, [1430, 160, 0, 255, 0, 296]),
    ("Volrend", "B+M", 6461, [1430, 160, 0, 255, 0, 296]),
    ("Volrend", "B+I", 9600, [1430, 160, 0, 255, 0, 296]),
    ("Volrend", "B+M+I", 6443, [1430, 160, 0, 255, 0, 296]),
    ("Ocean cont", "HCC", 3334, [645, 66, 186, 185, 0, 224]),
    ("Ocean cont", "Base", 6448, [810, 122, 0, 185, 0, 224]),
    ("Ocean cont", "B+M", 4967, [810, 122, 0, 185, 0, 224]),
    ("Ocean cont", "B+I", 8912, [810, 122, 0, 185, 0, 224]),
    ("Ocean cont", "B+M+I", 4955, [810, 122, 0, 185, 0, 224]),
    ("Ocean non-cont", "HCC", 3561, [1160, 277, 410, 120, 0, 224]),
    ("Ocean non-cont", "Base", 5946, [850, 148, 0, 120, 0, 224]),
    ("Ocean non-cont", "B+M", 4834, [850, 148, 0, 120, 0, 224]),
    ("Ocean non-cont", "B+I", 8846, [850, 148, 0, 120, 0, 224]),
    ("Ocean non-cont", "B+M+I", 4826, [850, 148, 0, 120, 0, 224]),
    ("Water Nsq", "HCC", 4040, [1125, 164, 442, 215, 0, 144]),
    ("Water Nsq", "Base", 5349, [985, 178, 0, 215, 0, 144]),
    ("Water Nsq", "B+M", 3825, [985, 178, 0, 215, 0, 144]),
    ("Water Nsq", "B+I", 5351, [985, 178, 0, 215, 0, 144]),
    ("Water Nsq", "B+M+I", 3819, [985, 178, 0, 215, 0, 144]),
    ("Water Spatial", "HCC", 1685, [1580, 268, 616, 60, 0, 64]),
    ("Water Spatial", "Base", 1517, [1020, 144, 0, 60, 0, 64]),
    ("Water Spatial", "B+M", 1517, [1020, 144, 0, 60, 0, 64]),
    ("Water Spatial", "B+I", 1517, [1020, 144, 0, 60, 0, 64]),
    ("Water Spatial", "B+M+I", 1517, [1020, 144, 0, 60, 0, 64]),
    ("EP", "HCC", 17368, [325, 190, 326, 10, 323, 160]),
    ("EP", "Base", 36056, [325, 192, 0, 10, 517, 160]),
    ("EP", "Addr", 35987, [325, 192, 0, 10, 517, 160]),
    ("EP", "Addr+L", 35987, [325, 192, 0, 10, 517, 160]),
    ("IS", "HCC", 15849, [6665, 707, 1438, 325, 2415, 224]),
    ("IS", "Base", 41996, [6755, 650, 0, 325, 2105, 224]),
    ("IS", "Addr", 41133, [6755, 650, 0, 325, 2075, 224]),
    ("IS", "Addr+L", 41133, [6755, 650, 0, 325, 2075, 224]),
    ("CG", "HCC", 9875, [8725, 1656, 3968, 360, 1434, 1152]),
    ("CG", "Base", 20595, [8355, 968, 0, 360, 2683, 1152]),
    ("CG", "Addr", 5659, [3240, 522, 0, 360, 1362, 1152]),
    ("CG", "Addr+L", 5645, [3240, 522, 0, 360, 1342, 1152]),
    ("Jacobi", "HCC", 2967, [1580, 480, 676, 340, 550, 320]),
    ("Jacobi", "Base", 6371, [2560, 640, 0, 340, 2080, 320]),
    ("Jacobi", "Addr", 2850, [1580, 640, 0, 340, 1595, 320]),
    ("Jacobi", "Addr+L", 2616, [1580, 640, 0, 340, 710, 320]),
];

fn golden_row(app: &str, cfg: &str) -> &'static (&'static str, &'static str, u64, [u64; 6]) {
    GOLDEN
        .iter()
        .find(|(a, c, _, _)| *a == app && *c == cfg)
        .unwrap_or_else(|| panic!("no golden row for {app} / {cfg}"))
}

/// Every simulated field of a run: cycles, stall ledgers, traffic, the
/// incoherent machine's event counters, the resilience ledger and the
/// simulated part of the engine ledger (suspensions and inline ops are
/// host-side and legitimately differ between engines).
fn simulated(s: &RunStats) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        s.total_cycles,
        &s.ledgers,
        s.traffic,
        s.counters,
        s.resilience,
        (
            s.engine.ops_executed,
            s.engine.wakeups,
            s.engine.peak_parked,
        ),
    )
}

/// Run every grid cell of one suite (intra- or inter-block) under both
/// engines, compare each run with its pin, and the default engine's run
/// with the oracle's on every simulated field. Fails once, after every
/// cell ran, listing the replacement row of each drifted cell and every
/// cell whose engines disagree.
fn check_suite(intra: bool) {
    let mut drifted = Vec::new();
    let mut diverged = Vec::new();
    for cell in sweep_requests(Scale::Test)
        .into_iter()
        .filter(|c| c.config.intra().is_some() == intra)
    {
        let cfg = cell.config.name();
        let [default, linear] = [Scheduler::Default, Scheduler::Linear].map(|engine| {
            let req = RunRequest {
                engine,
                ..cell.clone()
            };
            let r = common::run(&req);
            assert!(r.correct, "{}: {}", req.cache_key(), r.detail);
            let t = r.stats.traffic;
            let got = (
                r.stats.total_cycles,
                [
                    t.linefill,
                    t.writeback,
                    t.invalidation,
                    t.memory,
                    t.l2l3,
                    t.sync,
                ],
            );
            let (_, _, cycles, traffic) = golden_row(&req.app, cfg);
            if got != (*cycles, *traffic) {
                drifted.push(format!(
                    "    (\"{}\", \"{cfg}\", {}, {:?}), // engine={}",
                    req.app,
                    got.0,
                    got.1,
                    engine.name()
                ));
            }
            r.stats
        });
        if simulated(&default) != simulated(&linear) {
            diverged.push(format!(
                "{} / {cfg}:\n  default {:?}\n  linear  {:?}",
                cell.app,
                simulated(&default),
                simulated(&linear)
            ));
        }
    }
    assert!(
        drifted.is_empty() && diverged.is_empty(),
        "{} cells drifted from the seed's cycles or \
         [linefill, writeback, invalidation, memory, l2l3, sync] traffic; \
         replacement GOLDEN rows:\n{}\n{} cells ran differently under the \
         default engine and the Linear oracle:\n{}",
        drifted.len(),
        drifted.join("\n"),
        diverged.len(),
        diverged.join("\n")
    );
}

/// Every intra app under every Table II intra config reproduces the
/// seed's cycles and traffic exactly.
#[test]
fn intra_suite_matches_seed_golden_data() {
    check_suite(true);
}

/// Every inter app under every Table II inter config reproduces the
/// seed's cycles and traffic exactly.
#[test]
fn inter_suite_matches_seed_golden_data() {
    check_suite(false);
}

/// The golden table pins exactly the paper grid: one row per cell
/// (11 intra apps x 5 configs + 4 inter apps x 4 configs).
#[test]
fn golden_table_is_complete() {
    let cells = sweep_requests(Scale::Test);
    assert_eq!(GOLDEN.len(), 11 * 5 + 4 * 4);
    assert_eq!(GOLDEN.len(), cells.len());
    for cell in &cells {
        golden_row(&cell.app, cell.config.name());
    }
}
