//! Timing and traffic pins for both directory protocols.
//!
//! One fixed `SplitMix64` op stream runs through MESI and Dragon on four
//! machines: the paper's intra- and inter-block machines and the tiny
//! flat and hierarchical machines, whose caches evict at every level.
//! Each row pins the op count, the sum of access latencies, a 64-bit
//! digest of the (value, latency) sequence, and every traffic-ledger
//! category. The paper-grid golden pins (`tests/golden_equivalence.rs`)
//! cover MESI only, never run Dragon, and never evict from L2 or L3;
//! these rows do.
//!
//! Re-pin (only when an intentional timing-model change lands): run
//!   cargo test --release -p hic-coherence --test protocol_pins
//! A drift fails once, printing the replacement `PINS` row of each
//! drifted cell; paste those rows over the old ones.

mod common;

use common::{gen_conflict_op, tiny_flat, tiny_hier, Op, Protocol};
use hic_coherence::{DragonSystem, MesiSystem};
use hic_mem::WordAddr;
use hic_sim::{CoreId, MachineConfig, SplitMix64};

/// Ops per (protocol, machine) cell.
const OPS: u64 = 5000;

/// (protocol, machine, ops, latency sum, digest, [linefill, writeback,
/// invalidation, memory, l2l3, sync]).
type Pin = (&'static str, &'static str, u64, u64, u64, [u64; 6]);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("MESI", "intra_block", 5000, 369208, 0xe09cbb8067df972d, [22905, 5056, 11348, 6542, 0, 0]),
    ("MESI", "inter_block", 5000, 774083, 0xd50d8098dd80f277, [23935, 5118, 21310, 6651, 22581, 0]),
    ("MESI", "tiny_flat", 5000, 522804, 0x1dd14b4f31e69651, [23180, 5978, 6586, 17134, 0, 0]),
    ("MESI", "tiny_hier", 5000, 541083, 0xc69b1ca913e5cf92, [23375, 5925, 13212, 11477, 21033, 0]),
    ("Dragon", "intra_block", 5000, 374868, 0xbbee6c56943651b1, [13345, 6314, 42924, 6714, 0, 0]),
    ("Dragon", "inter_block", 5000, 672802, 0x912a1725747ed669, [14510, 2377, 88984, 6656, 15150, 0]),
    ("Dragon", "tiny_flat", 5000, 525253, 0xdb516faa3b4d824e, [22945, 10375, 7586, 17089, 0, 0]),
    ("Dragon", "tiny_hier", 5000, 531906, 0x9d0086c715110721, [23000, 7335, 14822, 11515, 19031, 0]),
];

fn machines() -> [(&'static str, MachineConfig); 4] {
    [
        ("intra_block", MachineConfig::intra_block()),
        ("inter_block", MachineConfig::inter_block()),
        ("tiny_flat", tiny_flat()),
        ("tiny_hier", tiny_hier()),
    ]
}

/// FNV-1a step over one 64-bit value.
fn fold(digest: u64, x: u64) -> u64 {
    x.to_le_bytes().iter().fold(digest, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run the op stream through `P` on `cfg`; the row this cell pins.
fn measure<P: Protocol>(cfg: MachineConfig) -> (u64, u64, u64, [u64; 6]) {
    let mut m = P::build(cfg);
    let mut rng = SplitMix64::new(0x9175);
    let (mut latency, mut digest) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for _ in 0..OPS {
        let (value, lat) = match gen_conflict_op(&mut rng, cfg.num_cores()) {
            Op::Read { core, word } => m.read(CoreId(core), WordAddr(word)),
            Op::Write { core, word, value } => (0, m.write(CoreId(core), WordAddr(word), value)),
        };
        latency += lat;
        digest = fold(fold(digest, value as u64), lat);
    }
    let t = m.ledger();
    (
        OPS,
        latency,
        digest,
        [
            t.linefill,
            t.writeback,
            t.invalidation,
            t.memory,
            t.l2l3,
            t.sync,
        ],
    )
}

fn check<P: Protocol>(drifted: &mut Vec<String>) {
    for (machine, cfg) in machines() {
        let got = measure::<P>(cfg);
        let pinned = PINS
            .iter()
            .find(|(p, m, ..)| *p == P::NAME && *m == machine)
            .map(|&(_, _, ops, lat, digest, traffic)| (ops, lat, digest, traffic));
        if pinned != Some(got) {
            let (ops, lat, digest, traffic) = got;
            drifted.push(format!(
                "    (\"{}\", \"{machine}\", {ops}, {lat}, {digest:#018x}, {traffic:?}),",
                P::NAME
            ));
        }
    }
}

/// Every (protocol, machine) cell reproduces its pinned latencies,
/// values and traffic exactly.
#[test]
fn protocols_match_their_timing_and_traffic_pins() {
    let mut drifted = Vec::new();
    check::<MesiSystem>(&mut drifted);
    check::<DragonSystem>(&mut drifted);
    assert!(
        drifted.is_empty(),
        "{} cells drifted from their pinned (ops, latency sum, digest, \
         [linefill, writeback, invalidation, memory, l2l3, sync]); \
         replacement PINS rows:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
    assert_eq!(PINS.len(), 2 * machines().len());
}
