//! Property test for how ops travel from a core's task to the engine:
//! running an op inline is a pure host-side optimization. The default
//! engine runs a core's op in place while the core holds the smallest
//! `(time, core)` key, or when the op is private (an L1 hit or a
//! compute, which commutes with every other core's op); the `Linear`
//! oracle suspends the core before every op and resumes it only when
//! the loop picks it. For any program
//! both must produce bit-identical simulated results — total cycles,
//! stall ledgers, traffic, the op stream and readable memory — and only
//! the host-side suspension count may differ, never in the oracle's
//! favour.
//!
//! The generator (`tests/common/scripts.rs`) emits deadlock-free
//! programs by construction.
//!
//! Randomized with the deterministic in-repo `SplitMix64` (fixed seeds).

#[path = "common/scripts.rs"]
mod scripts;

use hic_runtime::{IntraConfig, Scheduler};
use hic_sim::SplitMix64;
use scripts::{gen_script, run_script};

/// Inline and suspend-before-every-op delivery agree on every simulated
/// quantity and on readable memory for every intra config; inline
/// delivery never adds messages or suspensions, and it does skip the
/// suspension for some ops on these programs.
#[test]
fn transports_are_observationally_identical() {
    let mut rng = SplitMix64::new(0x7247);
    let mut inline_ops = 0;
    for case in 0..6 {
        let script = gen_script(&mut rng);
        for cfg in IntraConfig::ALL {
            let [(sync, sync_mem), (inline, inline_mem)] = [Scheduler::Linear, Scheduler::Default]
                .map(|engine| {
                    run_script(cfg, &script, |p| {
                        p.scheduler(engine);
                    })
                });
            let tag = format!("case {case}, {}", cfg.name());
            assert_eq!(sync.engine.batches, 0, "{tag}: the oracle batched");
            assert_eq!(
                sync.engine.messages, sync.engine.ops_executed,
                "{tag}: the oracle sends one op per message"
            );
            assert_eq!(
                sync.engine.round_trips, sync.engine.ops_executed,
                "{tag}: the oracle suspends before every op"
            );
            assert_eq!(
                inline.total_cycles, sync.total_cycles,
                "{tag}: inline delivery changed simulated time"
            );
            assert_eq!(
                inline.ledgers, sync.ledgers,
                "{tag}: inline delivery changed stall ledgers"
            );
            assert_eq!(
                inline.traffic, sync.traffic,
                "{tag}: inline delivery changed traffic"
            );
            assert_eq!(
                inline.engine.ops_executed, sync.engine.ops_executed,
                "{tag}: inline delivery changed the op stream"
            );
            assert_eq!(inline_mem, sync_mem, "{tag}: readable memory changed");
            assert!(
                inline.engine.messages <= sync.engine.messages,
                "{tag}: inline delivery must never add messages"
            );
            assert!(
                inline.engine.round_trips <= sync.engine.round_trips,
                "{tag}: inline delivery must never add suspensions"
            );
            inline_ops += inline.engine.shard_local_ops;
        }
    }
    assert!(inline_ops > 0, "no op was ever run inline");
}
