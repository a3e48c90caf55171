//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * **MEB capacity** — the paper picks 16 entries (§IV-B1); the sweep
//!   shows where overflow makes the buffer ineffective;
//! * **IEB capacity** — the paper picks 4 entries (§IV-B2); the sweep
//!   shows the thrashing regime for larger critical sections;
//! * **mesh hop latency** — how sensitive the incoherent-vs-HCC gap is to
//!   NoC speed.
//!
//! Each study runs a synthetic critical-section workload (the task-queue
//! shape of §IV-A1, the pattern the buffers were designed for) on a
//! machine whose parameter is swept, and reports simulated cycles.

use hic_runtime::{Config, IntraConfig, ProgramBuilder};
use hic_sim::MachineConfig;

/// One point of a sweep.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    pub parameter: u64,
    pub cycles: u64,
    /// How many WB ALLs the MEB actually served / overflowed on.
    pub meb_drains: u64,
    pub meb_overflows: u64,
    pub ieb_refreshes: u64,
}

/// The synthetic workload: `jobs` critical sections, each writing
/// `lines_per_cs` distinct lines and reading the queue head, with light
/// compute outside — a distilled Raytrace/task-queue shape.
fn cs_workload(config: Config, mc: MachineConfig, jobs: u32, lines_per_cs: u64) -> AblationPoint {
    let mut p = ProgramBuilder::with_machine_config(config, mc);
    let nthreads = p.num_threads();
    let next = p.alloc(1);
    let scratch = p.alloc(64 * 16); // plenty of distinct lines
    let l = p.lock_occ(false);
    let bar = p.barrier();
    let out = p.run_tasks(nthreads, async move |ctx| {
        ctx.barrier(bar).await;
        loop {
            ctx.lock(l).await;
            let j = ctx.read(next, 0).await;
            if j < jobs {
                ctx.write(next, 0, j + 1).await;
                // Read then write `lines_per_cs` distinct lines inside
                // the CS (reads exercise the IEB, writes the MEB), and
                // read them once more: the second pass hits the IEB only
                // if the lines still fit — capacity evictions force
                // unnecessary refreshes (§IV-B2).
                for k in 0..lines_per_cs {
                    let cur = ctx.read(scratch, (k * 16) % scratch.words).await;
                    ctx.write(scratch, (k * 16) % scratch.words, cur.wrapping_add(j))
                        .await;
                }
                let mut check = 0u32;
                for k in 0..lines_per_cs {
                    check ^= ctx.read(scratch, (k * 16 + 4) % scratch.words).await;
                }
                ctx.tick(check as u64 & 1);
            }
            ctx.unlock(l).await;
            if j >= jobs {
                break;
            }
            ctx.compute(150).await;
        }
        ctx.barrier(bar).await;
    });
    AblationPoint {
        parameter: 0,
        cycles: out.stats().total_cycles,
        meb_drains: out.stats().counters.meb_drains,
        meb_overflows: out.stats().counters.meb_overflows,
        ieb_refreshes: out.stats().counters.ieb_refreshes,
    }
}

/// Sweep the MEB capacity under `B+M` with critical sections writing
/// `lines_per_cs` lines. Past the capacity, every `WB ALL` falls back to
/// the full traversal and the benefit disappears.
pub fn meb_capacity_sweep(lines_per_cs: u64) -> Vec<AblationPoint> {
    [1usize, 2, 4, 8, 16, 32, 64]
        .iter()
        .map(|&entries| {
            let mut mc = MachineConfig::intra_block();
            mc.meb_entries = entries;
            let mut pt = cs_workload(Config::Intra(IntraConfig::BM), mc, 64, lines_per_cs);
            pt.parameter = entries as u64;
            pt
        })
        .collect()
}

/// Sweep the IEB capacity under `B+I`. Too small and first reads of the
/// critical section's lines keep re-refreshing (evictions).
pub fn ieb_capacity_sweep(lines_per_cs: u64) -> Vec<AblationPoint> {
    [1usize, 2, 4, 8, 16, 32]
        .iter()
        .map(|&entries| {
            let mut mc = MachineConfig::intra_block();
            mc.ieb_entries = entries;
            let mut pt = cs_workload(Config::Intra(IntraConfig::BI), mc, 64, lines_per_cs);
            pt.parameter = entries as u64;
            pt
        })
        .collect()
}

/// Sweep the mesh hop latency for Base vs HCC: the incoherent machine's
/// overhead is mostly local (traversals, refetch misses), so a slower NoC
/// narrows the relative gap.
pub fn hop_latency_sweep() -> Vec<(u64, u64, u64)> {
    [1u64, 2, 4, 8, 16]
        .iter()
        .map(|&hop| {
            let mut mc = MachineConfig::intra_block();
            mc.hop_cycles = hop;
            let base = cs_workload(Config::Intra(IntraConfig::Base), mc, 64, 4).cycles;
            let hcc = cs_workload(Config::Intra(IntraConfig::Hcc), mc, 64, 4).cycles;
            (hop, base, hcc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meb_sweep_shows_overflow_cliff() {
        // 8 scratch lines + the queue-head line are written per CS:
        // capacities <= 8 overflow, capacities >= 16 never do.
        let pts = meb_capacity_sweep(8);
        let small: Vec<_> = pts.iter().filter(|p| p.parameter <= 8).collect();
        let large: Vec<_> = pts.iter().filter(|p| p.parameter >= 16).collect();
        assert!(small.iter().all(|p| p.meb_overflows > 0), "{small:?}");
        assert!(large.iter().all(|p| p.meb_overflows == 0), "{large:?}");
        // And a big-enough MEB is no slower than an overflowing one.
        let worst_small = small.iter().map(|p| p.cycles).max().unwrap();
        let best_large = large.iter().map(|p| p.cycles).min().unwrap();
        assert!(best_large <= worst_small);
    }

    #[test]
    fn ieb_sweep_refresh_counts_decrease_with_capacity() {
        let pts = ieb_capacity_sweep(8);
        let first = pts.first().unwrap().ieb_refreshes;
        let last = pts.last().unwrap().ieb_refreshes;
        assert!(
            last <= first,
            "bigger IEB must not refresh more ({first} -> {last})"
        );
    }

    #[test]
    fn hop_sweep_is_monotone_in_latency() {
        let pts = hop_latency_sweep();
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1, "Base cycles must grow with hop latency");
            assert!(w[1].2 >= w[0].2, "HCC cycles must grow with hop latency");
        }
    }
}
