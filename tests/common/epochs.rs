//! Random epoch-structured data-race-free programs, shared by
//! `prop_epochs` and `prop_dragon`: each epoch assigns every word of a
//! small shared array at most one writer thread; every thread then reads
//! all words *not* written in the current epoch and checks them against
//! a host-side model.

use hic_runtime::ProgramBuilder;
use hic_sim::SplitMix64;

/// Words in the shared array.
const WORDS: usize = 48;

#[derive(Debug, Clone)]
pub struct EpochProgram {
    threads: usize,
    /// `writers[e][w]` = thread writing word `w` in epoch `e`, if any.
    writers: Vec<Vec<Option<u8>>>,
}

pub fn gen_program(rng: &mut SplitMix64, threads: usize) -> EpochProgram {
    let epochs = 2 + rng.below(2);
    let writers = (0..epochs)
        .map(|_| {
            (0..WORDS)
                .map(|_| {
                    // Each word gets a writer with probability 0.4.
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

/// The value thread `t` writes to word `w` in epoch `e`.
fn value(e: usize, t: u8, w: usize) -> u32 {
    (e as u32 + 1) * 100_000 + (t as u32) * 1000 + w as u32
}

/// Expected value of each word after each epoch.
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
pub fn run_on(mut p: ProgramBuilder, label: &str, prog: &EpochProgram) -> Vec<u32> {
    let threads = prog.threads;
    let data = p.alloc(WORDS as u64);
    let bar = p.barrier_of(threads);
    let writers = prog.writers.clone();

    let model = std::sync::Arc::new(host_model(prog));
    let model2 = std::sync::Arc::clone(&model);
    let label2 = label.to_string();

    let out = p.run_tasks(threads, async move |ctx| {
        for (e, epoch) in writers.iter().enumerate() {
            // Read phase: everything stable in this epoch must equal the
            // model state after epoch e-1.
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
            // Write phase: own words only (data-race free by construction).
            for (w, wr) in epoch.iter().enumerate() {
                if *wr == Some(ctx.tid() as u8) {
                    ctx.write(data, w as u64, value(e, ctx.tid() as u8, w))
                        .await;
                }
            }
            ctx.barrier(bar).await;
        }
    });

    // Final state must match the model everywhere.
    let last = model.last().unwrap();
    let mut finals = Vec::with_capacity(WORDS);
    for (w, want) in last.iter().enumerate() {
        let got = out.peek(data, w as u64);
        assert_eq!(got, *want, "final word {w} under {label}");
        finals.push(got);
    }
    finals
}
