//! The message-passing half of programming model 1 (paper §IV).
//!
//! "A message sender and a message receiver communicate by writing to and
//! reading from an on-chip uncacheable shared buffer. Of course, sender
//! and receiver need to synchronize ... the library needs to handle buffer
//! overflows. In communication with multiple recipients such as a
//! broadcast, there is no need to make multiple copies; the sender only
//! needs to perform a single write."
//!
//! [`MpiWorld`] allocates one mailbox per ordered rank pair plus one
//! broadcast buffer per root. Every mailbox word is accessed *only*
//! uncacheably (`LoadUnc` / `StoreUnc`), so no cached copy can go stale —
//! this is exactly why the paper routes MPI through uncacheable storage.
//! Messages longer than the mailbox capacity are chunked (the library's
//! overflow handling).

use hic_mem::{Region, Word};

use crate::builder::ProgramBuilder;
use crate::ctx::{BarrierId, ThreadCtx};

/// Mailbox status word values.
const EMPTY: Word = 0;

/// Per-ordered-pair mailbox: a status word plus a payload area.
#[derive(Debug, Clone, Copy)]
struct Mailbox {
    /// Word 0: 0 = empty, n = a chunk of n payload words is present.
    status: Region,
    payload: Region,
}

/// Communicator handles for an `n`-rank message-passing program.
///
/// Build with [`MpiWorld::new`] *before* `ProgramBuilder::run_tasks`, then move
/// (it is `Copy`-free but cheap to clone) into the thread closure.
#[derive(Debug, Clone)]
pub struct MpiWorld {
    ranks: usize,
    capacity: u64,
    /// `boxes[src * ranks + dst]`.
    boxes: Vec<Mailbox>,
    /// One broadcast payload buffer per root, plus a generation counter
    /// the readers poll.
    bcast: Vec<Mailbox>,
    /// Barrier used by collectives.
    bar: BarrierId,
}

impl MpiWorld {
    /// Allocate the communication structures for `ranks` ranks with
    /// `capacity` payload words per mailbox.
    pub fn new(p: &mut ProgramBuilder, ranks: usize, capacity: u64) -> MpiWorld {
        assert!(ranks >= 1 && capacity >= 1);
        let mut boxes = Vec::with_capacity(ranks * ranks);
        for _ in 0..ranks * ranks {
            let status = p.alloc(1);
            let payload = p.alloc(capacity);
            p.init(status, 0, EMPTY);
            boxes.push(Mailbox { status, payload });
        }
        let mut bcast = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let status = p.alloc(1);
            let payload = p.alloc(capacity);
            p.init(status, 0, EMPTY);
            bcast.push(Mailbox { status, payload });
        }
        let bar = p.barrier_of(ranks);
        MpiWorld {
            ranks,
            capacity,
            boxes,
            bcast,
            bar,
        }
    }

    pub fn ranks(&self) -> usize {
        self.ranks
    }

    fn mailbox(&self, src: usize, dst: usize) -> Mailbox {
        assert!(src < self.ranks && dst < self.ranks, "rank out of range");
        self.boxes[src * self.ranks + dst]
    }

    /// Spin (uncacheably — each poll is a shared-cache round trip, which
    /// is why real machines queue these requests in the controller) until
    /// the status word passes `pred`; returns its value.
    async fn wait_status(ctx: &ThreadCtx, status: Region, pred: impl Fn(Word) -> bool) -> Word {
        loop {
            let v = ctx.load_unc(status.at(0)).await;
            if pred(v) {
                return v;
            }
            // Back off a little between polls.
            ctx.compute(20).await;
        }
    }

    /// Blocking send: chunks `data` through the (src=me, dst) mailbox.
    pub async fn send(&self, ctx: &ThreadCtx, dst: usize, data: &[Word]) {
        let me = ctx.tid();
        assert_ne!(me, dst, "send to self");
        let mb = self.mailbox(me, dst);
        for chunk in data.chunks(self.capacity as usize) {
            // Wait until the receiver drained the previous chunk.
            Self::wait_status(ctx, mb.status, |v| v == EMPTY).await;
            for (i, w) in chunk.iter().enumerate() {
                ctx.store_unc(mb.payload.at(i as u64), *w).await;
            }
            ctx.store_unc(mb.status.at(0), chunk.len() as Word).await;
        }
    }

    /// Blocking receive of exactly `len` words from `src`.
    pub async fn recv(&self, ctx: &ThreadCtx, src: usize, len: usize) -> Vec<Word> {
        let me = ctx.tid();
        assert_ne!(me, src, "recv from self");
        let mb = self.mailbox(src, me);
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let n = Self::wait_status(ctx, mb.status, |v| v != EMPTY).await as usize;
            assert!(
                out.len() + n <= len,
                "protocol error: sender sent more than the receiver expects"
            );
            for i in 0..n {
                out.push(ctx.load_unc(mb.payload.at(i as u64)).await);
            }
            ctx.store_unc(mb.status.at(0), EMPTY).await;
        }
        out
    }

    /// Broadcast from `root`: a single write, every receiver reads the
    /// same uncacheable location (§IV: "there is no need to make multiple
    /// copies"). Message must fit the mailbox capacity.
    pub async fn bcast(&self, ctx: &ThreadCtx, root: usize, data: &mut Vec<Word>) {
        assert!(
            data.len() as u64 <= self.capacity,
            "bcast exceeds mailbox capacity"
        );
        let mb = self.bcast[root];
        if ctx.tid() == root {
            for (i, w) in data.iter().enumerate() {
                ctx.store_unc(mb.payload.at(i as u64), *w).await;
            }
            ctx.store_unc(mb.status.at(0), data.len() as Word).await;
        }
        // Everyone synchronizes, then readers pull from the single copy.
        ctx.plan_barrier(self.bar).await;
        if ctx.tid() != root {
            let n = ctx.load_unc(mb.status.at(0)).await as usize;
            data.clear();
            for i in 0..n {
                data.push(ctx.load_unc(mb.payload.at(i as u64)).await);
            }
        }
        // Leave the buffer reusable.
        ctx.plan_barrier(self.bar).await;
        if ctx.tid() == root {
            ctx.store_unc(mb.status.at(0), EMPTY).await;
        }
    }

    /// Sum-reduce one word to `root` (gather through the mailboxes).
    pub async fn reduce_sum(&self, ctx: &ThreadCtx, root: usize, value: Word) -> Option<Word> {
        if ctx.tid() == root {
            let mut acc = value;
            for src in 0..self.ranks {
                if src != root {
                    acc = acc.wrapping_add(self.recv(ctx, src, 1).await[0]);
                }
            }
            Some(acc)
        } else {
            self.send(ctx, root, &[value]).await;
            None
        }
    }

    /// Barrier over all ranks.
    pub async fn barrier(&self, ctx: &ThreadCtx) {
        ctx.plan_barrier(self.bar).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, InterConfig, IntraConfig};

    fn worlds() -> Vec<Config> {
        vec![
            Config::Intra(IntraConfig::Base),
            Config::Intra(IntraConfig::Hcc),
            Config::Inter(InterConfig::Base),
            Config::Inter(InterConfig::Hcc),
        ]
    }

    #[test]
    fn pingpong_roundtrip() {
        for cfg in worlds() {
            let mut p = ProgramBuilder::new(cfg);
            let world = MpiWorld::new(&mut p, 2, 8);
            let out = p.run_tasks(2, async move |ctx| {
                if ctx.tid() == 0 {
                    world.send(ctx, 1, &[10, 20, 30]).await;
                    let back = world.recv(ctx, 1, 3).await;
                    assert_eq!(back, vec![11, 21, 31], "under {}", cfg.name());
                } else {
                    let got = world.recv(ctx, 0, 3).await;
                    let reply: Vec<Word> = got.iter().map(|w| w + 1).collect();
                    world.send(ctx, 0, &reply).await;
                }
            });
            assert!(out.stats().total_cycles > 0);
        }
    }

    #[test]
    fn long_messages_are_chunked() {
        let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
        let world = MpiWorld::new(&mut p, 2, 4); // tiny mailbox: forces chunking
        let msg: Vec<Word> = (0..23).collect();
        let want = msg.clone();
        let out = p.run_tasks(2, async move |ctx| {
            if ctx.tid() == 0 {
                world.send(ctx, 1, &msg).await;
            } else {
                assert_eq!(world.recv(ctx, 0, 23).await, want);
            }
        });
        assert!(out.stats().total_cycles > 0);
    }

    #[test]
    fn broadcast_single_copy() {
        for cfg in [
            Config::Inter(InterConfig::Base),
            Config::Inter(InterConfig::Hcc),
        ] {
            let mut p = ProgramBuilder::new(cfg);
            let world = MpiWorld::new(&mut p, 8, 16);
            let out = p.run_tasks(8, async move |ctx| {
                let mut data = if ctx.tid() == 3 {
                    vec![7, 8, 9]
                } else {
                    Vec::new()
                };
                world.bcast(ctx, 3, &mut data).await;
                assert_eq!(
                    data,
                    vec![7, 8, 9],
                    "rank {} under {}",
                    ctx.tid(),
                    cfg.name()
                );
            });
            assert!(out.stats().total_cycles > 0);
        }
    }

    #[test]
    fn reduce_sums_all_ranks() {
        let mut p = ProgramBuilder::new(Config::Inter(InterConfig::Base));
        let world = MpiWorld::new(&mut p, 8, 4);
        let total = std::sync::atomic::AtomicU32::new(0);
        let totr = &total;
        p.run_tasks(8, async move |ctx| {
            if let Some(sum) = world.reduce_sum(ctx, 0, ctx.tid() as Word + 1).await {
                totr.store(sum, std::sync::atomic::Ordering::Relaxed);
            }
        });
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), 36); // 1+..+8
    }

    #[test]
    fn many_messages_reuse_mailboxes() {
        let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::BMI));
        let world = MpiWorld::new(&mut p, 4, 4);
        let out = p.run_tasks(4, async move |ctx| {
            // Ring: each rank sends 5 numbered messages to the next rank.
            let next = (ctx.tid() + 1) % 4;
            let prev = (ctx.tid() + 3) % 4;
            for k in 0..5u32 {
                if ctx.tid() % 2 == 0 {
                    world.send(ctx, next, &[ctx.tid() as Word * 100 + k]).await;
                    let got = world.recv(ctx, prev, 1).await;
                    assert_eq!(got[0], prev as Word * 100 + k);
                } else {
                    let got = world.recv(ctx, prev, 1).await;
                    assert_eq!(got[0], prev as Word * 100 + k);
                    world.send(ctx, next, &[ctx.tid() as Word * 100 + k]).await;
                }
            }
        });
        assert!(out.stats().total_cycles > 0);
    }
}
