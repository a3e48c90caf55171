//! Barnes — 2D Barnes-Hut N-body (SPLASH-2 Barnes analogue).
//!
//! Phases per timestep, separated by barriers:
//!
//! 1. **Tree build**: threads insert their particles into a shared
//!    quadtree; each insertion is a critical section (one tree lock), and
//!    node-pool cells written by earlier holders are consumed by later
//!    holders — the **Outside critical** pattern;
//! 2. **Force computation**: read-only tree traversal with a theta
//!    opening criterion, writing own accelerations;
//! 3. **Integration**: update own positions/velocities.
//!
//! Patterns (Table I): main **Barrier, Outside critical**; other
//! **Critical**.

use hic_mem::Region;
use hic_runtime::{ProgramBuilder, ThreadCtx};
use hic_sim::rng::SplitMix64;

use crate::{App, AppRun, PatternInfo, RunRequest, Scale, SyncPattern};

/// Node record layout inside the node pool (words):
/// 0: kind (0 empty leaf slot, 1 leaf, 2 internal)
/// 1: particle index (leaves)
/// 2..6: children (internal), u32 node indices (0 = none; node 0 is root
///       so 0 doubles as "none" safely because the root is never a child)
/// 6: mass (f32)
/// 7: com x (f32)
/// 8: com y (f32)
/// 9: cell center x (f32)
/// 10: cell center y (f32)
/// 11: cell half-size (f32)
const NODE_WORDS: u64 = 12;
const K_EMPTY: u32 = 0;
const K_LEAF: u32 = 1;
const K_INTERNAL: u32 = 2;

pub struct Barnes {
    scale: Scale,
    n: usize,
    theta: f32,
}

#[derive(Clone, Copy)]
struct Particle {
    x: f32,
    y: f32,
}

impl Barnes {
    pub fn new(scale: Scale) -> Barnes {
        let n = match scale {
            Scale::Test => 48,
            Scale::Small => 160,
            Scale::Medium => 512,
            Scale::Large => 4096,
            Scale::Paper => 16384, // the paper's 16K particles
        };
        Barnes {
            scale,
            n,
            theta: 0.6,
        }
    }

    fn particles(&self) -> Vec<Particle> {
        let mut rng = SplitMix64::new(0xBA12E5);
        (0..self.n)
            .map(|_| Particle {
                x: rng.unit_f32() * 2.0 - 1.0,
                y: rng.unit_f32() * 2.0 - 1.0,
            })
            .collect()
    }

    /// Host reference: the same quadtree algorithm with the same
    /// deterministic insertion order (threads insert chunk-by-chunk in a
    /// globally serialized order: the sim serializes insertions via the
    /// tree lock in deterministic grant order, which is request order —
    /// so the host mirrors insertion by ascending particle index *per
    /// claim sequence*). To keep host and sim trees identical, the sim
    /// inserts particles in strict global index order using a ticket
    /// scheme (see `run`), and the host does the same here.
    fn host_forces(&self, ps: &[Particle]) -> Vec<(f32, f32)> {
        let mut tree = HostTree::new();
        for (i, p) in ps.iter().enumerate() {
            tree.insert(i, p.x, p.y, ps);
        }
        tree.finalize(ps);
        ps.iter()
            .map(|p| tree.force(p.x, p.y, self.theta))
            .collect()
    }
}

/// Host-side quadtree mirroring the simulated layout/logic.
struct HostTree {
    nodes: Vec<[f32; 12]>,
}

impl HostTree {
    fn new() -> HostTree {
        let mut t = HostTree { nodes: Vec::new() };
        // Root cell covering [-2, 2]^2.
        t.alloc(0.0, 0.0, 2.0);
        t
    }

    fn alloc(&mut self, cx: f32, cy: f32, half: f32) -> usize {
        self.nodes.push([0.0; 12]);
        let id = self.nodes.len() - 1;
        self.nodes[id][0] = K_EMPTY as f32;
        self.nodes[id][9] = cx;
        self.nodes[id][10] = cy;
        self.nodes[id][11] = half;
        id
    }

    fn quadrant(cx: f32, cy: f32, x: f32, y: f32) -> usize {
        (if x >= cx { 1 } else { 0 }) + (if y >= cy { 2 } else { 0 })
    }

    fn insert(&mut self, pi: usize, x: f32, y: f32, ps: &[Particle]) {
        let mut node = 0usize;
        loop {
            let kind = self.nodes[node][0] as u32;
            match kind {
                K_EMPTY => {
                    self.nodes[node][0] = K_LEAF as f32;
                    self.nodes[node][1] = pi as f32;
                    return;
                }
                K_LEAF => {
                    // Split: push the resident particle down, retry.
                    let old = self.nodes[node][1] as usize;
                    self.nodes[node][0] = K_INTERNAL as f32;
                    let (cx, cy, h) = (
                        self.nodes[node][9],
                        self.nodes[node][10],
                        self.nodes[node][11],
                    );
                    let q = Self::quadrant(cx, cy, ps[old].x, ps[old].y);
                    let (ncx, ncy) = (
                        cx + if q & 1 != 0 { h / 2.0 } else { -h / 2.0 },
                        cy + if q & 2 != 0 { h / 2.0 } else { -h / 2.0 },
                    );
                    let child = self.alloc(ncx, ncy, h / 2.0);
                    self.nodes[node][2 + q] = child as f32;
                    self.nodes[child][0] = K_LEAF as f32;
                    self.nodes[child][1] = old as f32;
                }
                _ => {
                    let (cx, cy, h) = (
                        self.nodes[node][9],
                        self.nodes[node][10],
                        self.nodes[node][11],
                    );
                    let q = Self::quadrant(cx, cy, x, y);
                    let child = self.nodes[node][2 + q] as usize;
                    if child == 0 {
                        let (ncx, ncy) = (
                            cx + if q & 1 != 0 { h / 2.0 } else { -h / 2.0 },
                            cy + if q & 2 != 0 { h / 2.0 } else { -h / 2.0 },
                        );
                        let nc = self.alloc(ncx, ncy, h / 2.0);
                        self.nodes[node][2 + q] = nc as f32;
                        self.nodes[nc][0] = K_LEAF as f32;
                        self.nodes[nc][1] = pi as f32;
                        return;
                    }
                    node = child;
                }
            }
        }
    }

    /// Bottom-up mass/center-of-mass (iterative, highest index first —
    /// children always have higher indices than parents... they do not in
    /// general, so iterate until fixpoint over reverse topological order
    /// by repeated passes; with our allocation order children are always
    /// allocated after parents, so one reverse pass suffices).
    fn finalize(&mut self, ps: &[Particle]) {
        for i in (0..self.nodes.len()).rev() {
            match self.nodes[i][0] as u32 {
                K_LEAF => {
                    let p = self.nodes[i][1] as usize;
                    self.nodes[i][6] = 1.0;
                    self.nodes[i][7] = ps[p].x;
                    self.nodes[i][8] = ps[p].y;
                }
                K_INTERNAL => {
                    let (mut m, mut sx, mut sy) = (0.0f32, 0.0f32, 0.0f32);
                    for q in 0..4 {
                        let c = self.nodes[i][2 + q] as usize;
                        if c != 0 {
                            m += self.nodes[c][6];
                            sx += self.nodes[c][7] * self.nodes[c][6];
                            sy += self.nodes[c][8] * self.nodes[c][6];
                        }
                    }
                    self.nodes[i][6] = m;
                    if m > 0.0 {
                        self.nodes[i][7] = sx / m;
                        self.nodes[i][8] = sy / m;
                    }
                }
                _ => {}
            }
        }
    }

    fn force(&self, x: f32, y: f32, theta: f32) -> (f32, f32) {
        let (mut fx, mut fy) = (0.0f32, 0.0f32);
        let mut stack = vec![0usize];
        while let Some(n) = stack.pop() {
            let kind = self.nodes[n][0] as u32;
            if kind == K_EMPTY {
                continue;
            }
            let m = self.nodes[n][6];
            let (px, py) = (self.nodes[n][7], self.nodes[n][8]);
            let dx = px - x;
            let dy = py - y;
            let d2 = dx * dx + dy * dy + 1e-4;
            let d = d2.sqrt();
            let size = self.nodes[n][11] * 2.0;
            if kind == K_LEAF || size / d < theta {
                if d2 > 1e-4 {
                    let f = m / (d2 * d);
                    fx += f * dx;
                    fy += f * dy;
                }
            } else {
                for q in 0..4 {
                    let c = self.nodes[n][2 + q] as usize;
                    if c != 0 {
                        stack.push(c);
                    }
                }
            }
        }
        (fx, fy)
    }
}

// ----------------------------------------------------------------------
// Simulated-side tree helpers (same layout, ops through the ThreadCtx)
// ----------------------------------------------------------------------

struct SimTree {
    pool: Region,
    count: Region, // pool allocation counter (word 0)
}

impl SimTree {
    async fn nf(&self, ctx: &ThreadCtx, node: u64, w: u64) -> f32 {
        ctx.read_f32(self.pool, node * NODE_WORDS + w).await
    }
    async fn nset_f(&self, ctx: &ThreadCtx, node: u64, w: u64, v: f32) {
        ctx.write_f32(self.pool, node * NODE_WORDS + w, v).await;
    }
    async fn nu(&self, ctx: &ThreadCtx, node: u64, w: u64) -> u32 {
        ctx.read(self.pool, node * NODE_WORDS + w).await
    }
    async fn nset_u(&self, ctx: &ThreadCtx, node: u64, w: u64, v: u32) {
        ctx.write(self.pool, node * NODE_WORDS + w, v).await;
    }

    async fn alloc(&self, ctx: &ThreadCtx, cx: f32, cy: f32, half: f32) -> u64 {
        let id = ctx.read(self.count, 0).await as u64;
        ctx.write(self.count, 0, id as u32 + 1).await;
        self.nset_u(ctx, id, 0, K_EMPTY).await;
        for q in 0..4 {
            self.nset_u(ctx, id, 2 + q, 0).await;
        }
        self.nset_f(ctx, id, 9, cx).await;
        self.nset_f(ctx, id, 10, cy).await;
        self.nset_f(ctx, id, 11, half).await;
        id
    }

    /// Insert particle `pi` (position known host-side: positions are
    /// read from simulated memory by the caller). Runs inside the tree
    /// critical section.
    async fn insert(&self, ctx: &ThreadCtx, pi: u64, x: f32, y: f32, px: Region, py: Region) {
        let mut node = 0u64;
        loop {
            ctx.tick(3);
            match self.nu(ctx, node, 0).await {
                K_EMPTY => {
                    self.nset_u(ctx, node, 0, K_LEAF).await;
                    self.nset_u(ctx, node, 1, pi as u32).await;
                    return;
                }
                K_LEAF => {
                    let old = self.nu(ctx, node, 1).await as u64;
                    self.nset_u(ctx, node, 0, K_INTERNAL).await;
                    let cx = self.nf(ctx, node, 9).await;
                    let cy = self.nf(ctx, node, 10).await;
                    let h = self.nf(ctx, node, 11).await;
                    let ox = ctx.read_f32(px, old).await;
                    let oy = ctx.read_f32(py, old).await;
                    let q = HostTree::quadrant(cx, cy, ox, oy) as u64;
                    let ncx = cx + if q & 1 != 0 { h / 2.0 } else { -h / 2.0 };
                    let ncy = cy + if q & 2 != 0 { h / 2.0 } else { -h / 2.0 };
                    let child = self.alloc(ctx, ncx, ncy, h / 2.0).await;
                    self.nset_u(ctx, node, 2 + q, child as u32).await;
                    self.nset_u(ctx, child, 0, K_LEAF).await;
                    self.nset_u(ctx, child, 1, old as u32).await;
                }
                _ => {
                    let cx = self.nf(ctx, node, 9).await;
                    let cy = self.nf(ctx, node, 10).await;
                    let h = self.nf(ctx, node, 11).await;
                    let q = HostTree::quadrant(cx, cy, x, y) as u64;
                    let child = self.nu(ctx, node, 2 + q).await as u64;
                    if child == 0 {
                        let ncx = cx + if q & 1 != 0 { h / 2.0 } else { -h / 2.0 };
                        let ncy = cy + if q & 2 != 0 { h / 2.0 } else { -h / 2.0 };
                        let nc = self.alloc(ctx, ncx, ncy, h / 2.0).await;
                        self.nset_u(ctx, node, 2 + q, nc as u32).await;
                        self.nset_u(ctx, nc, 0, K_LEAF).await;
                        self.nset_u(ctx, nc, 1, pi as u32).await;
                        return;
                    }
                    node = child;
                }
            }
        }
    }
}

impl App for Barnes {
    fn name(&self) -> &'static str {
        "Barnes"
    }

    fn patterns(&self) -> PatternInfo {
        PatternInfo::new(
            &[SyncPattern::Barrier, SyncPattern::OutsideCritical],
            &[SyncPattern::Critical],
        )
    }

    fn scale(&self) -> Scale {
        self.scale
    }

    fn run_req(&self, req: &RunRequest) -> AppRun {
        let config = req.config();
        let n = self.n;
        let theta = self.theta;
        let ps = self.particles();

        let mut p = ProgramBuilder::new(config);
        p.apply_request(req);
        let nthreads = p.num_threads();
        let px = p.alloc(n as u64);
        let py = p.alloc(n as u64);
        let ax = p.alloc(n as u64);
        let ay = p.alloc(n as u64);
        // Node pool: generous upper bound on quadtree size.
        let pool = p.alloc(8 * n as u64 * NODE_WORDS);
        let count = p.alloc(1);
        let ticket = p.alloc(1);
        for (i, part) in ps.iter().enumerate() {
            p.init_f32(px, i as u64, part.x);
            p.init_f32(py, i as u64, part.y);
        }
        let tree_lock = p.lock(); // OCC: node data crosses CS boundaries
        let bar = p.barrier();

        let out = p.run_tasks(nthreads, async move |ctx| {
            let tree = SimTree { pool, count };
            let t = ctx.tid();
            // Root allocation + ticket reset by thread 0.
            if t == 0 {
                ctx.lock(tree_lock).await;
                let root = tree.alloc(ctx, 0.0, 0.0, 2.0).await;
                debug_assert_eq!(root, 0);
                ctx.write(ticket, 0, 0).await;
                ctx.unlock(tree_lock).await;
            }
            ctx.barrier(bar).await;
            // Phase 1: tree build. Insertions must happen in a globally
            // deterministic order for host comparison: a ticket inside the
            // critical section serializes particle index order.
            loop {
                ctx.lock(tree_lock).await;
                let i = ctx.read(ticket, 0).await as u64;
                if i < n as u64 {
                    ctx.write(ticket, 0, i as u32 + 1).await;
                    let x = ctx.read_f32(px, i).await;
                    let y = ctx.read_f32(py, i).await;
                    tree.insert(ctx, i, x, y, px, py).await;
                }
                ctx.unlock(tree_lock).await;
                if i >= n as u64 {
                    break;
                }
            }
            ctx.barrier(bar).await;
            // Phase 2: bottom-up mass summary, done by thread 0 (the
            // SPLASH code parallelizes this; a serial phase keeps the
            // kernel small while the communication shape — everyone then
            // reads what thread 0 wrote — is preserved by the barrier).
            if t == 0 {
                let total = ctx.read(count, 0).await as u64;
                for i in (0..total).rev() {
                    match tree.nu(ctx, i, 0).await {
                        K_LEAF => {
                            let pi = tree.nu(ctx, i, 1).await as u64;
                            tree.nset_f(ctx, i, 6, 1.0).await;
                            let vx = ctx.read_f32(px, pi).await;
                            let vy = ctx.read_f32(py, pi).await;
                            tree.nset_f(ctx, i, 7, vx).await;
                            tree.nset_f(ctx, i, 8, vy).await;
                        }
                        K_INTERNAL => {
                            let (mut m, mut sx, mut sy) = (0.0f32, 0.0f32, 0.0f32);
                            for q in 0..4 {
                                let c = tree.nu(ctx, i, 2 + q).await as u64;
                                if c != 0 {
                                    let cm = tree.nf(ctx, c, 6).await;
                                    m += cm;
                                    sx += tree.nf(ctx, c, 7).await * cm;
                                    sy += tree.nf(ctx, c, 8).await * cm;
                                }
                            }
                            tree.nset_f(ctx, i, 6, m).await;
                            if m > 0.0 {
                                tree.nset_f(ctx, i, 7, sx / m).await;
                                tree.nset_f(ctx, i, 8, sy / m).await;
                            }
                            ctx.tick(8);
                        }
                        _ => {}
                    }
                }
            }
            ctx.barrier(bar).await;
            // Phase 3: force computation over own particles.
            let chunk = n.div_ceil(ctx.nthreads());
            for i in (t * chunk) as u64..(((t + 1) * chunk).min(n)) as u64 {
                let x = ctx.read_f32(px, i).await;
                let y = ctx.read_f32(py, i).await;
                let (mut fx, mut fy) = (0.0f32, 0.0f32);
                let mut stack = vec![0u64];
                while let Some(nd) = stack.pop() {
                    let kind = tree.nu(ctx, nd, 0).await;
                    if kind == K_EMPTY {
                        continue;
                    }
                    let m = tree.nf(ctx, nd, 6).await;
                    let pxv = tree.nf(ctx, nd, 7).await;
                    let pyv = tree.nf(ctx, nd, 8).await;
                    let dx = pxv - x;
                    let dy = pyv - y;
                    let d2 = dx * dx + dy * dy + 1e-4;
                    let d = d2.sqrt();
                    let size = tree.nf(ctx, nd, 11).await * 2.0;
                    ctx.tick(12);
                    if kind == K_LEAF || size / d < theta {
                        if d2 > 1e-4 {
                            let f = m / (d2 * d);
                            fx += f * dx;
                            fy += f * dy;
                        }
                    } else {
                        for q in 0..4 {
                            let c = tree.nu(ctx, nd, 2 + q).await as u64;
                            if c != 0 {
                                stack.push(c);
                            }
                        }
                    }
                }
                ctx.write_f32(ax, i, fx).await;
                ctx.write_f32(ay, i, fy).await;
            }
            ctx.barrier(bar).await;
        });

        let want = self.host_forces(&ps);
        let mut max_err = 0.0f32;
        for i in 0..n {
            let gx = out.peek_f32(ax, i as u64);
            let gy = out.peek_f32(ay, i as u64);
            max_err = max_err
                .max((gx - want[i].0).abs())
                .max((gy - want[i].1).abs());
        }
        AppRun::finish(
            self.name(),
            config,
            &out,
            max_err <= 1e-3,
            format!("n={n}, max force error {max_err:.2e}"),
        )
    }
}
