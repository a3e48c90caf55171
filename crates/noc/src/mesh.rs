//! 2D-mesh geometry and XY-routing hop computation.
//!
//! Tiles are laid out row-major on the smallest square-ish grid that fits
//! all cores. Each core tile hosts its private L1 plus one bank of the
//! shared cache (L2 banks are per-core in the paper's intra-block machine).
//! Memory controllers and L3 banks sit at the four corners ("connected to
//! each chip corner", Table III).

use crate::faults::LinkFaults;

/// A position on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tile {
    pub x: usize,
    pub y: usize,
}

impl Tile {
    /// Manhattan distance (number of XY-routed hops) to another tile.
    #[inline]
    pub fn hops_to(self, other: Tile) -> u64 {
        (self.x.abs_diff(other.x) + self.y.abs_diff(other.y)) as u64
    }
}

/// A 2D mesh hosting `n` core tiles.
///
/// With [`Mesh::set_faults`] installed, every latency query is perturbed
/// by the seeded [`LinkFaults`] model (the no-faults path is untouched).
#[derive(Debug, Clone)]
pub struct Mesh {
    cols: usize,
    rows: usize,
    n_tiles: usize,
    hop_cycles: u64,
    faults: Option<LinkFaults>,
}

impl Mesh {
    /// Build a mesh for `n` cores on the smallest square-ish grid that
    /// fits them. Machines should use [`Mesh::for_config`] instead, which
    /// honors the topology's explicit dimensions; this inference helper
    /// remains for tests and ad-hoc meshes.
    pub fn new(n: usize, hop_cycles: u64) -> Mesh {
        assert!(n > 0);
        let cols = (n as f64).sqrt().ceil() as usize;
        Mesh::with_dims(cols, n.div_ceil(cols), n, hop_cycles)
    }

    /// Build a mesh with explicit dimensions hosting `n` core tiles.
    pub fn with_dims(cols: usize, rows: usize, n: usize, hop_cycles: u64) -> Mesh {
        assert!(n > 0, "mesh needs at least one tile");
        assert!(cols * rows >= n, "{cols}x{rows} mesh cannot host {n} tiles");
        Mesh {
            cols,
            rows,
            n_tiles: n,
            hop_cycles,
            faults: None,
        }
    }

    /// The mesh a machine configuration describes: the topology's
    /// explicit (validated) dimensions, never inferred from core count.
    pub fn for_config(cfg: &hic_sim::MachineConfig) -> Mesh {
        let (cols, rows) = cfg.topology.mesh_dims();
        Mesh::with_dims(cols, rows, cfg.num_cores(), cfg.hop_cycles)
    }

    /// Install a seeded link-fault model. All subsequent latency queries
    /// are perturbed deterministically; traversal counters start at zero.
    pub fn set_faults(&mut self, mut faults: LinkFaults) {
        faults.size_for(self.key_stride() * self.key_stride());
        self.faults = Some(faults);
    }

    /// Directed-link key space: tiles `0..n_tiles` plus the four corners
    /// mapped to `n_tiles..n_tiles+4`.
    fn key_stride(&self) -> usize {
        self.n_tiles + 4
    }

    /// Fault perturbation for one traversal of the directed link from
    /// endpoint key `a` to endpoint key `b` with fault-free latency `base`.
    #[inline]
    fn perturb(&self, a: usize, b: usize, base: u64) -> u64 {
        match &self.faults {
            None => base,
            Some(f) => base + f.extra(a * self.key_stride() + b, base),
        }
    }

    /// Grid dimensions (columns, rows).
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Tile of core / bank `i` (row-major placement).
    pub fn tile(&self, i: usize) -> Tile {
        assert!(i < self.n_tiles, "tile index {i} out of {}", self.n_tiles);
        Tile {
            x: i % self.cols,
            y: i / self.cols,
        }
    }

    /// Tile of one of the four corners, indexed 0..4
    /// (NW, NE, SW, SE). Memory controllers and L3 banks live here.
    pub fn corner(&self, i: usize) -> Tile {
        match i % 4 {
            0 => Tile { x: 0, y: 0 },
            1 => Tile {
                x: self.cols - 1,
                y: 0,
            },
            2 => Tile {
                x: 0,
                y: self.rows - 1,
            },
            _ => Tile {
                x: self.cols - 1,
                y: self.rows - 1,
            },
        }
    }

    /// One-way hop count between two core tiles.
    pub fn hops(&self, a: usize, b: usize) -> u64 {
        self.tile(a).hops_to(self.tile(b))
    }

    /// One-way latency between two core tiles, cycles.
    pub fn latency(&self, a: usize, b: usize) -> u64 {
        self.perturb(a, b, self.hops(a, b) * self.hop_cycles)
    }

    /// Round-trip latency between two core tiles, cycles. The two legs
    /// are perturbed independently (a request and its reply traverse the
    /// directed links `a->b` and `b->a`).
    pub fn rt_latency(&self, a: usize, b: usize) -> u64 {
        self.latency(a, b) + self.latency(b, a)
    }

    /// One-way latency from core tile `a` to corner `c`, cycles.
    pub fn latency_to_corner(&self, a: usize, c: usize) -> u64 {
        let base = self.tile(a).hops_to(self.corner(c)) * self.hop_cycles;
        self.perturb(a, self.n_tiles + c % 4, base)
    }

    /// Round-trip latency from core tile `a` to corner `c`, cycles.
    pub fn rt_latency_to_corner(&self, a: usize, c: usize) -> u64 {
        let base = self.tile(a).hops_to(self.corner(c)) * self.hop_cycles;
        self.perturb(a, self.n_tiles + c % 4, base) + self.perturb(self.n_tiles + c % 4, a, base)
    }

    /// The nearest corner to a core tile (a request picks the closest
    /// memory controller).
    pub fn nearest_corner(&self, a: usize) -> usize {
        (0..4)
            .min_by_key(|&c| self.tile(a).hops_to(self.corner(c)))
            .expect("four corners")
    }

    pub fn hop_cycles(&self) -> u64 {
        self.hop_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_cores_make_a_4x4_grid() {
        let m = Mesh::new(16, 4);
        assert_eq!(m.dims(), (4, 4));
        assert_eq!(m.tile(0), Tile { x: 0, y: 0 });
        assert_eq!(m.tile(5), Tile { x: 1, y: 1 });
        assert_eq!(m.tile(15), Tile { x: 3, y: 3 });
    }

    #[test]
    fn eight_cores_make_a_3x3ish_grid() {
        let m = Mesh::new(8, 4);
        let (c, r) = m.dims();
        assert!(c * r >= 8);
        assert_eq!(c, 3);
    }

    #[test]
    fn local_tile_has_zero_network_latency() {
        let m = Mesh::new(16, 4);
        assert_eq!(m.rt_latency(5, 5), 0);
    }

    #[test]
    fn hop_latency_is_manhattan_times_hop_cycles() {
        let m = Mesh::new(16, 4);
        // Tile 0 = (0,0), tile 15 = (3,3): 6 hops each way.
        assert_eq!(m.hops(0, 15), 6);
        assert_eq!(m.latency(0, 15), 24);
        assert_eq!(m.rt_latency(0, 15), 48);
        // Symmetric.
        assert_eq!(m.rt_latency(15, 0), 48);
    }

    #[test]
    fn corners_are_distinct_on_4x4() {
        let m = Mesh::new(16, 4);
        let corners: std::collections::HashSet<_> = (0..4).map(|i| m.corner(i)).collect();
        assert_eq!(corners.len(), 4);
    }

    #[test]
    fn nearest_corner_for_corner_tile_is_itself() {
        let m = Mesh::new(16, 4);
        assert_eq!(m.corner(m.nearest_corner(0)), m.tile(0));
        // Tile 15 = (3,3) = SE corner.
        assert_eq!(m.corner(m.nearest_corner(15)), m.tile(15));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn tile_out_of_range_panics() {
        Mesh::new(4, 4).tile(4);
    }

    #[test]
    fn installed_faults_only_add_latency() {
        let mut m = Mesh::new(16, 4);
        let base: Vec<u64> = (0..16).map(|t| m.rt_latency(0, t)).collect();
        m.set_faults(LinkFaults::new(3, 5, 0, 0, 1));
        let faulted: Vec<u64> = (0..16).map(|t| m.rt_latency(0, t)).collect();
        for (b, f) in base.iter().zip(&faulted) {
            assert!(f >= b, "faults must never make a link faster");
        }
        assert!(
            base.iter().zip(&faulted).any(|(b, f)| f > b),
            "a nonzero jitter plan must perturb some link"
        );
        // Local accesses stay free.
        assert_eq!(m.rt_latency(5, 5), 0);
    }

    #[test]
    fn zero_amplitude_faults_are_latency_identical() {
        let mut m = Mesh::new(16, 4);
        let base: Vec<u64> = (0..16)
            .flat_map(|a| (0..16).map(move |b| (a, b)))
            .map(|(a, b)| m.rt_latency(a, b))
            .collect();
        m.set_faults(LinkFaults::new(9, 0, 0, 0, 1));
        let zeroed: Vec<u64> = (0..16)
            .flat_map(|a| (0..16).map(move |b| (a, b)))
            .map(|(a, b)| m.rt_latency(a, b))
            .collect();
        assert_eq!(base, zeroed);
        assert_eq!(m.rt_latency_to_corner(5, 3), 2 * m.latency_to_corner(5, 3));
    }
}
