//! Architecture configuration: machine geometry as a first-class,
//! validated parameter.
//!
//! The centerpiece is [`Topology`]: how many blocks, how many cores per
//! block, the explicit mesh dimensions, the L2 banking, and the optional
//! shared L3 ([`SharedL3`]) that multi-block machines require. A
//! `Topology` can only be obtained through [`TopologyBuilder::validate`],
//! so every constructed value is internally consistent — downstream code
//! never re-checks shapes or panics mid-run.
//!
//! Two canonical machines from paper Table III are provided as presets:
//!
//! * [`MachineConfig::intra_block`] — 16 cores in one block: private L1s
//!   and a banked shared L2 (one bank per core), used for the intra-block
//!   experiments (paper §VI upper half of Table III).
//! * [`MachineConfig::inter_block`] — 4 blocks of 8 cores: per-block L2
//!   plus a shared 4-bank L3, used for the inter-block experiments.
//!
//! All latencies are round trips ("RT" in the paper) in core cycles.

/// Word size in bytes — the finest sharing grain. 4 bytes gives the
/// paper's 16 per-word dirty bits per 64-byte line (§VII-A).
pub const WORD_BYTES: u64 = 4;

/// Words per cache line. Fixed at compile time because per-line word
/// arrays and dirty masks throughout the simulator are sized by it; any
/// [`CacheGeometry`] whose `line_bytes` disagrees with
/// `WORD_BYTES * WORDS_PER_LINE` is rejected at validation.
pub const WORDS_PER_LINE: usize = 16;

/// The one line size every cache level must use (64 bytes).
#[inline]
pub const fn line_bytes() -> usize {
    WORD_BYTES as usize * WORDS_PER_LINE
}

/// Geometry of one cache (or one bank of a banked cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes (per bank for banked caches).
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheGeometry {
    /// Number of lines this cache can hold.
    #[inline]
    pub fn num_lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }

    /// Number of sets.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.num_lines() / self.ways
    }

    /// Words per line given the machine word size.
    #[inline]
    pub fn words_per_line(&self, word_bytes: usize) -> usize {
        self.line_bytes / word_bytes
    }

    /// Bits needed to name a line by its index within this cache
    /// (the MEB stores line IDs of this width, paper §IV-B1).
    pub fn line_id_bits(&self) -> u32 {
        usize::BITS - (self.num_lines() - 1).leading_zeros()
    }

    /// Shape errors that would break the cache model: line size must be
    /// the global line, capacity a whole number of lines, lines a whole
    /// number of ways, and the set count a power of two (the hot-path
    /// index math assumes it).
    fn check(&self, level: &'static str) -> Result<(), ConfigError> {
        if self.line_bytes != line_bytes() {
            return Err(ConfigError::LineMismatch {
                level,
                line_bytes: self.line_bytes,
                expected: line_bytes(),
            });
        }
        if self.ways == 0
            || self.size_bytes == 0
            || !self.size_bytes.is_multiple_of(self.line_bytes)
            || !self.num_lines().is_multiple_of(self.ways)
            || !self.num_sets().is_power_of_two()
        {
            return Err(ConfigError::BadGeometry {
                level,
                size_bytes: self.size_bytes,
                ways: self.ways,
            });
        }
        Ok(())
    }
}

/// Why a machine shape was rejected. Every invalid geometry is caught
/// once, at [`TopologyBuilder::validate`] / [`MachineConfig::validate`] —
/// never by a panic in the middle of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `blocks == 0`.
    ZeroBlocks,
    /// `cores_per_block == 0`.
    ZeroCoresPerBlock,
    /// More blocks or cores per block than the 64-bit directory
    /// presence masks can name.
    DirectoryTooWide { what: &'static str, n: usize },
    /// Explicit mesh dimensions too small for the core tiles.
    MeshTooSmall {
        cols: usize,
        rows: usize,
        tiles: usize,
    },
    /// A banked level was configured with zero banks.
    ZeroBanks { level: &'static str },
    /// More L2 banks per block than cores: each bank shares the tile of
    /// one of its block's cores.
    TooManyL2Banks {
        banks: usize,
        cores_per_block: usize,
    },
    /// A multi-block machine has no shared L3: cross-block uncached
    /// accesses and model-2 WB/INV need a globally shared level.
    MissingL3 { blocks: usize },
    /// A single-block machine was given an L3; its shared L2 is already
    /// the point of global visibility.
    UnexpectedL3,
    /// A cache level's line size disagrees with the global line
    /// (`WORD_BYTES * WORDS_PER_LINE`).
    LineMismatch {
        level: &'static str,
        line_bytes: usize,
        expected: usize,
    },
    /// A cache level's capacity/associativity do not form whole
    /// power-of-two sets.
    BadGeometry {
        level: &'static str,
        size_bytes: usize,
        ways: usize,
    },
    /// The machine word size disagrees with the compile-time grain.
    WordMismatch { word_bytes: usize },
    /// The programming-model scheme and the topology disagree (model 1
    /// needs a single block; model 2 needs multiple blocks).
    SchemeMismatch { scheme: &'static str, blocks: usize },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroBlocks => write!(f, "topology needs at least one block"),
            ConfigError::ZeroCoresPerBlock => {
                write!(f, "topology needs at least one core per block")
            }
            ConfigError::DirectoryTooWide { what, n } => write!(
                f,
                "{what} = {n} exceeds the 64-entry directory presence mask"
            ),
            ConfigError::MeshTooSmall { cols, rows, tiles } => write!(
                f,
                "{cols}x{rows} mesh has {} tiles but the machine needs {tiles}",
                cols * rows
            ),
            ConfigError::ZeroBanks { level } => {
                write!(f, "{level} must have at least one bank")
            }
            ConfigError::TooManyL2Banks {
                banks,
                cores_per_block,
            } => write!(
                f,
                "{banks} L2 banks per block exceed its {cores_per_block} cores \
                 (each bank sits on one of its block's core tiles)"
            ),
            ConfigError::MissingL3 { blocks } => write!(
                f,
                "a {blocks}-block machine needs a shared L3 (cross-block \
                 accesses need a globally shared level)"
            ),
            ConfigError::UnexpectedL3 => write!(
                f,
                "a single-block machine must not have an L3; its shared L2 \
                 is already globally visible"
            ),
            ConfigError::LineMismatch {
                level,
                line_bytes,
                expected,
            } => write!(
                f,
                "{level} line size {line_bytes} B != the machine line of {expected} B"
            ),
            ConfigError::BadGeometry {
                level,
                size_bytes,
                ways,
            } => write!(
                f,
                "{level} geometry ({size_bytes} B, {ways}-way) does not form \
                 whole power-of-two sets"
            ),
            ConfigError::WordMismatch { word_bytes } => write!(
                f,
                "word size {word_bytes} B != the compile-time grain of {WORD_BYTES} B"
            ),
            ConfigError::SchemeMismatch { scheme, blocks } => {
                write!(f, "scheme {scheme} cannot run on a {blocks}-block topology")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The shared L3 level of a multi-block machine: corner banks that back
/// every block's L2 (paper Table III: "connected to each chip corner").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharedL3 {
    /// Geometry of one bank.
    pub geometry: CacheGeometry,
    /// Round-trip latency of a local bank access, cycles.
    pub rt: u64,
    /// Number of banks (at most 4 are placed, one per mesh corner).
    pub banks: usize,
}

/// The machine's shape: blocks, cores, mesh, banking, and the optional
/// shared L3. Fields are private — the only way to obtain a `Topology`
/// is through [`TopologyBuilder::validate`] (or a preset), so every
/// value in circulation is internally consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    blocks: usize,
    cores_per_block: usize,
    mesh_cols: usize,
    mesh_rows: usize,
    l2_banks_per_block: usize,
    l3: Option<SharedL3>,
}

impl Topology {
    /// One block of 16 cores — the paper's intra-block machine.
    pub fn intra_block() -> Topology {
        TopologyBuilder::new(1, 16)
            .validate()
            .expect("paper intra-block preset is valid")
    }

    /// Four blocks of 8 cores with a 4-bank L3 — the paper's inter-block
    /// machine.
    pub fn inter_block() -> Topology {
        TopologyBuilder::new(4, 8)
            .validate()
            .expect("paper inter-block preset is valid")
    }

    /// Number of blocks (clusters sharing an L2).
    #[inline]
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Cores in each block.
    #[inline]
    pub fn cores_per_block(&self) -> usize {
        self.cores_per_block
    }

    /// Total cores in the machine.
    #[inline]
    pub fn num_cores(&self) -> usize {
        self.blocks * self.cores_per_block
    }

    /// Explicit mesh dimensions (columns, rows). Always large enough for
    /// every core tile.
    #[inline]
    pub fn mesh_dims(&self) -> (usize, usize) {
        (self.mesh_cols, self.mesh_rows)
    }

    /// L2 banks per block.
    #[inline]
    pub fn l2_banks_per_block(&self) -> usize {
        self.l2_banks_per_block
    }

    /// The shared L3, present exactly when `blocks > 1`.
    #[inline]
    pub fn l3(&self) -> Option<SharedL3> {
        self.l3
    }

    /// Whether the hierarchy has a shared L3 below the per-block L2s.
    #[inline]
    pub fn is_hierarchical(&self) -> bool {
        self.l3.is_some()
    }

    /// Block of core `core`.
    #[inline]
    pub fn block_of(&self, core: usize) -> usize {
        core / self.cores_per_block
    }

    /// Global index (`block * l2_banks_per_block + bank`) of the home L2
    /// bank of line `line` inside `block`: lines interleave across the
    /// block's banks.
    #[inline]
    pub fn home_bank(&self, block: usize, line: u64) -> usize {
        block * self.l2_banks_per_block + (line as usize % self.l2_banks_per_block)
    }

    /// Global indices of line `line`'s home L2 bank in every block, in
    /// block order: the only L2 banks that can hold the line (its L3
    /// bank is [`Topology::home_l3_bank`]).
    pub fn home_banks(&self, line: u64) -> impl Iterator<Item = usize> + Clone {
        let topo = *self;
        (0..self.blocks).map(move |b| topo.home_bank(b, line))
    }

    /// Mesh tile of global L2 bank `bank`: bank `b` of block `k` sits on
    /// the tile of the block's core `b`, which exists because validation
    /// keeps `l2_banks_per_block <= cores_per_block`.
    #[inline]
    pub fn bank_tile(&self, bank: usize) -> usize {
        let per_block = self.l2_banks_per_block;
        bank / per_block * self.cores_per_block + bank % per_block
    }

    /// L3 bank (and mesh corner) of line `line`: lines interleave across
    /// the banks. Only hierarchical machines have one.
    #[inline]
    pub fn l3_bank(&self, line: u64) -> usize {
        line as usize
            % self
                .l3
                .expect("only hierarchical machines have an L3")
                .banks
    }

    /// The only L3 bank that can hold line `line`: its
    /// [`Topology::l3_bank`] on a hierarchical machine, `None` on a flat
    /// one.
    #[inline]
    pub fn home_l3_bank(&self, line: u64) -> Option<usize> {
        self.is_hierarchical().then(|| self.l3_bank(line))
    }

    /// Round trip of a local L3 bank access (0 on flat machines, which
    /// never reach an L3 path).
    #[inline]
    pub fn l3_rt(&self) -> u64 {
        self.l3.map_or(0, |l3| l3.rt)
    }

    /// `"BxC"` display form, e.g. `4x8`.
    pub fn shape_label(&self) -> String {
        format!("{}x{}", self.blocks, self.cores_per_block)
    }
}

/// Builder for [`Topology`]. Unset knobs get paper-shaped defaults:
/// a square-ish mesh that fits all cores, one L2 bank per core, and —
/// for multi-block machines — the paper's 4-bank 4 MB L3.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    blocks: usize,
    cores_per_block: usize,
    mesh: Option<(usize, usize)>,
    l2_banks_per_block: Option<usize>,
    l3: Option<Option<SharedL3>>,
}

impl TopologyBuilder {
    pub fn new(blocks: usize, cores_per_block: usize) -> TopologyBuilder {
        TopologyBuilder {
            blocks,
            cores_per_block,
            mesh: None,
            l2_banks_per_block: None,
            l3: None,
        }
    }

    /// Explicit mesh dimensions (columns, rows). Default: the smallest
    /// square-ish grid fitting all cores.
    pub fn mesh(mut self, cols: usize, rows: usize) -> TopologyBuilder {
        self.mesh = Some((cols, rows));
        self
    }

    /// L2 banks per block. Default: one bank per core in the block.
    pub fn l2_banks_per_block(mut self, banks: usize) -> TopologyBuilder {
        self.l2_banks_per_block = Some(banks);
        self
    }

    /// Shared L3 (required when `blocks > 1`). Default for multi-block
    /// machines: the paper's 4 banks of 4 MB, 8-way, 20-cycle RT.
    pub fn l3(mut self, geometry: CacheGeometry, rt: u64, banks: usize) -> TopologyBuilder {
        self.l3 = Some(Some(SharedL3 {
            geometry,
            rt,
            banks,
        }));
        self
    }

    /// Explicitly omit the L3 (only valid for single-block machines,
    /// which is also the default there).
    pub fn no_l3(mut self) -> TopologyBuilder {
        self.l3 = Some(None);
        self
    }

    /// Check every shape constraint and produce the immutable topology.
    pub fn validate(self) -> Result<Topology, ConfigError> {
        if self.blocks == 0 {
            return Err(ConfigError::ZeroBlocks);
        }
        if self.cores_per_block == 0 {
            return Err(ConfigError::ZeroCoresPerBlock);
        }
        // Directory presence masks (MESI block map, Dragon sharer map)
        // are u64 bitmasks.
        if self.blocks > 64 {
            return Err(ConfigError::DirectoryTooWide {
                what: "blocks",
                n: self.blocks,
            });
        }
        if self.cores_per_block > 64 {
            return Err(ConfigError::DirectoryTooWide {
                what: "cores_per_block",
                n: self.cores_per_block,
            });
        }
        let tiles = self.blocks * self.cores_per_block;
        let (mesh_cols, mesh_rows) = self.mesh.unwrap_or_else(|| {
            let cols = (tiles as f64).sqrt().ceil() as usize;
            (cols, tiles.div_ceil(cols))
        });
        if mesh_cols * mesh_rows < tiles || mesh_cols == 0 || mesh_rows == 0 {
            return Err(ConfigError::MeshTooSmall {
                cols: mesh_cols,
                rows: mesh_rows,
                tiles,
            });
        }
        let l2_banks_per_block = self.l2_banks_per_block.unwrap_or(self.cores_per_block);
        if l2_banks_per_block == 0 {
            return Err(ConfigError::ZeroBanks { level: "L2" });
        }
        if l2_banks_per_block > self.cores_per_block {
            return Err(ConfigError::TooManyL2Banks {
                banks: l2_banks_per_block,
                cores_per_block: self.cores_per_block,
            });
        }
        let l3 = self.l3.unwrap_or_else(|| {
            if self.blocks > 1 {
                Some(SharedL3 {
                    geometry: CacheGeometry {
                        size_bytes: 4 * 1024 * 1024,
                        ways: 8,
                        line_bytes: line_bytes(),
                    },
                    rt: 20,
                    banks: 4,
                })
            } else {
                None
            }
        });
        match (self.blocks, &l3) {
            (b, None) if b > 1 => return Err(ConfigError::MissingL3 { blocks: b }),
            (1, Some(_)) => return Err(ConfigError::UnexpectedL3),
            (_, Some(l3)) => {
                if l3.banks == 0 {
                    return Err(ConfigError::ZeroBanks { level: "L3" });
                }
                l3.geometry.check("L3")?;
            }
            _ => {}
        }
        Ok(Topology {
            blocks: self.blocks,
            cores_per_block: self.cores_per_block,
            mesh_cols,
            mesh_rows,
            l2_banks_per_block,
            l3,
        })
    }
}

/// Full description of the modeled machine: a validated [`Topology`]
/// plus cache geometries and timing (paper Table III for the presets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Machine word in bytes: the finest sharing grain. 4 bytes gives the
    /// paper's 16 dirty bits per 64-byte line (§VII-A).
    pub word_bytes: usize,
    /// Private L1 geometry (32 KB, 4-way, 64 B lines).
    pub l1: CacheGeometry,
    /// Round-trip latency of an L1 hit, cycles (2 in the paper).
    pub l1_rt: u64,
    /// Shared L2 bank geometry (128 KB, 8-way per bank).
    pub l2: CacheGeometry,
    /// Round-trip latency of a local L2 bank access, cycles (11).
    pub l2_rt: u64,
    /// Mesh hop latency, cycles (4).
    pub hop_cycles: u64,
    /// Link width in bits (128): one flit is `link_bits/8` bytes.
    pub link_bits: usize,
    /// Off-chip memory round trip, cycles (150).
    pub mem_rt: u64,
    /// MEB capacity in entries (16).
    pub meb_entries: usize,
    /// IEB capacity in entries (4).
    pub ieb_entries: usize,
    /// Tags scanned per cycle during a full-cache WB ALL / INV ALL
    /// traversal (our timing model; see DESIGN.md §2).
    pub tags_per_cycle: u64,
    /// Pipelined writeback initiation interval, cycles per line.
    pub wb_pipeline_ii: u64,
    /// The machine's shape: blocks, cores, mesh, banking, optional L3.
    pub topology: Topology,
}

impl MachineConfig {
    /// Paper Table III timing and cache geometry on an arbitrary
    /// (already validated) topology.
    pub fn with_topology(topology: Topology) -> Self {
        Self {
            word_bytes: WORD_BYTES as usize,
            l1: CacheGeometry {
                size_bytes: 32 * 1024,
                ways: 4,
                line_bytes: line_bytes(),
            },
            l1_rt: 2,
            l2: CacheGeometry {
                size_bytes: 128 * 1024,
                ways: 8,
                line_bytes: line_bytes(),
            },
            l2_rt: 11,
            hop_cycles: 4,
            link_bits: 128,
            mem_rt: 150,
            meb_entries: 16,
            ieb_entries: 4,
            tags_per_cycle: 4,
            wb_pipeline_ii: 4,
            topology,
        }
    }

    /// The 16-core single-block machine of the intra-block experiments.
    pub fn intra_block() -> Self {
        Self::with_topology(Topology::intra_block())
    }

    /// The 4-block × 8-core machine of the inter-block experiments.
    pub fn inter_block() -> Self {
        Self::with_topology(Topology::inter_block())
    }

    /// Check the cache levels against the compile-time word/line grain.
    /// The topology itself is valid by construction; this covers the
    /// public geometry and timing fields.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.word_bytes as u64 != WORD_BYTES {
            return Err(ConfigError::WordMismatch {
                word_bytes: self.word_bytes,
            });
        }
        self.l1.check("L1")?;
        self.l2.check("L2")?;
        if let Some(l3) = self.topology.l3() {
            l3.geometry.check("L3")?;
        }
        Ok(())
    }

    /// Total number of cores in the machine.
    #[inline]
    pub fn num_cores(&self) -> usize {
        self.topology.num_cores()
    }

    /// Number of blocks (1 for the intra-block machine).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.topology.blocks()
    }

    /// Cores per block.
    #[inline]
    pub fn cores_per_block(&self) -> usize {
        self.topology.cores_per_block()
    }

    /// Number of L2 banks per block.
    #[inline]
    pub fn l2_banks_per_block(&self) -> usize {
        self.topology.l2_banks_per_block()
    }

    /// The shared L3, if this is a multi-block machine.
    #[inline]
    pub fn l3(&self) -> Option<SharedL3> {
        self.topology.l3()
    }

    /// Whether the hierarchy has a shared L3 below the per-block L2s.
    #[inline]
    pub fn is_hierarchical(&self) -> bool {
        self.topology.is_hierarchical()
    }

    /// Words per cache line.
    pub fn words_per_line(&self) -> usize {
        self.l1.line_bytes / self.word_bytes
    }

    /// Flit payload in bytes (128-bit link → 16 bytes).
    pub fn flit_bytes(&self) -> usize {
        self.link_bits / 8
    }

    /// Flits needed to carry `bytes` of payload plus one header flit.
    pub fn flits_for(&self, bytes: usize) -> u64 {
        1 + (bytes.div_ceil(self.flit_bytes())) as u64
    }

    /// Flits for a full cache-line transfer.
    pub fn line_flits(&self) -> u64 {
        self.flits_for(self.l1.line_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_geometry_matches_table3() {
        let c = MachineConfig::intra_block();
        assert_eq!(c.num_cores(), 16);
        assert_eq!(c.num_blocks(), 1);
        assert_eq!(c.l2_banks_per_block(), 16);
        assert_eq!(c.topology.mesh_dims(), (4, 4));
        assert!(c.l3().is_none());
        assert_eq!(c.l1.num_lines(), 512);
        assert_eq!(c.l1.num_sets(), 128);
        assert_eq!(c.words_per_line(), 16); // 16 per-word dirty bits/line
        assert_eq!(c.l1.line_id_bits(), 9); // the paper's 9-bit MEB entry
        c.validate().unwrap();
    }

    #[test]
    fn inter_geometry_matches_table3() {
        let c = MachineConfig::inter_block();
        assert_eq!(c.num_cores(), 32);
        assert_eq!(c.num_blocks(), 4);
        assert_eq!(c.cores_per_block(), 8);
        assert_eq!(c.l2_banks_per_block(), 8);
        // ceil(sqrt(32)) = 6 columns; 32.div_ceil(6) = 6 rows — the same
        // grid Mesh::new inferred before dims became explicit.
        assert_eq!(c.topology.mesh_dims(), (6, 6));
        let l3 = c.l3().unwrap();
        assert_eq!(l3.banks, 4);
        assert_eq!(l3.rt, 20);
        assert_eq!(l3.geometry.num_lines(), 65536);
        assert_eq!(l3.geometry.num_sets(), 8192);
        c.validate().unwrap();
    }

    #[test]
    fn flit_math() {
        let c = MachineConfig::intra_block();
        assert_eq!(c.flit_bytes(), 16);
        // 64-byte line = 4 payload flits + 1 header.
        assert_eq!(c.line_flits(), 5);
        // One dirty word = 1 payload flit + 1 header.
        assert_eq!(c.flits_for(4), 2);
        // Zero-byte control message is just a header.
        assert_eq!(c.flits_for(0), 1);
    }

    #[test]
    fn line_id_bits_rounding() {
        let g = CacheGeometry {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
        };
        assert_eq!(g.num_lines(), 1024);
        assert_eq!(g.line_id_bits(), 10);
    }

    #[test]
    fn builder_rejects_degenerate_shapes() {
        assert_eq!(
            TopologyBuilder::new(0, 8).validate(),
            Err(ConfigError::ZeroBlocks)
        );
        assert_eq!(
            TopologyBuilder::new(2, 0).validate(),
            Err(ConfigError::ZeroCoresPerBlock)
        );
        assert!(matches!(
            TopologyBuilder::new(65, 1).validate(),
            Err(ConfigError::DirectoryTooWide { what: "blocks", .. })
        ));
        assert!(matches!(
            TopologyBuilder::new(2, 65).validate(),
            Err(ConfigError::DirectoryTooWide { .. })
        ));
        assert!(matches!(
            TopologyBuilder::new(1, 16).mesh(3, 3).validate(),
            Err(ConfigError::MeshTooSmall { tiles: 16, .. })
        ));
        assert!(matches!(
            TopologyBuilder::new(4, 8).no_l3().validate(),
            Err(ConfigError::MissingL3 { blocks: 4 })
        ));
        assert!(matches!(
            TopologyBuilder::new(1, 4)
                .l3(
                    CacheGeometry {
                        size_bytes: 1024 * 1024,
                        ways: 8,
                        line_bytes: 64
                    },
                    20,
                    4
                )
                .validate(),
            Err(ConfigError::UnexpectedL3)
        ));
        assert!(matches!(
            TopologyBuilder::new(1, 8).l2_banks_per_block(0).validate(),
            Err(ConfigError::ZeroBanks { level: "L2" })
        ));
        // Block 0's upper banks would land on block 1's tiles, and the
        // last block's past the mesh.
        assert_eq!(
            TopologyBuilder::new(2, 4).l2_banks_per_block(8).validate(),
            Err(ConfigError::TooManyL2Banks {
                banks: 8,
                cores_per_block: 4
            })
        );
        assert!(TopologyBuilder::new(2, 4)
            .l2_banks_per_block(4)
            .validate()
            .is_ok());
    }

    #[test]
    fn l2_banks_sit_on_their_own_blocks_tiles() {
        for (blocks, cores, banks) in [(1, 16, 16), (4, 8, 8), (2, 4, 2), (8, 8, 4)] {
            let t = TopologyBuilder::new(blocks, cores)
                .l2_banks_per_block(banks)
                .validate()
                .unwrap();
            for blk in 0..blocks {
                for line in 0..64 {
                    let bank = t.home_bank(blk, line);
                    assert_eq!(
                        t.block_of(t.bank_tile(bank)),
                        blk,
                        "{blocks}x{cores}x{banks}"
                    );
                }
            }
        }
    }

    #[test]
    fn builder_defaults_are_paper_shaped() {
        // Multi-block machines get the paper L3 by default.
        let t = TopologyBuilder::new(8, 8).validate().unwrap();
        assert_eq!(t.num_cores(), 64);
        assert_eq!(t.mesh_dims(), (8, 8));
        assert_eq!(t.l2_banks_per_block(), 8);
        let l3 = t.l3().unwrap();
        assert_eq!(l3.banks, 4);
        assert_eq!(l3.geometry.size_bytes, 4 * 1024 * 1024);
        // Single-block machines get none.
        let t = TopologyBuilder::new(1, 4).validate().unwrap();
        assert!(t.l3().is_none());
        assert_eq!(t.mesh_dims(), (2, 2));
    }

    #[test]
    fn explicit_mesh_dims_are_honored() {
        let t = TopologyBuilder::new(1, 8).mesh(8, 1).validate().unwrap();
        assert_eq!(t.mesh_dims(), (8, 1));
        assert_eq!(t.shape_label(), "1x8");
    }

    #[test]
    fn validate_rejects_bad_cache_geometry() {
        let mut c = MachineConfig::intra_block();
        c.l1.line_bytes = 128;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::LineMismatch { level: "L1", .. })
        ));
        let mut c = MachineConfig::intra_block();
        c.l2.ways = 3; // 2048 lines / 3 ways is not whole power-of-two sets
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadGeometry { level: "L2", .. })
        ));
        let mut c = MachineConfig::inter_block();
        c.word_bytes = 8;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::WordMismatch { word_bytes: 8 })
        ));
    }

    #[test]
    fn config_errors_display() {
        // Every variant has a human-readable rendering.
        let e = TopologyBuilder::new(4, 8).no_l3().validate().unwrap_err();
        assert!(e.to_string().contains("globally shared level"));
        let e = TopologyBuilder::new(1, 16)
            .mesh(2, 2)
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("4 tiles"));
    }
}
