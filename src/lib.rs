//! # hic — a hardware-incoherent multiprocessor cache hierarchy
//!
//! A from-scratch Rust reproduction of
//! *"Architecting and Programming a Hardware-Incoherent Multiprocessor
//! Cache Hierarchy"* (Kim, Tavarageri, Sadayappan, Torrellas — IPDPS
//! 2016): an execution-driven manycore cache-hierarchy simulator, the
//! paper's WB/INV instruction family with the MEB and IEB buffers and
//! level-adaptive WB_CONS/INV_PROD, a directory-MESI baseline, the two
//! programming models, a mini-compiler for producer-consumer extraction,
//! and the full application suite and harness that regenerate the paper's
//! tables and figures.
//!
//! ## Quick start
//!
//! ```
//! use hic::runtime::{Config, IntraConfig, ProgramBuilder};
//!
//! // A 16-core single-block machine managed by WB/INV + MEB + IEB.
//! let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::BMI));
//! let data = p.alloc(256);
//! let bar = p.barrier();
//! let out = p.run_tasks(16, async move |ctx| {
//!     let t = ctx.tid() as u64;
//!     for i in (t * 16)..(t + 1) * 16 {
//!         ctx.write(data, i, i as u32 * 2).await;
//!     }
//!     ctx.barrier(bar).await; // inserts WB ALL / INV ALL automatically
//!     // After the barrier every thread sees everyone's writes.
//!     let v = ctx.read(data, (t * 7) % 256).await;
//!     assert_eq!(v, ((t * 7) % 256) as u32 * 2);
//!     ctx.barrier(bar).await;
//! });
//! assert_eq!(out.peek(data, 100), 200);
//! println!("took {} simulated cycles", out.stats().total_cycles);
//! ```
//!
//! ## Configuring the machine
//!
//! The machine's shape is a validated [`sim::Topology`] built with
//! [`sim::TopologyBuilder`]; the paper's two machines are presets, and
//! `Config::with_topology` re-targets any scheme to any shape. A
//! machine the paper never built — 2 blocks of 4 cores under the
//! update-based Dragon protocol:
//!
//! ```
//! use hic::runtime::{Config, InterConfig, ProgramBuilder};
//! use hic::sim::TopologyBuilder;
//!
//! let topo = TopologyBuilder::new(2, 4).validate()?;
//! let config = Config::Inter(InterConfig::Dragon).with_topology(topo)?;
//!
//! let mut p = ProgramBuilder::new(config);
//! let data = p.alloc(64);
//! let bar = p.barrier();
//! let n = config.num_threads() as u64; // 8: one thread per core
//! let out = p.run_tasks(n as usize, async move |ctx| {
//!     let t = ctx.tid() as u64;
//!     ctx.write(data, t, (t * t) as u32).await;
//!     ctx.barrier(bar).await; // Dragon is hardware-coherent: no WB/INV needed
//!     let v = ctx.read(data, (t + 1) % n).await;
//!     assert_eq!(v, (((t + 1) % n).pow(2)) as u32);
//!     ctx.barrier(bar).await;
//! });
//! assert_eq!(out.peek(data, 3), 9);
//! # Ok::<(), hic::sim::ConfigError>(())
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `hic-sim` | cycle types, machine configuration (Table III), stall ledger |
//! | [`mem`] | `hic-mem` | caches with per-word dirty bits, memory, allocator |
//! | [`noc`] | `hic-noc` | 2D mesh, flit traffic accounting |
//! | [`core`] | `hic-core` | WB/INV ISA, ordering rules, MEB, IEB, ThreadMap, storage model |
//! | [`coherence`] | `hic-coherence` | the protocol zoo: directory MESI (HCC) + update-based Dragon |
//! | [`sync`] | `hic-sync` | barriers/locks/flags in the shared-cache controller |
//! | [`machine`] | `hic-machine` | the timing simulators and op interface |
//! | [`runtime`] | `hic-runtime` | thread API, task executor + annotation policies (both programming models) |
//! | [`analysis`] | `hic-analysis` | affine IR, DEF-USE producer/consumer extraction, inspector |
//! | [`apps`] | `hic-apps` | the 11 intra-block + 4 inter-block applications |

pub use hic_analysis as analysis;
pub use hic_apps as apps;
pub use hic_coherence as coherence;
pub use hic_core as core;
pub use hic_machine as machine;
pub use hic_mem as mem;
pub use hic_noc as noc;
pub use hic_runtime as runtime;
pub use hic_sim as sim;
pub use hic_sync as sync;
