//! Programming-model runtimes for the hardware-incoherent machine.
//!
//! This crate provides what the paper's §IV and §V call the "programming
//! approaches": applications are ordinary Rust async closures, one task
//! per simulated thread, and every memory access and synchronization
//! goes through a [`ThreadCtx`] into the simulated machine. The runtime
//! inserts the WB / INV instructions around synchronization operations
//! according to the configuration under evaluation (Table II):
//!
//! * intra-block: `Base`, `B+M`, `B+I`, `B+M+I`, `HCC`;
//! * inter-block: `Base`, `Addr`, `Addr+L`, `HCC`.
//!
//! Execution is deterministic: the engine (in [`engine`]) runs every
//! task on one single-threaded executor and executes the next op of the
//! core with the smallest local time first, so all machine transitions
//! happen in global simulated-time order (conservative execution-driven
//! simulation; DESIGN.md §2). [`Scheduler::Linear`] keeps a linear-scan
//! reference picker — both produce bit-identical simulated results.

pub mod builder;
pub mod config;
pub mod ctx;
pub mod engine;
pub mod mpi;
pub mod plan;
pub mod record;
pub mod request;

pub use builder::{ProgramBuilder, RunOutcome};
pub use config::{Config, InterConfig, IntraConfig, Scheme};
pub use ctx::{BarrierId, BarrierOpts, FlagId, FlagOpts, LockId, SyncData, ThreadCtx};
pub use engine::Scheduler;
pub use hic_check::{CheckMode, Diagnostics, Finding, FindingKind};
pub use hic_machine::{FaultPlan, ResilienceStats, RunError};
pub use mpi::MpiWorld;
pub use plan::{coalesce_ops, CommOp, EpochPlan, PlanOverrides};
pub use record::{PlanOpRef, ProgramRecord, RecEvent, RecSync, RecThread};
pub use request::{FaultSpec, RequestError, RunRequest, Scale};
