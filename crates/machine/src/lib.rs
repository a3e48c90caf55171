//! Machine assembly: the execution-driven timing simulators.
//!
//! Four memory backends share the same geometry, NoC, and backing memory
//! model behind the [`MemBackend`] trait:
//!
//! * [`IncoherentSystem`] — the paper's hardware-incoherent hierarchy,
//!   driven by WB/INV instructions, with MEB/IEB support and the
//!   ThreadMap-based level-adaptive instructions;
//! * `MesiSystem` (from `hic-coherence`) — the HCC baseline;
//! * `DragonSystem` (from `hic-coherence`) — update-based coherence over
//!   the same directory hierarchy;
//! * [`RefBackend`] — a flat always-fresh store used as a correctness
//!   oracle.
//!
//! [`Machine`] wraps any backend together with the synchronization
//! controller (`hic-sync`), per-core stall ledgers, and Figure-11 counters,
//! and exposes a synchronous `execute(core, op, now)` interface that the
//! thread runtime (`hic-runtime`) drives in global simulated-time order.

pub mod backend;
pub mod error;
pub mod incoherent;
pub mod machine;
pub mod ops;
pub mod trace;

pub use backend::{MemBackend, RefBackend};
pub use error::RunError;
pub use hic_fault::{FaultPlan, ResilienceStats};
pub use hic_noc::TrafficLedger;
pub use incoherent::{IncCounters, IncoherentSystem};
pub use machine::{Exec, Machine, RunStats, Wakeup};
pub use ops::Op;
pub use trace::{TraceEvent, TraceRing};
