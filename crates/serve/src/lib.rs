//! `hic-serve` — simulation as a service.
//!
//! A long-running, multi-tenant job runner for the simulator: clients
//! describe runs as canonical [`RunRequest`](hic_runtime::RunRequest)s
//! (serialized as their `cache_key`), submit them over a JSON Unix
//! socket or a batch file (both spoken in [`Json`], re-exported from
//! `hic-sim`), and get typed per-job results back. The
//! server keeps a bounded worker pool, a priority+FIFO queue, and a
//! result cache keyed by the request's canonical serialization — an
//! identical resubmission is answered bit-identically without
//! re-simulating.
//!
//! Layout:
//!
//! * [`job`] — job lifecycle and the [`job::JobOutcome`] result record;
//! * [`queue`] — priority-then-FIFO queue ordering;
//! * [`server`] — the worker pool, queue, and result cache;
//! * [`socket`] — the line-delimited JSON socket frontend;
//! * [`figures`] — the paper's full figure set as one queued sweep
//!   (`BENCH_figures.json`).
//!
//! See DESIGN.md §15 and the `hic-serve` binary for the CLI.

pub mod figures;
pub mod job;
pub mod queue;
pub mod server;
pub mod socket;

pub use figures::{figures_json, sweep_requests};
pub use hic_sim::Json;
pub use job::{Job, JobId, JobOutcome, JobState};
pub use server::{Server, ServerStats};
