//! The hardware-coherent protocol zoo: directory-based protocols the
//! incoherent machine is compared against, both over one full-map
//! directory hierarchy ([`DirectoryHierarchy`]).
//!
//! * [`MesiSystem`] — the HCC baseline, a full-map directory-based MESI
//!   protocol, flat for the single-block machine and hierarchical for the
//!   multi-block machine (paper §VI: "a hierarchical full-mapped
//!   directory-based MESI protocol").
//! * [`DragonSystem`] — an update-based Dragon protocol over the same
//!   directory organization: writes to shared lines broadcast word
//!   updates instead of invalidating, trading control bandwidth for the
//!   refetch misses MESI charges readers.
//!
//! The hierarchy owns everything the two protocols do identically:
//! caches, directories, fills, evictions, recalls, the read path and the
//! backdoors. A protocol is its L1 state enum (a [`LineState`]) and its
//! write path.
//!
//! Both protocols are value-accurate and timing-annotated: every
//! transition moves real data between the L1s, L2 banks, optional L3
//! banks, and memory, returns the access latency in cycles, and records
//! flits in the traffic ledger (linefill / writeback / invalidation /
//! memory / L2-L3).
//!
//! Directory placement follows the paper's organization: each line has a
//! home L2 bank inside its block (full map over the block's cores), and —
//! in the hierarchical machine — a home L3 bank (full map over blocks).

pub mod dragon;
pub mod hierarchy;
pub mod mesi;

pub use dragon::{Dragon, DragonSystem};
pub use hierarchy::{DirectoryHierarchy, LineState};
pub use mesi::{Mesi, MesiSystem};
