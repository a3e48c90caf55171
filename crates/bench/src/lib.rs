//! Benchmark and figure-regeneration harness.
//!
//! The `figures` binary regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index) from one run of
//! each grid cell ([`run_grid`] over `hic_apps::sweep_requests`);
//! `bench_host` times the grid on the host clock; the `micro_simulator`
//! bench measures the simulator substrate under `cargo bench`, using the
//! in-repo wall-clock harness in [`harness`]. `hic-serve sweep-jobs` +
//! `hic-serve batch` is the grid runner that checks every cell's result.

pub mod ablation;
pub mod cli;
pub mod harness;
pub mod host;
pub mod report;

pub use ablation::{hop_latency_sweep, ieb_capacity_sweep, meb_capacity_sweep, AblationPoint};
pub use cli::parse_scale;
pub use harness::{bench, bench_with_setup, Timing};
pub use host::{geometry_grid, run_geometry_matrix, run_grid, GeometryRun, HostReport, HostRun};
pub use report::{
    fig10_rows, fig11_rows, fig12_rows, fig9_rows, Fig10Row, Fig11Row, Fig12Row, Fig9Row,
};
