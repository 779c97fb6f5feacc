//! Evaluation harness: workloads, metrics, and the experiments that
//! regenerate every table and figure of the paper.
//!
//! The methodology follows §V-A exactly:
//!
//! * [`workload`] — six query sizes per dataset (`q1..q6`, Table II),
//!   each subsequent size doubling both extents; 200 uniformly placed
//!   rectangles per size;
//! * [`metrics`] — relative error with the `ρ = 0.001·N` floor, absolute
//!   error, and candlestick summaries (25th/50th/75th/95th percentile
//!   plus arithmetic mean);
//! * [`truth`] — exact query answers via [`dpgrid_geo::PointIndex`];
//! * [`Method`] — the core crate's method registry, re-exported: UG,
//!   AG, Privelet, KD-standard, KD-hybrid, hierarchies and the flat
//!   baseline, so experiments are declarative lists of method
//!   configurations built through the same `Method::build_boxed` path
//!   the publishing pipeline uses;
//! * [`runner`] — multi-threaded (method × trial) evaluation;
//! * [`experiments`] — one module per paper artifact (`table2`, `fig1`
//!   … `fig6`, `dim`), each writing CSV series and a markdown summary
//!   under a results directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod truth;
pub mod workload;

pub use dpgrid_core::Method;
pub use metrics::{relative_error, Candlestick};
pub use runner::{evaluate, EvalConfig, MethodEval};
pub use workload::{QueryWorkload, WorkloadSpec};

/// Evaluation reuses the core error type plus I/O wrapping.
pub use dpgrid_core::CoreError as EvalError;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, EvalError>;
