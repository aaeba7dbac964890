//! Experiment harness regenerating every figure and quantitative claim
//! of the ICDCS 2003 WCDS paper.
//!
//! The paper is pre-"artifact evaluation": it has no measured tables,
//! only illustrative figures and proven bounds. "Reproducing the
//! evaluation" therefore means regenerating each figure as a checkable
//! artifact and measuring each bound (approximation ratios, spanner
//! sparseness, dilation, message/time complexity) on synthetic
//! deployments — the substitution policy recorded in `DESIGN.md`.
//!
//! Each experiment lives in [`experiments`] as a function returning
//! printable [`util::Table`]s, listed by name in
//! [`experiments::EXPERIMENTS`]; the `expt` binary in `src/bin` runs
//! one by name (`expt dilation --quick`), and `expt all` prints the
//! whole evaluation. Every experiment accepts a [`util::Scale`] so
//! integration tests can smoke-run the full suite in seconds while the
//! binary defaults to paper-scale sweeps.

pub mod experiments;
pub mod perf;
pub mod util;
