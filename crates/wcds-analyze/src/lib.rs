//! In-repo correctness gate for the service layer (DESIGN.md §9).
//!
//! Three engines over one parse, one verdict
//! (`cargo run -p wcds-analyze -- check`):
//!
//! * [`callgraph`] — the workspace-wide interprocedural analyzer: a
//!   lightweight item parser ([`items`]) extracts every function's
//!   call sites, lock acquisitions, blocking calls, and lint sites;
//!   the resolved call graph then drives three analyses —
//!   [`reach`] (panic-reachability from the wire entry points, in any
//!   crate), and [`lockorder`] (acquired-while-held cycles and lock
//!   guards live across blocking IO). Findings are emitted as JSON
//!   (`artifacts/analyze_findings.json`) and gated against a
//!   checked-in burn-down baseline
//!   (`crates/wcds-analyze/analyze_baseline.json`); the planted-defect
//!   fixture trees under `crates/wcds-analyze/fixtures/` prove the
//!   analyzer catches what it claims.
//! * [`lints`] — the strict-file policy, a filter over the same parse:
//!   no panic sites, no unchecked slice indexing and no truncating `as`
//!   casts in the [`lints::STRICT_FILES`], and no nested lock
//!   acquisition in the store. There is no suppression syntax.
//! * [`totality`] — structure-aware enumeration of truncated, mutated,
//!   and hostile frames through both wire decoders under
//!   `catch_unwind`: no panics, and accepted frames round-trip.
//!
//! The crate is dependency-free (std + workspace crates) and runs as a
//! CI job next to build/test/clippy.

pub mod callgraph;
pub mod items;
pub mod json;
pub mod lexer;
pub mod lints;
pub mod lockorder;
pub mod reach;
pub mod totality;
