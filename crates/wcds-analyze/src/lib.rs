//! In-repo correctness gate for the service layer (DESIGN.md §9).
//!
//! Four engines, one verdict (`cargo run -p wcds-analyze -- check`):
//!
//! * [`lints`] — lexical source lints over the wire-facing modules
//!   (`wcds-service::{protocol, server, store, client}`,
//!   `wcds-graph::io`): no panic sites, no unchecked slice indexing,
//!   no truncating `as` casts, no nested lock acquisition in the
//!   store. Suppression requires a justified
//!   `// analyze: allow(<lint>, "…")` pragma, and every suppression is
//!   reported.
//! * [`callgraph`] — the workspace-wide interprocedural analyzer: a
//!   lightweight item parser ([`items`]) extracts every function's
//!   call sites, lock acquisitions, blocking calls, and panic/index
//!   sites; the resolved call graph then drives three analyses —
//!   [`reach`] (panic-reachability from the wire entry points, in any
//!   crate), and [`lockorder`] (acquired-while-held cycles and lock
//!   guards live across blocking IO). Findings are emitted as JSON
//!   (`artifacts/analyze_findings.json`) and gated against a
//!   checked-in burn-down baseline
//!   (`crates/wcds-analyze/analyze_baseline.json`); the planted-defect
//!   fixture trees under `crates/wcds-analyze/fixtures/` prove the
//!   analyzer catches what it claims.
//! * [`races`] — an exhaustive bounded-interleaving checker
//!   ([`wcds_sim::interleave`]) for the store's epoch-stamped
//!   double-checked-rebuild protocol, driving the *actual* decision
//!   functions via the [`wcds_service::rebuild`] shim. Asserts no
//!   stale bundle is ever served and no epoch is rebuilt twice — and
//!   proves its own sensitivity by catching two seeded protocol bugs.
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
pub mod races;
pub mod reach;
pub mod totality;
