//! Shared experiment plumbing: scales, table rendering, and workload
//! helpers.

use std::fmt;
use wcds_geom::deploy;
use wcds_graph::{traversal, UnitDiskGraph};

/// How big an experiment run should be.
///
/// `Quick` keeps every experiment under a second (used by the
/// integration tests that smoke-run the whole evaluation); `Full` is
/// the paper-scale sweep the binaries default to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny instances for smoke tests.
    Quick,
    /// Full sweeps for the recorded evaluation.
    Full,
}

impl Scale {
    /// Reads a `bench_*` binary's scale from its command line; anything
    /// [`parse_args`] rejects prints the usage and exits with status 2.
    pub fn from_args() -> Self {
        match parse_args(std::env::args().skip(1), false) {
            Ok((scale, _)) => scale,
            Err(problem) => {
                let bin = std::env::args().next().unwrap_or_default();
                eprintln!("error: {problem}\nusage: {bin} [--quick | --full]");
                std::process::exit(2)
            }
        }
    }

    /// Picks between the two scale variants.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Parses a benchmark or experiment command line (without the program
/// name): at most one `--quick` or `--full` (default full scale) and,
/// when `takes_name`, at most one experiment name.
///
/// # Errors
///
/// Names the first argument the binary does not read.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
    takes_name: bool,
) -> Result<(Scale, Option<String>), String> {
    let (mut scale, mut name) = (None, None);
    for arg in args {
        match arg.as_str() {
            "--quick" if scale.is_none() => scale = Some(Scale::Quick),
            "--full" if scale.is_none() => scale = Some(Scale::Full),
            _ if takes_name && name.is_none() && !arg.starts_with('-') => name = Some(arg),
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
    }
    Ok((scale.unwrap_or(Scale::Full), name))
}

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment/table title, e.g. `"T4 dilation (Theorem 11)"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of stringified cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form annotations printed under the table (expected shape,
    /// bound checks).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new<S: Into<String>>(title: S, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch in '{}'", self.title);
        self.rows.push(cells);
        self
    }

    /// Appends a note line.
    pub fn note<S: Into<String>>(&mut self, s: S) -> &mut Self {
        self.notes.push(s.into());
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "  ")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, "{:>w$}  ", c, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len() + 2;
        writeln!(f, "  {}", "-".repeat(total.saturating_sub(2)))?;
        for row in &self.rows {
            line(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Formats an f64 with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats an f64 with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Builds a **connected** random-uniform UDG with `n` nodes on a
/// `side × side` region, resampling the seed until connected.
///
/// # Panics
///
/// Panics after 200 failed attempts (density too low for
/// connectivity — pick a smaller side).
pub fn connected_uniform_udg(n: usize, side: f64, seed: u64) -> UnitDiskGraph {
    for attempt in 0..200 {
        let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, seed + 1000 * attempt), 1.0);
        if traversal::is_connected(udg.graph()) {
            return udg;
        }
    }
    panic!("no connected deployment found for n = {n}, side = {side}");
}

/// The region side length giving a target average degree for `n`
/// uniform nodes with unit radius: `E[deg] ≈ n·π/side²`.
pub fn side_for_avg_degree(n: usize, avg_degree: f64) -> f64 {
    (n as f64 * std::f64::consts::PI / avg_degree).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_all_parts() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let s = format!("{t}");
        assert!(s.contains("== demo =="));
        assert!(s.contains("bb"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        Table::new("x", &["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn connected_udg_is_connected() {
        let udg = connected_uniform_udg(60, 4.0, 9);
        assert!(traversal::is_connected(udg.graph()));
        assert_eq!(udg.node_count(), 60);
    }

    #[test]
    fn side_for_degree_formula() {
        let side = side_for_avg_degree(100, 10.0);
        assert!((side * side * 10.0 / std::f64::consts::PI - 100.0).abs() < 1e-9);
    }

    fn parse(args: &[&str], takes_name: bool) -> Result<(Scale, Option<String>), String> {
        parse_args(args.iter().map(|a| a.to_string()), takes_name)
    }

    #[test]
    fn bench_args_take_one_optional_scale_flag() {
        assert_eq!(parse(&[], false), Ok((Scale::Full, None)));
        assert_eq!(parse(&["--quick"], false), Ok((Scale::Quick, None)));
        assert_eq!(parse(&["--full"], false), Ok((Scale::Full, None)));
        for bad in [&["--quik"][..], &["quick"], &["--quick", "--full"], &["--full", "--full"]] {
            assert!(parse(bad, false).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn expt_args_take_at_most_one_name() {
        assert_eq!(parse(&["dilation"], true), Ok((Scale::Full, Some("dilation".into()))));
        assert_eq!(parse(&["--quick", "all"], true), Ok((Scale::Quick, Some("all".into()))));
        assert_eq!(parse(&["--quick"], true), Ok((Scale::Quick, None)));
        assert_eq!(parse(&["all", "--quik"], true), Err("unexpected argument `--quik`".into()));
        assert_eq!(
            parse(&["fig2_wcds", "stray", "--bogus"], true),
            Err("unexpected argument `stray`".into())
        );
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
