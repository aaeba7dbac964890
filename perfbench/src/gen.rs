//! Seeded inputs and small process probes shared by the workloads.

use wcds_bench::util::{connected_uniform_udg, side_for_avg_degree};
use wcds_geom::Point;
use wcds_graph::UnitDiskGraph;

/// Communication radius: the unit radius `connected_uniform_udg` draws
/// its deployments with, which every rebuild must use too.
pub const RADIUS: f64 = 1.0;

/// A connected uniform unit-disk deployment of `n` nodes at average
/// degree about `avg_degree`, drawn from `seed`, with the side of its
/// square. The same seed always yields the same deployment.
pub fn deployment(n: usize, avg_degree: f64, seed: u64) -> (UnitDiskGraph, f64) {
    let side = side_for_avg_degree(n, avg_degree);
    (connected_uniform_udg(n, side, seed), side)
}

/// `p` moved by `(dx, dy)` and clamped into the `side × side` square.
pub fn nudged(p: Point, dx: f64, dy: f64, side: f64) -> Point {
    Point::new((p.x + dx).clamp(0.0, side), (p.y + dy).clamp(0.0, side))
}

/// 64-bit FNV-1a digest, used to compare response bytes without
/// keeping them.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The git revision of the checkout in the working directory, read from
/// `.git` without starting a process; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployments_repeat_per_seed_and_are_connected() {
        let (a, side) = deployment(300, 10.0, 7);
        let (b, _) = deployment(300, 10.0, 7);
        assert_eq!(a.points(), b.points());
        assert!(wcds_graph::traversal::is_connected(a.graph()));
        assert!((side - side_for_avg_degree(300, 10.0)).abs() < 1e-12);
        let (c, _) = deployment(300, 10.0, 8);
        assert_ne!(a.points(), c.points());
    }

    #[test]
    fn nudge_clamps_and_fnv_is_stable() {
        let p = nudged(Point::new(0.1, 4.9), -0.25, 0.25, 5.0);
        assert_eq!((p.x, p.y), (0.0, 5.0));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
