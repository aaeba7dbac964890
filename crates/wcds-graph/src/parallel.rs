//! Parallel execution of per-source sweeps.
//!
//! All-sources measurements (dilation, eccentricity, APSP) are
//! embarrassingly parallel over sources, and every caller in this
//! workspace reduces per-source partials **serially in source order** —
//! so parallel runs produce byte-identical output to serial runs.
//!
//! The build environment vendors no third-party crates, so the engine
//! is dependency-free: `std::thread::scope` over contiguous chunks of
//! an output slice. One worker is exactly the serial loop.

/// Number of worker threads for callers that take no explicit width:
/// `WCDS_THREADS` bounded by [`threads_from`], read on every call, or 1
/// when the variable is unset.
pub fn threads() -> usize {
    match std::env::var("WCDS_THREADS") {
        Ok(value) => {
            let available = std::thread::available_parallelism().map_or(1, |p| p.get());
            threads_from(Some(&value), available)
        }
        Err(_) => 1,
    }
}

/// The worker count a `WCDS_THREADS` value asks for on a host with
/// `available` hardware threads. Unset, empty, non-numeric and `0` give
/// 1, and a count above `available` is clamped to it, so a stray large
/// value cannot spawn thousands of threads per sweep.
pub fn threads_from(value: Option<&str>, available: usize) -> usize {
    let asked = value.and_then(|v| v.trim().parse::<usize>().ok()).unwrap_or(1);
    asked.clamp(1, available.max(1))
}

/// Returns `[f(state, 0), …, f(state, n - 1)]`, splitting the indices
/// into `nthreads` contiguous chunks.
///
/// `make_state` runs once per worker to build reusable per-worker state
/// (search scratch, buffers); `f` then runs for each index of that
/// worker's chunk, in order. With `nthreads <= 1` everything runs on
/// the calling thread — the degenerate case is exactly the serial loop,
/// so results never depend on the thread count.
pub fn map_indices<T, S>(
    nthreads: usize,
    n: usize,
    make_state: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T>
where
    T: Send + Default + Clone,
    S: Send,
{
    let mut out = vec![T::default(); n];
    if nthreads <= 1 || n <= 1 {
        let mut state = make_state();
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(&mut state, i);
        }
        return out;
    }
    let chunk = n.div_ceil(nthreads.min(n));
    std::thread::scope(|scope| {
        for (c, slots) in out.chunks_mut(chunk).enumerate() {
            let make_state = &make_state;
            let f = &f;
            scope.spawn(move || {
                let mut state = make_state();
                let base = c * chunk;
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = f(&mut state, base + j);
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_for_every_thread_count() {
        let want: Vec<u64> = (0..97u64).map(|i| i * i + 7).collect();
        for nthreads in [1, 2, 3, 8, 97, 200] {
            let got = map_indices(nthreads, 97, || 7u64, |s, i| (i * i) as u64 + *s);
            assert_eq!(got, want, "nthreads {nthreads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(map_indices(4, 0, || (), |_, i| i), Vec::<usize>::new());
        assert_eq!(map_indices(4, 1, || (), |_, i| i), vec![0]);
    }

    #[test]
    fn per_worker_state_is_isolated() {
        // each worker's state counts its own calls; totals must cover
        // every index exactly once
        let marks = map_indices(3, 30, || 0usize, |calls, i| {
            *calls += 1;
            i
        });
        assert_eq!(marks, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn threads_from_defaults_to_one_and_clamps_to_the_host() {
        for (value, want) in [
            (None, 1),
            (Some(""), 1),
            (Some("abc"), 1),
            (Some("0"), 1),
            (Some("-2"), 1),
            (Some(" 3 "), 3),
            (Some("4"), 4),
            (Some("100000"), 4),
        ] {
            assert_eq!(threads_from(value, 4), want, "WCDS_THREADS={value:?}");
        }
        assert_eq!(threads_from(Some("3"), 0), 1, "an unknown host still gets one worker");
    }
}
