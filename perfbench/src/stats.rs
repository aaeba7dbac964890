//! Sample arithmetic shared by every workload: percentiles that refuse
//! to speak past their data, fixed one-second throughput windows, and
//! latencies measured from a schedule's due times.

/// Nearest-rank percentile `p` (0 < p < 100) of `sorted` (ascending).
///
/// Returns `None` unless at least ten samples lie above the chosen
/// rank: a tail figure resting on fewer samples is noise, not a
/// measurement.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize; // 1-based
    let idx = rank.clamp(1, n) - 1;
    if n - 1 - idx < 10 {
        return None;
    }
    sorted.get(idx).copied()
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean, `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Completions per window of `window` seconds, counting only the
/// windows that fit entirely inside `[0, span)`. `done_at` holds
/// completion times in seconds since the start of the measured span;
/// completions at or after the last full window are ignored.
pub fn window_counts(done_at: &[f64], window: f64, span: f64) -> Vec<u64> {
    let full = (span / window).floor().max(0.0) as usize;
    let mut counts = vec![0u64; full];
    for &t in done_at {
        if t >= 0.0 {
            if let Some(c) = counts.get_mut((t / window) as usize) {
                *c += 1;
            }
        }
    }
    counts
}

/// Median completions per second over the full one-second windows of
/// `[0, span)`; `None` unless ten windows lie beyond the median.
pub fn windowed_rate(done_at: &[f64], span: f64) -> Option<f64> {
    let counts: Vec<f64> = window_counts(done_at, 1.0, span)
        .iter()
        .map(|&c| c as f64)
        .collect();
    percentile(&sorted(&counts), 50.0)
}

/// Due time, in seconds after the schedule's start, of operation `k` of
/// a fixed-rate schedule with period `period`.
pub fn due_time(k: usize, period: f64) -> f64 {
    k as f64 * period
}

/// Number of operations a fixed-rate schedule issues in `[0, span)`.
pub fn due_count(span: f64, period: f64) -> usize {
    if period <= 0.0 || span <= 0.0 {
        return 0;
    }
    (span / period).ceil() as usize
}

/// Latency of an operation measured from when it was due, not from when
/// the generator got round to sending it: a stall that makes later
/// operations go out late is charged to them (no coordinated omission).
pub fn latency_from_due(due: f64, done: f64) -> f64 {
    done - due
}

/// Time from a write's due time until a reader is first served after
/// the write committed: the end of the first read that started at or
/// after `committed`. `reads` holds `(start, end)` pairs in start
/// order; `None` when no read started after the commit.
pub fn visible_after(due: f64, committed: f64, reads: &[(f64, f64)]) -> Option<f64> {
    let first = reads.partition_point(|&(start, _)| start < committed);
    reads.get(first).map(|&(_, end)| end - due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // rank 10 of 20 leaves exactly ten above it
        assert_eq!(percentile(&v, 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v, 99.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&big, 99.9), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&big, 0.0), None);
        assert_eq!(percentile(&big, 100.0), None);
    }

    #[test]
    fn mean_of_repeats() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn windows_count_only_full_seconds() {
        let done = [0.1, 0.5, 0.99, 1.0, 1.7, 2.2, 2.95, 3.4];
        // span 3.5 s: windows [0,1), [1,2), [2,3); 3.4 is in a partial one
        assert_eq!(window_counts(&done, 1.0, 3.5), vec![3, 2, 2]);
        // three windows are too few for a median with ten beyond it
        assert_eq!(windowed_rate(&done, 3.5), None);
        // window k of 20 holds k + 1 completions; the median is window 9's
        let spread: Vec<f64> = (0..20u32)
            .flat_map(|k| (0..=k).map(move |i| f64::from(k) + f64::from(i) / 100.0))
            .collect();
        assert_eq!(windowed_rate(&spread, 20.0), Some(10.0));
        assert_eq!(windowed_rate(&spread, 19.5), None);
        // negative times (completions before the span) are ignored
        assert_eq!(window_counts(&[-0.1, 0.2], 1.0, 1.0), vec![1]);
    }

    #[test]
    fn due_time_latency_charges_stalls_to_later_ticks() {
        let period = 0.25;
        assert_eq!(due_count(10.0, period), 40);
        assert_eq!(due_count(1.1, period), 5); // due at 0, .25, .5, .75, 1.0
        assert_eq!(due_count(0.0, period), 0);
        // tick 0 stalls for 0.6 s; tick 1 (due 0.25) cannot go out before
        // 0.6 and finishes at 0.61, so it is charged 0.36 s, not 0.01 s
        let done0 = latency_from_due(due_time(0, period), 0.6);
        let done1 = latency_from_due(due_time(1, period), 0.61);
        assert!((done0 - 0.6).abs() < 1e-12);
        assert!((done1 - 0.36).abs() < 1e-12);
        assert!((due_time(3, period) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn visibility_waits_for_the_first_read_after_the_commit() {
        // a write due at 1.0 commits at 1.004; the read in flight then
        // (started 1.003) does not count, the next one (1.2 → 1.21) does
        let reads = [(0.9, 0.95), (1.003, 1.2), (1.2, 1.21), (1.3, 1.31)];
        let v = visible_after(1.0, 1.004, &reads).expect("a read followed");
        assert!((v - 0.21).abs() < 1e-12);
        // a read starting exactly at the commit counts
        let v = visible_after(1.0, 1.2, &reads).expect("a read followed");
        assert!((v - 0.21).abs() < 1e-12);
        assert_eq!(visible_after(1.0, 1.4, &reads), None);
        assert_eq!(visible_after(0.0, 0.0, &[]), None);
    }
}
