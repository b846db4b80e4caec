//! Order statistics and span accounting used by the benchmark's reports.

use flex_obs::SpanEvent;
use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice: the smallest sample with at least
/// `p` of the samples at or below it. Also returns how many samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// Median of the samples (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (NaN for no samples).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartiles, computed like Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method). Needs at least two samples.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: i64| {
        // position (n + 1) * i / 4 in 1-based ranks, linearly interpolated; like Python,
        // the rank is clamped first and the weight may then leave [0, 1] (extrapolation)
        let (n, m) = (n as i64, n as i64 + 1);
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the steadiness figure the benchmark's
/// bounds are checked against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub calls: u64,
    /// Summed durations, children included.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus the part of it its child spans cover.
    pub self_ns: u64,
}

/// Self time per span name, keyed by `(tid, name)`. Spans on one thread nest (they are
/// RAII guards), so a stack sweep in start order finds each span's direct parent; a
/// parent's self time loses the covered part of each direct child.
pub fn self_times(spans: &[SpanEvent]) -> BTreeMap<(u32, &'static str), LayerTime> {
    let mut by_thread: BTreeMap<u32, Vec<&SpanEvent>> = BTreeMap::new();
    for s in spans {
        by_thread.entry(s.tid).or_default().push(s);
    }
    let mut out: BTreeMap<(u32, &'static str), LayerTime> = BTreeMap::new();
    for (tid, mut list) in by_thread {
        // parents first: earlier start, then the longer span at an equal start
        list.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)));
        let mut covered = vec![0u64; list.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, s) in list.iter().enumerate() {
            while let Some(&top) = stack.last() {
                let t = list[top];
                if t.start_ns + t.dur_ns <= s.start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                let p = list[parent];
                let end = (s.start_ns + s.dur_ns).min(p.start_ns + p.dur_ns);
                covered[parent] += end - s.start_ns;
            }
            stack.push(i);
        }
        for (s, cov) in list.iter().zip(covered) {
            let e = out.entry((tid, s.name)).or_default();
            e.calls += 1;
            e.total_ns += s.dur_ns;
            e.self_ns += s.dur_ns.saturating_sub(cov);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some((500.0, 500)));
        assert_eq!(percentile(&v, 0.99), Some((990.0, 10)));
        assert_eq!(percentile(&v, 1.0), Some((1000.0, 0)));
        assert_eq!(percentile(&v, 0.0), Some((1.0, 999)));
        assert_eq!(percentile(&[7.0], 0.99), Some((7.0, 0)));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&v, 1.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    fn span(name: &'static str, tid: u32, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            name,
            tid,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > b [15,25); c [50,60) under root; d on another thread
        let spans = [
            span("b", 1, 15, 10),
            span("root", 1, 0, 100),
            span("c", 1, 50, 10),
            span("a", 1, 10, 30),
            span("d", 2, 5, 500),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&(1, "root")].self_ns, 100 - 30 - 10);
        assert_eq!(t[&(1, "a")].self_ns, 30 - 10);
        assert_eq!(t[&(1, "b")].self_ns, 10);
        assert_eq!(t[&(1, "c")].self_ns, 10);
        assert_eq!(t[&(2, "d")].self_ns, 500);
        assert_eq!(t[&(1, "a")].total_ns, 30);
        // self times on a thread add up to the root's extent
        let sum: u64 = t
            .iter()
            .filter(|((tid, _), _)| *tid == 1)
            .map(|(_, l)| l.self_ns)
            .sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn self_time_handles_siblings_touching_and_equal_starts() {
        // p [0,20) with children x [0,10) and y [10,20); repeated names accumulate
        let spans = [
            span("x", 0, 0, 10),
            span("p", 0, 0, 20),
            span("x", 0, 10, 10),
            span("p", 0, 30, 5),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&(0, "p")].self_ns, 5);
        assert_eq!(t[&(0, "p")].calls, 2);
        assert_eq!(t[&(0, "x")].self_ns, 20);
        assert_eq!(t[&(0, "x")].calls, 2);
    }
}
