//! Order statistics for small samples of timings.
//!
//! Two consumers with different needs: repeats (n ≤ a few dozen) are
//! summarised by median and quartiles; step latencies from a traced run
//! (thousands of samples) add the highest percentile that still has ten
//! samples beyond it — a percentile with fewer is one or two outliers, not
//! a tail.

/// Median of `values` (mean of the two middle values when `n` is even).
/// Panics on an empty slice: a metric with no samples is a bug upstream.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the same rule the benchmark's acceptance check applies to ten runs, so
/// a spread printed here is the spread that check will see. Needs n ≥ 2.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// n / min / quartiles / max of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let med = median(values);
        let (q1, q3) = if values.len() >= 2 {
            let q = quartiles(values);
            (q[0], q[2])
        } else {
            (med, med)
        };
        Summary {
            n: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median: med,
            q3,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Nearest-rank percentile (`p` in (0, 100]) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a tail may be reported at, highest first, each with the
/// per-mille of samples beyond it (integers, so the rule is exact).
const TAIL_LADDER: [(f64, usize); 5] =
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// The highest percentile of the ladder that has at least ten of `n`
/// samples beyond it, or `None` when even p75 has fewer (n < 40).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .find(|(_, beyond)| n * beyond / 1000 >= 10)
        .map(|&(p, _)| p)
}

/// Median plus the reportable tail of a latency sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)`; `None` when n is too small for any tail.
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Latency {
            n: v.len(),
            p50: percentile_sorted(&v, 50.0),
            tail: tail_percentile(v.len()).map(|p| (p, percentile_sorted(&v, p))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from CPython 3.11:
    /// `statistics.quantiles([1..10], n=4)` and two uneven samples.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), [2.0, 5.0, 8.0]);
    }

    #[test]
    fn summary_of_one_and_many() {
        let one = Summary::of(&[2.5]);
        assert_eq!(
            (one.n, one.min, one.q1, one.q3, one.max),
            (1, 2.5, 2.5, 2.5, 2.5)
        );
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (5, 1.0, 2.0, 5.0, 8.0, 9.0)
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[4.0], 99.0), 4.0);
    }

    /// The "ten samples beyond" rule: p99 needs 1000 samples, p90 needs 100,
    /// p75 needs 40, and below that no tail is reported at all.
    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(7), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let few = Latency::of(&[1.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!((few.n, few.p50, few.tail), (3, 2.0, None));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = Latency::of(&many).expect("non-empty");
        assert_eq!(l.tail, Some((99.0, 990.0)));
        assert_eq!(Latency::of(&[]), None);
    }
}
