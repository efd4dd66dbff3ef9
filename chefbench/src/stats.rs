//! Order statistics for benchmark samples: medians, the quartiles the
//! acceptance procedure uses, and the "highest percentile the sample count
//! supports" rule for latency tails.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    s
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the acceptance procedure measures run-to-run spread
/// with that function, so `compare` must agree with it digit for digit.
/// With fewer than two samples both quartiles are the single sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// The percentiles a tail is chosen from: p90 is what a 200-job rep
/// supports, p99 what the solver's query log (thousands of checks) does.
pub const TAIL_CANDIDATES: [usize; 3] = [50, 90, 99];

/// The highest of p50 / p90 / p99 that still has at least ten samples beyond it
/// among `n` samples (a percentile resting on fewer is mostly noise). The
/// median is the floor: it is reported however few samples there are.
pub fn supported_tail(n: usize) -> f64 {
    let mut best = TAIL_CANDIDATES[0];
    for p in TAIL_CANDIDATES {
        // Samples strictly beyond the nearest-rank position of `p`.
        let rank = (n * p).div_ceil(100);
        if n.saturating_sub(rank) >= 10 {
            best = p;
        }
    }
    best as f64
}

/// Summary of one metric's samples, as result files carry it.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile ([`quartiles`]).
    pub q1: f64,
    /// Third quartile ([`quartiles`]).
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values` (at least one sample).
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let (q1, q3) = quartiles(values);
        Summary {
            n: s.len(),
            median: median(values),
            min: s[0],
            max: s[s.len() - 1],
            q1,
            q3,
        }
    }

    /// Inter-quartile distance as a share of the median: the run-to-run
    /// spread the bounds are compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}
