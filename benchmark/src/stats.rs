//! Percentiles, quartiles and the `median / q1 / q3 / n` summary every
//! reported metric carries.

/// A reported number with its spread: `value` is what the metric is
/// (a median, a pooled percentile, a ratio of counters), `q1`/`q3` the
/// quartiles of the windows, trials or samples it was taken over, and `n`
/// how many of those there were.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
}

impl Summary {
    /// A number with no spread of its own (a counter ratio, a maximum).
    pub fn point(value: f64, n: u64) -> Self {
        Summary {
            value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// Median and quartiles of `values`.
    pub fn of(values: &[f64]) -> Self {
        let (q1, value, q3) = quartiles(values);
        Summary {
            value,
            q1,
            q3,
            n: values.len() as u64,
        }
    }

    /// A pooled percentile: `value` over all `n` pooled samples, quartiles
    /// over the same percentile taken per window or trial.
    pub fn pooled(value: f64, n: u64, per_part: &[f64]) -> Self {
        let (q1, _, q3) = quartiles(per_part);
        Summary { value, q1, q3, n }
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them, so a spread computed here
/// is the spread the acceptance check computes; except that of two values
/// the quartiles are the values themselves, where Python extrapolates
/// beyond them. Fewer than two values have no spread: all three are the
/// value itself (0 for none).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        m => {
            let cut = |i: usize| {
                let j = (i * (m + 1) / 4).clamp(1, m - 1);
                let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
                ((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0).clamp(v[0], v[m - 1])
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Nearest-rank percentile of an already sorted slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Sort `samples` in place and return its `p`-th percentile.
pub fn percentile_of(samples: &mut [u64], p: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, p)
}

/// `IQR / median` of `values`: the spread the acceptance check compares
/// with a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}
