//! Medians and quartiles, as Python's `statistics` module computes them
//! (the acceptance rule is stated in those terms).

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `statistics.quantiles(values, n=4)` (the exclusive method); three
/// NaNs for fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return [f64::NAN; 3];
    }
    [1, 2, 3].map(|k| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Q3 − Q1; 0 for fewer than two values.
pub fn iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    if q1.is_nan() {
        0.0
    } else {
        q3 - q1
    }
}

/// The `q`-quantile (nearest rank) of unsorted integer samples.
pub fn percentile_ns(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let rank = ((samples.len() as f64 * q) as usize).min(samples.len() - 1);
    let (_, v, _) = samples.select_nth_unstable(rank);
    f64::from(*v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(iqr(&v), 5.5);
        assert_eq!(iqr(&[1.0]), 0.0);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]: the
        // exclusive method extrapolates two points.
        assert_eq!(iqr(&[3.0, 1.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let mut ns = [50, 10, 40, 20, 30];
        assert_eq!(percentile_ns(&mut ns, 0.5), 30.0);
    }
}
