//! Order statistics over small sample sets.

/// The `q`-quantile (`0 < q < 1`) of `values`, by the same rule as
/// Python's `statistics.quantiles(method="exclusive")`: position
/// `q·(n + 1)` in the sorted sample, linearly interpolated and clamped to
/// the sample range (Python extrapolates instead, which only differs for
/// samples of two). The acceptance driver computes quartile spreads with
/// that function, so `compare` follows the same rule.
///
/// # Panics
///
/// Panics on an empty sample or a non-finite value.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = (pos - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the median —
/// the noise figure every bound in `BENCHMARK.json` is compared against.
/// A sample of fewer than two values has no spread.
#[must_use]
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        let v = [64.0, 1.0, 8.0, 2.0, 32.0, 4.0, 16.0];
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(median(&v), 8.0);
        assert_eq!(quantile(&v, 0.75), 32.0);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let w = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&w, 0.25), 1.25);
        assert_eq!(median(&w), 2.5);
        assert_eq!(quantile(&w, 0.75), 3.75);
        // Far tails clamp to the sample range instead of extrapolating.
        assert_eq!(quantile(&w, 0.99), 4.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let w = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quartile_spread(&w), (3.75 - 1.25) / 2.5);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(quartile_spread(&[3.0, 3.0, 3.0]), 0.0);
    }
}
