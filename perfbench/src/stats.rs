//! Order statistics over timings and counts.

/// Median of `values` (mean of the two middle values for even counts);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of `values`: the value with `k` values above it, where `k`
/// is 10 once there are enough values for that to lie above the median
/// (21 or more) and a quarter of them otherwise.  Returns the value and
/// `k`; (0, 0) when empty.
pub fn tail(values: &[f64]) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0);
    }
    let k = if n >= 21 { 10 } else { n / 4 };
    (v[n - 1 - k], k)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut count) = (0.0, 0usize);
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did not run).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let many: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&many), (20.0, 10));
        assert_eq!(tail(&[4.0, 1.0, 3.0, 2.0, 5.0]), (4.0, 1));
        assert_eq!(tail(&[7.0]), (7.0, 0));
        assert_eq!(mean([1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
