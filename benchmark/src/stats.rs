//! Order statistics over small timing samples.

/// Median of `values` (mean of the two middle values for an even count).
/// `values` must not be empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by linear interpolation between the closest
/// ranks (the "inclusive" method). `values` must not be empty.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }
}
