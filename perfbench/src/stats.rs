//! Order statistics and the metric list printed at exit.

/// Nearest-rank quantile of an ascending slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted samples (mean of the two middle ones when even).
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, by the rule of Python's
/// `statistics.quantiles(v, n=4)` (exclusive method, which extrapolates
/// past the outer samples when there are few).
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(f64::NAN); 3];
    }
    std::array::from_fn(|k| {
        let i = k as i64 + 1;
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// A metric value: measured (float) or counted (exact integer).
#[derive(Debug, Clone, Copy)]
pub enum Value {
    F(f64),
    U(u64),
}

#[derive(Default)]
pub struct Metrics {
    list: Vec<(String, Value, &'static str)>,
}

impl Metrics {
    pub fn f(&mut self, name: impl Into<String>, v: f64, unit: &'static str) {
        self.list.push((name.into(), Value::F(v), unit));
    }

    pub fn u(&mut self, name: impl Into<String>, v: u64, unit: &'static str) {
        self.list.push((name.into(), Value::U(v), unit));
    }

    /// The `metrics` object of the result line. Floats print with every
    /// digit Rust's shortest round-trip form gives; a non-finite value
    /// prints as `null`.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .list
            .iter()
            .map(|(name, v, unit)| {
                let v = match v {
                    Value::F(x) if x.is_finite() => format!("{x:?}"),
                    Value::F(_) => "null".to_string(),
                    Value::U(x) => x.to_string(),
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50));
        assert_eq!(nearest_rank(&v, 0.99), Some(99));
        assert_eq!(nearest_rank(&v, 1.0), Some(100));
        assert_eq!(nearest_rank::<u32>(&[], 0.5), None);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]),
            [2.75, 5.5, 8.25]
        );
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
    }
}
