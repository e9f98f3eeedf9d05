//! Order statistics for latency samples: medians and the tail percentile the
//! benchmark reports.

/// The median of `values` (the mean of the two middle values for an even
/// count); `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail latency: the value at `percentile`, taken over `samples` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value sits at (nearest rank, 0–100).
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Number of samples the tail was taken over.
    pub samples: usize,
}

/// The highest percentile that still has at least ten samples beyond it.
///
/// With `n` samples sorted ascending, the sample at rank `r` (1-based) has
/// `n - r` samples beyond it, so the rule picks rank `n - 10` — p90 for 100
/// samples, p99 for 1000. Fewer than eleven samples have no such rank and
/// give `None`.
pub fn tail(values: &[f64]) -> Option<Tail> {
    const BEYOND: usize = 10;
    let sorted = sorted(values);
    let n = sorted.len();
    if n <= BEYOND {
        return None;
    }
    let rank = n - BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=100 shuffled: p90 is the value 90, with 91..=100 beyond it.
        let values: Vec<f64> = (1..=100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.samples, 100);
        assert_eq!(t.value, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        assert_eq!(values.iter().filter(|v| **v > t.value).count(), 10);

        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(eleven.iter().filter(|v| **v > t.value).count(), 10);
        // Twenty samples: the rule lands on the median rank.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&twenty).unwrap();
        assert_eq!(t.value, 10.0);
        assert!((t.percentile - 50.0).abs() < 1e-12);
    }
}
