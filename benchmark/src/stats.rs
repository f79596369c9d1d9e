//! Order statistics and the regression rule.

use crate::spec::{Better, Metric, SETUP_SLACK_S};

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
}

pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    let n = values.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The highest percentile of the reporting ladder that still has at least
/// ten samples beyond it; a tail read off fewer samples is one or two
/// outliers, not a percentile. `None` below twenty samples.
pub fn highest_percentile(samples: usize) -> Option<f64> {
    // (percentile, samples beyond it per thousand)
    const LADDER: [(f64, usize); 6] = [
        (99.9, 1),
        (99.0, 10),
        (95.0, 50),
        (90.0, 100),
        (75.0, 250),
        (50.0, 500),
    ];
    LADDER
        .into_iter()
        .find(|(_, beyond)| samples * beyond >= 10_000)
        .map(|(p, _)| p)
}

/// Share by which `new` is worse than `base` (negative when it is better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Higher => (base - new) / base,
        Better::Lower => (new - base) / base,
    }
}

/// The regression rule of `--repeat-check`: `new` may be worse than `base`
/// by the metric's bound; `setup_s` may also move by [`SETUP_SLACK_S`].
pub fn within_bound(metric: &Metric, base: f64, new: f64) -> bool {
    let slack = if metric.name == "setup_s" {
        SETUP_SLACK_S / base
    } else {
        0.0
    };
    worse_by(metric.better, base, new) <= metric.bound.max(slack)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(999), Some(95.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn metric(name: &'static str, better: Better, bound: f64) -> Metric {
        Metric {
            name,
            unit: "",
            better,
            bound,
        }
    }

    #[test]
    fn bound_comparison_follows_direction() {
        let ops = metric("ops_per_s", Better::Higher, 0.07);
        assert!(within_bound(&ops, 1000.0, 940.0));
        assert!(!within_bound(&ops, 1000.0, 920.0));
        assert!(within_bound(&ops, 1000.0, 5000.0));
        let p50 = metric("op_p50_us", Better::Lower, 0.07);
        assert!(within_bound(&p50, 100.0, 106.0));
        assert!(!within_bound(&p50, 100.0, 108.0));
        assert!(within_bound(&p50, 100.0, 10.0));
    }

    #[test]
    fn setup_bound_is_share_or_fifty_ms_whichever_is_larger() {
        let setup = metric("setup_s", Better::Lower, 0.10);
        // 0.1 s base: the share allows 10 ms, the slack 50 ms.
        assert!(within_bound(&setup, 0.1, 0.145));
        assert!(!within_bound(&setup, 0.1, 0.16));
        // 1 s base: the share (100 ms) is the larger.
        assert!(within_bound(&setup, 1.0, 1.09));
        assert!(!within_bound(&setup, 1.0, 1.11));
    }
}
