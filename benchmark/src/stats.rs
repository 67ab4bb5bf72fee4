//! Order statistics over latency samples, and the process's peak memory.

/// Fewest samples that must lie beyond a tail percentile before it is
/// reported: below this, the percentile is set by one or two stalls.
pub const MIN_BEYOND: usize = 10;

/// Sorts samples ascending; `f64::INFINITY` (a shed request) sorts last.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The `q`-quantile of ascending `sorted` samples, linearly interpolated
/// between the two nearest ranks. `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                let (a, b) = (sorted[lo], sorted[hi]);
                a + (b - a) * (pos - lo as f64)
            }
        }
    }
}

/// Samples that lie strictly beyond the `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// Whether `n` samples support reporting the `q`-quantile: at least
/// [`MIN_BEYOND`] of them lie beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// The rate nine blocks in ten sustain: the tenth percentile of ascending
/// per-block rates.
///
/// The host runs in fast and slow spells lasting seconds, up to 1.6x
/// apart. Slow spells showed up in every run and fast ones in some, so a
/// figure over a whole run flips between spells from run to run, while the
/// value nine blocks in ten meet stays in the slow spell.
pub fn sustained_rate(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.1)
}

/// The latency nine blocks in ten stay within: the 90th percentile of
/// ascending per-block latencies (see [`sustained_rate`] for why).
pub fn sustained_latency(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.9)
}

/// One line on the spread of ascending per-block rates.
pub fn rate_spread(sorted: &[f64]) -> String {
    format!(
        "throughput over {} blocks: p10 {:.1}, p50 {:.1}, p90 {:.1}, max {:.1}",
        sorted.len(),
        quantile(sorted, 0.1),
        quantile(sorted, 0.5),
        quantile(sorted, 0.9),
        quantile(sorted, 1.0)
    )
}

/// Arithmetic mean; `0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn shed_requests_sort_last_as_infinite_latency() {
        let v = sorted(vec![f64::INFINITY, 2.0, 1.0]);
        assert_eq!(v[2], f64::INFINITY);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(100, 0.9));
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.9), 100);
        // A train run's handful of ops supports no tail percentile.
        assert!(!tail_supported(12, 0.9));
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn sustained_figures_sit_in_the_slow_spell() {
        // 70 blocks in a fast spell, 30 in a slow one: the medians sit in
        // the fast spell, the values nine blocks in ten meet in the slow one.
        let rates = sorted([vec![600.0; 70], vec![380.0; 30]].concat());
        assert_eq!(quantile(&rates, 0.5), 600.0);
        assert_eq!(sustained_rate(&rates), 380.0);
        let latencies = sorted([vec![1.5; 70], vec![2.7; 30]].concat());
        assert_eq!(quantile(&latencies, 0.5), 1.5);
        assert_eq!(sustained_latency(&latencies), 2.7);
    }

    #[test]
    fn peak_rss_reads_proc() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().expect("VmHWM present") > 0.0);
        }
    }
}
