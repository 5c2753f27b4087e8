//! Summary statistics the workloads report, and the derived ratios of
//! the per-layer table.

/// Fewest samples that must lie beyond a reported percentile, so a
/// quoted tail is a tail and not one unlucky operation.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `q` of
/// the samples at or below it (`q` in `(0, 1]`). `None` for no samples.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median as a nearest-rank percentile (the lower middle sample
/// for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// A nearest-rank percentile that is reported only when at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let rank = (q * samples.len() as f64).ceil() as usize;
    if samples.len().saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    nearest_rank(samples, q)
}

/// Logs a latency sample's size, median and tails to stderr, for
/// figures that are not metrics: they do not repeat between runs on a
/// shared 2-core machine, or only one workload has them (see the
/// README).
pub fn log_latencies(what: &str, samples: &[f64]) {
    eprintln!(
        "{what}: n {}, p50 {:?}, p90 {:?}, p99 {:?}",
        samples.len(),
        median(samples),
        tail(samples, 0.9),
        tail(samples, 0.99)
    );
}

/// Arithmetic mean; `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Work done again by sampled training: nodes the sampled subgraphs of
/// one epoch held, over the nodes of the corpus (1.0 would mean every
/// node was encoded exactly once per epoch).
pub fn reencode_ratio(sampled_nodes_per_epoch: f64, corpus_nodes: usize) -> f64 {
    sampled_nodes_per_epoch / corpus_nodes as f64
}

/// How much slower the last ingests of a stream are than its first:
/// median of the last `window` latencies over the median of the first
/// `window`. 1.0 when ingest cost does not grow with the overlay.
pub fn growth_ratio(latencies: &[f64], window: usize) -> Option<f64> {
    if window == 0 || latencies.len() < window {
        return None;
    }
    let first = median(&latencies[..window])?;
    let last = median(&latencies[latencies.len() - window..])?;
    Some(last / first)
}

/// The router hop: median over paired requests of the routed round
/// trip minus the direct round trip of the same body.
pub fn hop_ms(routed_ms: &[f64], direct_ms: &[f64]) -> Option<f64> {
    assert_eq!(routed_ms.len(), direct_ms.len(), "hop pairs must line up");
    let diffs: Vec<f64> = routed_ms
        .iter()
        .zip(direct_ms)
        .map(|(r, d)| r - d)
        .collect();
    median(&diffs)
}

/// Total length covered by a set of `[start, end)` intervals, counting
/// overlaps once.
pub fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&s, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&s, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.01), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Order of input does not matter.
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s, 0.99), Some(990.0));
        assert_eq!(tail(&s[..999], 0.99), None);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s, 0.9), Some(90.0));
        assert_eq!(tail(&s[..99], 0.9), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn reencode_ratio_is_sampled_over_corpus() {
        assert_eq!(reencode_ratio(35_682.0, 17_841), 2.0);
        assert_eq!(reencode_ratio(0.0, 17_841), 0.0);
    }

    #[test]
    fn growth_ratio_compares_last_window_to_first() {
        let flat = vec![5.0; 400];
        assert_eq!(growth_ratio(&flat, 100), Some(1.0));
        let rising: Vec<f64> = (0..400).map(|i| 1.0 + i as f64).collect();
        // First window median 50 (sample 50 of 1..=100), last 350.
        assert_eq!(growth_ratio(&rising, 100), Some(350.0 / 50.0));
        assert_eq!(growth_ratio(&rising[..50], 100), None);
    }

    #[test]
    fn hop_is_median_of_paired_differences() {
        let routed = [3.0, 2.5, 10.0, 2.6];
        let direct = [2.8, 2.4, 2.0, 2.3];
        // Differences 0.2, 0.1, 8.0, 0.3: the outlier pair does not
        // drag the median, and a mean of the two sides would.
        let hop = hop_ms(&routed, &direct).unwrap();
        assert!((hop - 0.2).abs() < 1e-12, "{hop}");
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(vec![(3, 4)]), 1);
        assert_eq!(union_len(vec![]), 0);
    }
}
