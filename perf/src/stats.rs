//! Order statistics over the samples a run collects.

/// Median of `values` (mean of the two middle ones for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `pct`-th percentile (nearest rank) of an ascending slice; 0 if empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as f64 * pct / 100.0) as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Arithmetic mean; 0 for an empty iterator.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}
