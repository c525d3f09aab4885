//! Small statistics helpers for experiment reporting.

use up2p_net::SearchOutcome;

/// Accumulator for the mean and percentiles of a series.
#[derive(Debug, Clone, Default)]
pub struct Series {
    values: Vec<f64>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// p-th percentile (p in `[0,100]`; 0 for empty): the sorted
    /// observation at index `round(p/100 · (n−1))`, no interpolation.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }
}

/// What a measured query stream reports, collected from its outcomes —
/// the one tally behind every search table (E3, E5, E6a–d, E11).
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    /// Queries that came back with at least one hit.
    pub answered: usize,
    /// Messages each query cost.
    pub msgs: Series,
    /// Hits each query returned.
    pub hits: Series,
    /// Virtual milliseconds each query took.
    pub latency_ms: Series,
}

impl Tally {
    /// Share of the queries that were answered.
    pub fn recall(&self) -> f64 {
        self.answered as f64 / self.msgs.len() as f64
    }
}

impl FromIterator<SearchOutcome> for Tally {
    fn from_iter<I: IntoIterator<Item = SearchOutcome>>(outcomes: I) -> Tally {
        let mut tally = Tally::default();
        for out in outcomes {
            tally.answered += usize::from(!out.hits.is_empty());
            tally.msgs.push(out.messages as f64);
            tally.hits.push(out.hits.len() as f64);
            tally.latency_ms.push(out.latency as f64 / 1000.0);
        }
        tally
    }
}

/// Precision / recall / F1 of a retrieved set against a relevant set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievalQuality {
    /// |retrieved ∩ relevant| / |retrieved| (1 when nothing retrieved and
    /// nothing relevant).
    pub precision: f64,
    /// |retrieved ∩ relevant| / |relevant| (1 when nothing relevant).
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

/// Computes retrieval quality from id sets.
pub fn retrieval_quality<T: PartialEq>(retrieved: &[T], relevant: &[T]) -> RetrievalQuality {
    let tp = retrieved.iter().filter(|r| relevant.contains(r)).count() as f64;
    let precision = if retrieved.is_empty() {
        if relevant.is_empty() {
            1.0
        } else {
            0.0
        }
    } else {
        tp / retrieved.len() as f64
    };
    let recall = if relevant.is_empty() { 1.0 } else { tp / relevant.len() as f64 };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    RetrievalQuality { precision, recall, f1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_statistics() {
        let mut s = Series::new();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert_eq!(s.percentile(50.0), 3.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn empty_series_is_zeroes() {
        let s = Series::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
    }

    #[test]
    fn quality_perfect_and_partial() {
        let q = retrieval_quality(&[1, 2, 3], &[1, 2, 3]);
        assert_eq!((q.precision, q.recall, q.f1), (1.0, 1.0, 1.0));
        let q = retrieval_quality(&[1, 2, 9, 8], &[1, 2, 3, 4]);
        assert!((q.precision - 0.5).abs() < 1e-12);
        assert!((q.recall - 0.5).abs() < 1e-12);
        assert!((q.f1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quality_edge_cases() {
        let q = retrieval_quality::<u32>(&[], &[]);
        assert_eq!((q.precision, q.recall, q.f1), (1.0, 1.0, 1.0));
        let q = retrieval_quality(&[], &[1]);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.precision, 0.0);
        let q = retrieval_quality(&[1], &[]);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.precision, 0.0);
        assert_eq!(q.f1, 0.0);
    }
}
