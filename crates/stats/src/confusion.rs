//! Confusion matrices and F1 accounting.
//!
//! The paper's §IV-F tuning methodology periodically computes, for every
//! entry in every MASCOT table, the F1 score of the predictions that entry
//! provided, then ranks entries by score (Fig. 14). [`F1Accumulator`] is the
//! per-entry bookkeeping object; [`ConfusionMatrix`] is the general-purpose
//! matrix also used for predictor-level accuracy reporting (Fig. 8).

/// A binary confusion matrix with true/false positive/negative counts.
///
/// For memory-dependence prediction the convention throughout this
/// workspace is:
///
/// * **positive** — "this load depends on an in-flight prior store";
/// * **negative** — "this load is independent".
///
/// A *false positive* is therefore a **false dependence** (load stalled for
/// nothing) and a *false negative* is a **missed dependence** (load issued
/// early and squashed).
///
/// # Examples
///
/// ```
/// use mascot_stats::ConfusionMatrix;
///
/// let mut m = ConfusionMatrix::new();
/// m.record(true, true);   // predicted dependent, was dependent
/// m.record(true, false);  // false dependence
/// m.record(false, false); // correctly independent
/// assert_eq!(m.false_positives(), 1);
/// assert!((m.precision() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    tp: u64,
    fp: u64,
    tn: u64,
    fn_: u64,
}

impl ConfusionMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one prediction/outcome pair.
    #[inline]
    pub fn record(&mut self, predicted_positive: bool, actually_positive: bool) {
        match (predicted_positive, actually_positive) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Count of true positives.
    pub fn true_positives(&self) -> u64 {
        self.tp
    }

    /// Count of false positives (false dependencies for MDP).
    pub fn false_positives(&self) -> u64 {
        self.fp
    }

    /// Count of true negatives.
    pub fn true_negatives(&self) -> u64 {
        self.tn
    }

    /// Count of false negatives (missed dependencies for MDP).
    pub fn false_negatives(&self) -> u64 {
        self.fn_
    }

    /// Total number of recorded events.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Total number of mispredictions (`FP + FN`).
    pub fn errors(&self) -> u64 {
        self.fp + self.fn_
    }

    /// Precision `TP / (TP + FP)`; 0 when no positive predictions were made.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Recall `TP / (TP + FN)`; 0 when no positives were observed.
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// Accuracy `(TP + TN) / total`; 0 when empty.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// The F1 score (harmonic mean of precision and recall).
    ///
    /// Returns 0 when either precision or recall is undefined or zero, which
    /// matches the paper's treatment of never-useful entries.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }

    /// Clears all counts.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Periodic F1 accounting for one predictor entry (§IV-F).
///
/// The accumulator records a confusion matrix for the current period. At the
/// end of each period the caller invokes [`F1Accumulator::end_period`], which
/// snapshots the period's F1 score into a running average and resets the
/// matrix, exactly as the tuning methodology describes ("the values are
/// recorded and the F1 scores are reset. The recording from each period is
/// averaged together").
#[derive(Debug, Clone, Default)]
pub struct F1Accumulator {
    current: ConfusionMatrix,
    f1_sum: f64,
    periods: u64,
}

impl F1Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one prediction/outcome pair in the current period.
    #[inline]
    pub fn record(&mut self, predicted_positive: bool, actually_positive: bool) {
        self.current.record(predicted_positive, actually_positive);
    }

    /// The live confusion matrix for the current (unfinished) period.
    pub fn current(&self) -> &ConfusionMatrix {
        &self.current
    }

    /// Ends the current period: snapshots its F1 into the running average
    /// and resets the period matrix.
    pub fn end_period(&mut self) {
        self.f1_sum += self.current.f1();
        self.periods += 1;
        self.current.clear();
    }

    /// Number of completed periods.
    pub fn periods(&self) -> u64 {
        self.periods
    }

    /// Average F1 score across all completed periods (0 if none completed).
    pub fn average_f1(&self) -> f64 {
        if self.periods == 0 {
            0.0
        } else {
            self.f1_sum / self.periods as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_is_all_zero() {
        let m = ConfusionMatrix::new();
        assert_eq!(m.total(), 0);
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f1(), 0.0);
        assert_eq!(m.accuracy(), 0.0);
    }

    #[test]
    fn perfect_predictor_has_f1_one() {
        let mut m = ConfusionMatrix::new();
        for _ in 0..10 {
            m.record(true, true);
            m.record(false, false);
        }
        assert_eq!(m.errors(), 0);
        assert!((m.f1() - 1.0).abs() < 1e-12);
        assert!((m.accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn f1_matches_manual_computation() {
        let mut m = ConfusionMatrix::new();
        // TP=6, FP=2, FN=3, TN=9.
        for _ in 0..6 {
            m.record(true, true);
        }
        for _ in 0..2 {
            m.record(true, false);
        }
        for _ in 0..3 {
            m.record(false, true);
        }
        for _ in 0..9 {
            m.record(false, false);
        }
        let p = 6.0 / 8.0;
        let r = 6.0 / 9.0;
        let expected = 2.0 * p * r / (p + r);
        assert!((m.f1() - expected).abs() < 1e-12);
        assert_eq!(m.errors(), 5);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ConfusionMatrix::new();
        a.record(true, true);
        let mut b = ConfusionMatrix::new();
        b.record(false, true);
        b.record(true, false);
        a.merge(&b);
        assert_eq!(a.true_positives(), 1);
        assert_eq!(a.false_negatives(), 1);
        assert_eq!(a.false_positives(), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn accumulator_averages_over_periods() {
        let mut acc = F1Accumulator::new();
        // Period 1: perfect (F1 = 1).
        acc.record(true, true);
        acc.record(false, false);
        acc.end_period();
        // Period 2: useless (F1 = 0).
        acc.record(false, true);
        acc.end_period();
        assert_eq!(acc.periods(), 2);
        assert!((acc.average_f1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accumulator_resets_matrix_between_periods() {
        let mut acc = F1Accumulator::new();
        acc.record(true, true);
        acc.end_period();
        assert_eq!(acc.current().total(), 0);
    }
}
