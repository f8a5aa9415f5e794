//! The branch-confidence estimator used by CPR's checkpoint allocation.
//!
//! CPR (and the paper's CPR baseline, Table I) uses a 64K-entry, 4-bit
//! confidence estimator in the style of Jacobsen, Rotenberg & Smith: a table
//! of *resetting counters* indexed by the branch PC XOR the global history.
//! A counter is incremented when the branch is predicted correctly and reset
//! to zero on a misprediction; a prediction is *high confidence* when the
//! counter is saturated above a threshold. CPR allocates a checkpoint at
//! every low-confidence branch (and at every indirect branch).

/// A JRS-style resetting-counter confidence estimator.
#[derive(Debug, Clone)]
pub struct ConfidenceEstimator {
    table: Vec<u8>,
    index_bits: u32,
    counter_bits: u32,
    threshold: u8,
    history: u64,
}

impl ConfidenceEstimator {
    /// Creates an estimator with `2^index_bits` counters of `counter_bits`
    /// bits each; a branch is high-confidence when its counter is at least
    /// `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is not in `1..=24`, `counter_bits` not in
    /// `1..=8`, or the threshold does not fit in the counter.
    pub fn new(index_bits: u32, counter_bits: u32, threshold: u8) -> Self {
        assert!(
            index_bits > 0 && index_bits <= 24,
            "index bits must be in 1..=24"
        );
        assert!(
            counter_bits > 0 && counter_bits <= 8,
            "counter bits must be in 1..=8"
        );
        assert!(
            u32::from(threshold) < (1 << counter_bits),
            "threshold must fit in the counter"
        );
        ConfidenceEstimator {
            table: vec![0; 1 << index_bits],
            index_bits,
            counter_bits,
            threshold,
            history: 0,
        }
    }

    /// The paper's configuration: 64K entries of 4 bits (Table I), treating a
    /// saturated counter (>= 15) as high confidence.
    pub fn paper() -> Self {
        ConfidenceEstimator::new(16, 4, 15)
    }

    fn index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.index_bits) - 1;
        (((pc >> 2) ^ self.history) & mask) as usize
    }

    /// Whether the upcoming prediction for the branch at `pc` is
    /// high-confidence. CPR allocates a checkpoint when this returns `false`.
    pub fn is_high_confidence(&self, pc: u64) -> bool {
        self.table[self.index(pc)] >= self.threshold
    }

    /// Trains the estimator: `correct` says whether the direction prediction
    /// for the branch at `pc` turned out correct.
    pub fn update(&mut self, pc: u64, correct: bool, taken: bool) {
        let idx = self.index(pc);
        let max = ((1u32 << self.counter_bits) - 1) as u8;
        if correct {
            self.table[idx] = (self.table[idx] + 1).min(max);
        } else {
            self.table[idx] = 0;
        }
        let mask = (1u64 << self.index_bits) - 1;
        self.history = ((self.history << 1) | u64::from(taken)) & mask;
    }

    /// Storage used by the estimator, in bits.
    pub fn storage_bits(&self) -> usize {
        self.table.len() * self.counter_bits as usize
    }
}

impl Default for ConfidenceEstimator {
    fn default() -> Self {
        ConfidenceEstimator::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeatedly_correct_branch_becomes_high_confidence() {
        let mut c = ConfidenceEstimator::paper();
        assert!(
            !c.is_high_confidence(0x1000),
            "cold counters are low confidence"
        );
        // The estimator's history register changes the indexed counter for
        // the first few updates; once the history saturates to all-taken the
        // same counter is trained repeatedly and reaches the threshold.
        for _ in 0..50 {
            c.update(0x1000, true, true);
        }
        assert!(c.is_high_confidence(0x1000));
    }

    #[test]
    fn misprediction_resets_confidence() {
        let mut c = ConfidenceEstimator::new(10, 4, 15);
        for _ in 0..20 {
            c.update(0x40, true, false);
        }
        assert!(c.is_high_confidence(0x40));
        c.update(0x40, false, true);
        assert!(!c.is_high_confidence(0x40));
    }

    #[test]
    fn paper_configuration_is_64k_by_4_bits() {
        let c = ConfidenceEstimator::paper();
        assert_eq!(c.storage_bits(), 65536 * 4);
    }

    #[test]
    #[should_panic(expected = "threshold must fit")]
    fn oversized_threshold_rejected() {
        let _ = ConfidenceEstimator::new(10, 2, 4);
    }
}
