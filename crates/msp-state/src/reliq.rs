//! The register-use tracking matrix (RelIQ, Section 3.4).
//!
//! Instead of reference counters, the MSP tracks outstanding uses of each
//! physical register with a bit matrix: one row per physical register in a
//! bank, one column per instruction-queue slot. During source renaming the
//! bit `(register, iq_slot)` is set; when the instruction issues and reads the
//! register the bit is cleared; on a squash the column of the cancelled
//! instruction is cleared (the manager records which bits each slot set, so
//! it clears just those; see `MspStateManager::clear_iq_slot`). The OR of a
//! row (together with the Ready bit) produces the `RelIQ` signal used by the
//! Release Pointer logic.
//!
//! The same matrix also records instructions that *belong to* a state without
//! writing a register (stores, branches): they set a bit in the row of the
//! register that created their state, so the state cannot retire before they
//! complete (Section 3.4, last paragraph).

/// Use-tracking bit matrix for one register bank.
#[derive(Debug, Clone)]
pub struct RelIq {
    rows: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl RelIq {
    /// Creates a matrix for `rows` physical registers and `iq_size`
    /// instruction-queue slots.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, iq_size: usize) -> Self {
        assert!(rows > 0, "a bank needs at least one physical register");
        assert!(iq_size > 0, "the instruction queue needs at least one slot");
        let words_per_row = iq_size.div_ceil(64);
        RelIq {
            rows,
            words_per_row,
            bits: vec![0; rows * words_per_row],
        }
    }

    /// Number of physical-register rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of instruction-queue columns this matrix can track.
    pub fn columns(&self) -> usize {
        self.words_per_row * 64
    }

    fn index(&self, row: usize, col: usize) -> (usize, u64) {
        assert!(row < self.rows, "row out of range");
        assert!(col < self.columns(), "column out of range");
        (row * self.words_per_row + col / 64, 1u64 << (col % 64))
    }

    /// Marks that the instruction in IQ slot `iq_slot` uses (or belongs to the
    /// state of) physical register row `row`.
    pub fn set_use(&mut self, row: usize, iq_slot: usize) {
        let (word, mask) = self.index(row, iq_slot);
        self.bits[word] |= mask;
    }

    /// Clears the use bit after the instruction consumed the value (issue) or
    /// completed execution.
    pub fn clear_use(&mut self, row: usize, iq_slot: usize) {
        let (word, mask) = self.index(row, iq_slot);
        self.bits[word] &= !mask;
    }

    /// Whether a specific use bit is set.
    pub fn is_set(&self, row: usize, iq_slot: usize) -> bool {
        let (word, mask) = self.index(row, iq_slot);
        self.bits[word] & mask != 0
    }

    /// The OR of a whole row: true while any in-flight instruction still needs
    /// this register (the paper's `RelIQ` signal, inverted Ready excluded).
    pub fn any_use(&self, row: usize) -> bool {
        let start = row * self.words_per_row;
        self.bits[start..start + self.words_per_row]
            .iter()
            .any(|w| *w != 0)
    }

    /// Number of outstanding uses in a row (diagnostics only; the hardware
    /// never counts, it only ORs).
    pub fn count_uses(&self, row: usize) -> usize {
        let start = row * self.words_per_row;
        self.bits[start..start + self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Clears an entire row: used when the physical register is released.
    pub fn clear_row(&mut self, row: usize) {
        let start = row * self.words_per_row;
        for w in &mut self.bits[start..start + self.words_per_row] {
            *w = 0;
        }
    }

    /// Clears the whole matrix.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Feeds the raw bit matrix into `hasher` (the matrix has no derived or
    /// statistical state, so the canonical hash covers every word). Used by
    /// the model checker's visited-state dedup.
    pub fn hash_canonical<H: std::hash::Hasher>(&self, hasher: &mut H) {
        use std::hash::Hash;
        self.bits.hash(hasher);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_clear_and_or() {
        let mut m = RelIq::new(4, 48);
        assert!(!m.any_use(2));
        m.set_use(2, 10);
        m.set_use(2, 47);
        assert!(m.any_use(2));
        assert!(m.is_set(2, 10));
        assert_eq!(m.count_uses(2), 2);
        m.clear_use(2, 10);
        assert!(m.any_use(2));
        m.clear_use(2, 47);
        assert!(!m.any_use(2));
    }

    #[test]
    fn release_clears_row() {
        let mut m = RelIq::new(2, 70);
        m.set_use(1, 0);
        m.set_use(1, 69);
        m.clear_row(1);
        assert!(!m.any_use(1));
        assert_eq!(m.count_uses(1), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut m = RelIq::new(3, 10);
        m.set_use(0, 1);
        m.set_use(2, 9);
        m.clear();
        for row in 0..3 {
            assert!(!m.any_use(row));
        }
    }

    #[test]
    fn columns_round_up_to_word() {
        let m = RelIq::new(1, 48);
        assert_eq!(m.columns(), 64);
        let m = RelIq::new(1, 128);
        assert_eq!(m.columns(), 128);
        assert_eq!(m.rows(), 1);
    }

    #[test]
    #[should_panic(expected = "row out of range")]
    fn row_bounds_checked() {
        let mut m = RelIq::new(2, 8);
        m.set_use(2, 0);
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn column_bounds_checked() {
        let mut m = RelIq::new(2, 64);
        m.set_use(0, 64);
    }

    proptest! {
        /// any_use is true exactly when at least one bit in the row is set,
        /// regardless of the set/clear sequence applied.
        #[test]
        fn or_matches_reference(ops in proptest::collection::vec((0usize..6, 0usize..100, proptest::bool::ANY), 0..200)) {
            let mut m = RelIq::new(6, 100);
            let mut reference = vec![std::collections::HashSet::new(); 6];
            for (row, col, set) in ops {
                let col = col % 100;
                if set {
                    m.set_use(row, col);
                    reference[row].insert(col);
                } else {
                    m.clear_use(row, col);
                    reference[row].remove(&col);
                }
            }
            for (row, expected) in reference.iter().enumerate() {
                prop_assert_eq!(m.any_use(row), !expected.is_empty());
                prop_assert_eq!(m.count_uses(row), expected.len());
            }
        }
    }
}
