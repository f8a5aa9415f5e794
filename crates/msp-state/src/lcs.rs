//! The Last Committed StateId (LCS) unit (Section 3.2.2).
//!
//! Every cycle the global control computes `LCS = min(StateId[RelP_i])` over
//! all banks through a binary tree of comparators. Any state strictly older
//! than the LCS can commit, which may commit several states in one cycle. The
//! tree can be pipelined: the paper reports that even a 4-cycle propagation
//! delay costs less than 1% IPC, which the `ablation_lcs` bench reproduces.
//!
//! [`MinTree`] is that comparator tree. The state manager keeps each bank's
//! contribution in one (and each bank's release gate in a second), so a bank
//! whose input changed costs `log2(banks)` comparisons, the LCS reads the
//! root, and a descent from the root finds exactly the banks below a bound.
//! [`LcsUnit`] models the propagation delay of the tree's output.

use crate::stateid::StateId;
use std::collections::VecDeque;

/// A binary tree of `min` comparators over a fixed number of `u64` leaves.
///
/// The tree lives in exactly `2 × leaves` words: leaf `i` at `nodes[leaves +
/// i]`, every inner node `k` in `1..leaves` holding the minimum of its
/// children `2k` and `2k + 1`, the root at `nodes[1]` and `nodes[0]` unused.
/// `min` is commutative, so the root is the minimum of all leaves for any
/// leaf count, a power of two or not.
#[derive(Debug, Clone)]
pub(crate) struct MinTree {
    nodes: Box<[u64]>,
}

impl MinTree {
    /// A tree of `leaves` leaves, each holding `value`.
    pub(crate) fn new(leaves: usize, value: u64) -> Self {
        assert!(leaves >= 1, "a comparator tree needs at least one leaf");
        MinTree {
            nodes: vec![value; 2 * leaves].into_boxed_slice(),
        }
    }

    fn leaves(&self) -> usize {
        self.nodes.len() / 2
    }

    /// The value of leaf `leaf`.
    pub(crate) fn leaf(&self, leaf: usize) -> u64 {
        self.nodes[self.leaves() + leaf]
    }

    /// The minimum over every leaf.
    #[inline]
    pub(crate) fn min(&self) -> u64 {
        self.nodes[1]
    }

    /// Sets leaf `leaf` to `value` and re-derives its ancestors, stopping at
    /// the first one whose minimum does not change.
    #[inline]
    pub(crate) fn set(&mut self, leaf: usize, value: u64) {
        let mut node = self.leaves() + leaf;
        if self.nodes[node] == value {
            return;
        }
        self.nodes[node] = value;
        while node > 1 {
            node /= 2;
            let min = self.nodes[2 * node].min(self.nodes[2 * node + 1]);
            if self.nodes[node] == min {
                return;
            }
            self.nodes[node] = min;
        }
    }

    /// The leaves holding a value below `bound`, one bit per leaf (at most
    /// 64 leaves), found by descending only into subtrees whose minimum is
    /// below it.
    #[inline]
    pub(crate) fn leaves_below(&self, bound: u64) -> u64 {
        let mut found = 0;
        if self.min() < bound {
            self.descend(1, bound, &mut found);
        }
        found
    }

    fn descend(&self, node: usize, bound: u64, found: &mut u64) {
        let leaves = self.leaves();
        if node >= leaves {
            *found |= 1 << (node - leaves);
            return;
        }
        for child in [2 * node, 2 * node + 1] {
            if self.nodes[child] < bound {
                self.descend(child, bound, found);
            }
        }
    }

    /// Whether every inner node holds the minimum of its children.
    pub(crate) fn is_coherent(&self) -> bool {
        (1..self.leaves())
            .all(|node| self.nodes[node] == self.nodes[2 * node].min(self.nodes[2 * node + 1]))
    }
}

/// The LCS reduction unit with a configurable propagation delay.
///
/// A delay of 0 models the ideal MSP (the freshly computed minimum is visible
/// in the same cycle); a delay of 1 models the n-SP configurations of Table I;
/// larger values model a deeper pipelined comparator tree.
#[derive(Debug, Clone)]
pub struct LcsUnit {
    delay: usize,
    /// Values computed in previous cycles that are still propagating.
    in_flight: VecDeque<StateId>,
    /// The value visible to the rest of the machine this cycle.
    visible: StateId,
}

impl LcsUnit {
    /// Creates an LCS unit with the given propagation delay in cycles.
    pub fn new(delay: usize) -> Self {
        LcsUnit {
            delay,
            in_flight: VecDeque::with_capacity(delay + 1),
            visible: StateId::ZERO,
        }
    }

    /// The LCS value currently visible to the commit/release logic.
    pub fn current(&self) -> StateId {
        self.visible
    }

    /// Performs one clock cycle. The caller reduces the per-bank
    /// contributions itself: `minimum` is `min(StateId[RelP_i])` over the
    /// banks that are not idle, or `None` when every bank is idle, in which
    /// case `fallback` (everything allocated so far can commit) is the
    /// computed value. This unit models the comparator tree's propagation
    /// delay. Returns the LCS value visible *this* cycle.
    pub fn clock(&mut self, minimum: Option<StateId>, fallback: StateId) -> StateId {
        let computed = minimum.unwrap_or(fallback);
        if self.delay == 0 {
            self.visible = computed;
        } else {
            self.in_flight.push_back(computed);
            if self.in_flight.len() > self.delay {
                // The value computed `delay` cycles ago becomes visible.
                self.visible = self.in_flight.pop_front().expect("length checked above");
            }
        }
        self.visible
    }

    /// Flushes the propagation pipeline after a recovery so that stale
    /// minimums computed before the squash are discarded, and forces the
    /// visible value to `value`.
    pub fn flush(&mut self, value: StateId) {
        self.in_flight.clear();
        self.visible = value;
    }

    /// Number of computed minimums still propagating through the pipeline
    /// (always zero right after a flush — the recovery audit checks this).
    pub fn pending(&self) -> usize {
        self.in_flight.len()
    }

    /// Feeds the visible value and the in-flight pipeline into `hasher`.
    /// Used by the model checker's visited-state dedup.
    pub fn hash_canonical<H: std::hash::Hasher>(&self, hasher: &mut H) {
        use std::hash::Hash;
        self.visible.as_u64().hash(hasher);
        self.in_flight.len().hash(hasher);
        for v in &self.in_flight {
            v.as_u64().hash(hasher);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_delay_is_immediately_visible() {
        let mut lcs = LcsUnit::new(0);
        let v = lcs.clock(Some(StateId::new(3)), StateId::ZERO);
        assert_eq!(v, StateId::new(3));
        assert_eq!(lcs.current(), StateId::new(3));
    }

    #[test]
    fn delay_postpones_visibility() {
        let mut lcs = LcsUnit::new(2);
        assert_eq!(
            lcs.clock(Some(StateId::new(5)), StateId::ZERO),
            StateId::ZERO
        );
        assert_eq!(
            lcs.clock(Some(StateId::new(6)), StateId::ZERO),
            StateId::ZERO
        );
        // The value computed two cycles ago (5) becomes visible now.
        assert_eq!(
            lcs.clock(Some(StateId::new(7)), StateId::ZERO),
            StateId::new(5)
        );
        assert_eq!(
            lcs.clock(Some(StateId::new(8)), StateId::ZERO),
            StateId::new(6)
        );
    }

    #[test]
    fn idle_banks_are_skipped_and_fallback_used() {
        let mut lcs = LcsUnit::new(0);
        // Some bank is active: its minimum wins over the fallback.
        let v = lcs.clock(Some(StateId::new(9)), StateId::new(100));
        assert_eq!(v, StateId::new(9));
        // Every bank is idle: the fallback is the computed value.
        let v = lcs.clock(None, StateId::new(42));
        assert_eq!(v, StateId::new(42));
    }

    #[test]
    fn flush_discards_in_flight_values() {
        let mut lcs = LcsUnit::new(3);
        for i in 0..3 {
            lcs.clock(Some(StateId::new(100 + i)), StateId::ZERO);
        }
        lcs.flush(StateId::new(4));
        assert_eq!(lcs.current(), StateId::new(4));
        assert_eq!(lcs.pending(), 0);
        // The next computed value goes through a fresh pipeline.
        assert_eq!(
            lcs.clock(Some(StateId::new(50)), StateId::ZERO),
            StateId::new(4)
        );
    }

    proptest! {
        /// After any sequence of leaf writes the root is the minimum of the
        /// leaves and the descent finds exactly the leaves below the bound,
        /// for leaf counts that are powers of two and that are not.
        #[test]
        fn min_tree_matches_a_linear_fold(
            leaves in 1usize..65,
            writes in proptest::collection::vec((0usize..64, 0u64..40), 0..80),
            bound in 0u64..41,
        ) {
            let mut tree = MinTree::new(leaves, u64::MAX);
            let mut reference = vec![u64::MAX; leaves];
            for (leaf, value) in writes {
                let leaf = leaf % leaves;
                tree.set(leaf, value);
                reference[leaf] = value;
            }
            prop_assert_eq!(tree.min(), reference.iter().copied().fold(u64::MAX, u64::min));
            let below = reference
                .iter()
                .enumerate()
                .filter(|(_, &v)| v < bound)
                .fold(0u64, |set, (leaf, _)| set | 1 << leaf);
            prop_assert_eq!(tree.leaves_below(bound), below);
            prop_assert!(tree.is_coherent());
        }

        /// With delay d, the visible value after k > d clocks equals the
        /// value computed d cycles earlier, for arbitrary input sequences.
        /// A round may have every bank idle, in which case its computed
        /// value is that round's fallback.
        #[test]
        fn delayed_value_matches_history(
            rounds in proptest::collection::vec(
                (proptest::collection::vec(0u64..1000, 0..8), 0u64..1000),
                1..40,
            ),
            delay in 0usize..4,
        ) {
            let mut lcs = LcsUnit::new(delay);
            let mut history = Vec::new();
            for (round, fallback) in &rounds {
                let minimum = round.iter().min().map(|v| StateId::new(*v));
                let fallback = StateId::new(*fallback);
                history.push(minimum.unwrap_or(fallback));
                let visible = lcs.clock(minimum, fallback);
                // The value computed `delay` rounds ago, or the reset value
                // while the pipeline is still filling.
                let expected = history
                    .len()
                    .checked_sub(delay + 1)
                    .map_or(StateId::ZERO, |i| history[i]);
                prop_assert_eq!(visible, expected);
            }
        }
    }
}
