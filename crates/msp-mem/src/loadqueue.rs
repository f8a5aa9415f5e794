//! The load buffer: a capacity-limited set of in-flight loads.

/// A load queue tracking occupancy of in-flight loads.
///
/// Entries are identified by the dynamic sequence number of the load so they
/// can be removed individually at completion or squashed in bulk on recovery.
#[derive(Debug, Clone)]
pub struct LoadQueue {
    capacity: usize,
    entries: Vec<u64>,
}

impl LoadQueue {
    /// Creates a load queue with `capacity` entries (Table I: 48).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "load queue capacity must be non-zero");
        LoadQueue {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Maximum number of in-flight loads.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds no loads.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue is full (dispatch of another load must stall).
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Inserts the load with dynamic sequence number `seq`.
    ///
    /// Returns `false` (and does not insert) when the queue is full.
    pub fn insert(&mut self, seq: u64) -> bool {
        if self.is_full() {
            return false;
        }
        self.entries.push(seq);
        true
    }

    /// Removes a completed load. The occupancy list is unordered (loads
    /// complete out of order anyway), so this is a find + `swap_remove`
    /// rather than a full compacting scan.
    pub fn remove(&mut self, seq: u64) {
        if let Some(pos) = self.entries.iter().position(|&s| s == seq) {
            self.entries.swap_remove(pos);
        }
    }

    /// Removes every load with a sequence number greater than `seq`
    /// (recovery squash). Returns how many were removed.
    pub fn squash_younger(&mut self, seq: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|&s| s <= seq);
        before - self.entries.len()
    }

    /// Removes every load (used when an entire wrong path is squashed).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_enforced() {
        let mut lq = LoadQueue::new(2);
        assert!(lq.insert(1));
        assert!(lq.insert(2));
        assert!(lq.is_full());
        assert!(!lq.insert(3));
        assert_eq!(lq.len(), 2);
    }

    #[test]
    fn remove_and_squash() {
        let mut lq = LoadQueue::new(8);
        for seq in 1..=6 {
            lq.insert(seq);
        }
        lq.remove(3);
        assert_eq!(lq.len(), 5);
        assert_eq!(lq.squash_younger(4), 2); // removes 5 and 6
        assert_eq!(lq.len(), 3);
        lq.clear();
        assert!(lq.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = LoadQueue::new(0);
    }
}
