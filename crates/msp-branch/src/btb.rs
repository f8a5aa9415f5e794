//! A set-associative branch target buffer (BTB).
//!
//! Direct branches carry their target in the instruction word, so the BTB is
//! only consulted for indirect jumps and returns (and returns usually hit the
//! return stack first).

/// One BTB entry.
#[derive(Debug, Clone, Copy)]
struct BtbEntry {
    tag: u64,
    target: u64,
    lru: u64,
    valid: bool,
}

/// A set-associative branch target buffer.
#[derive(Debug, Clone)]
pub struct Btb {
    sets: usize,
    ways: usize,
    entries: Vec<BtbEntry>,
    tick: u64,
}

impl Btb {
    /// Creates a BTB with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a non-zero power of two"
        );
        assert!(ways > 0, "ways must be non-zero");
        Btb {
            sets,
            ways,
            entries: vec![
                BtbEntry {
                    tag: 0,
                    target: 0,
                    lru: 0,
                    valid: false
                };
                sets * ways
            ],
            tick: 0,
        }
    }

    /// A typical 4-way, 512-set (2K entry) configuration.
    pub fn default_config() -> Self {
        Btb::new(512, 4)
    }

    fn set_range(&self, pc: u64) -> std::ops::Range<usize> {
        let set = ((pc >> 2) as usize) & (self.sets - 1);
        set * self.ways..(set + 1) * self.ways
    }

    /// Looks up the predicted target for the branch at `pc`.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.tick += 1;
        let range = self.set_range(pc);
        for e in &mut self.entries[range] {
            if e.valid && e.tag == pc {
                e.lru = self.tick;
                return Some(e.target);
            }
        }
        None
    }

    /// Records the resolved target of the branch at `pc`, replacing the LRU
    /// way on a miss.
    pub fn update(&mut self, pc: u64, target: u64) {
        self.tick += 1;
        let range = self.set_range(pc);
        let tick = self.tick;
        // Hit: refresh the existing entry.
        for e in &mut self.entries[range.clone()] {
            if e.valid && e.tag == pc {
                e.target = target;
                e.lru = tick;
                return;
            }
        }
        // Miss: replace an invalid or the least recently used way.
        let victim = self.entries[range.clone()]
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("ways is non-zero");
        let e = &mut self.entries[range][victim];
        *e = BtbEntry {
            tag: pc,
            target,
            lru: tick,
            valid: true,
        };
    }

    /// Total entries in the BTB.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_update() {
        let mut btb = Btb::new(16, 2);
        assert_eq!(btb.lookup(0x1000), None);
        btb.update(0x1000, 0x2000);
        assert_eq!(btb.lookup(0x1000), Some(0x2000));
    }

    #[test]
    fn update_replaces_target_on_hit() {
        let mut btb = Btb::new(16, 2);
        btb.update(0x1000, 0x2000);
        btb.update(0x1000, 0x3000);
        assert_eq!(btb.lookup(0x1000), Some(0x3000));
    }

    #[test]
    fn lru_replacement_within_a_set() {
        let mut btb = Btb::new(1, 2); // single set, 2 ways
        btb.update(0x10, 0xa);
        btb.update(0x20, 0xb);
        // Touch 0x10 so 0x20 becomes LRU, then insert a third branch.
        assert_eq!(btb.lookup(0x10), Some(0xa));
        btb.update(0x30, 0xc);
        assert_eq!(btb.lookup(0x10), Some(0xa), "recently used entry survives");
        assert_eq!(btb.lookup(0x20), None, "LRU entry was evicted");
        assert_eq!(btb.lookup(0x30), Some(0xc));
    }

    #[test]
    fn default_config_capacity() {
        assert_eq!(Btb::default_config().capacity(), 2048);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = Btb::new(3, 2);
    }
}
