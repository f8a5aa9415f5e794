//! Store queues: the baseline's single-level queue and the hierarchical
//! (two-level) store queue used by CPR and the MSP.
//!
//! Stores sit in the store queue from dispatch until their state commits
//! (`tag < commit limit`, where the tag is the checkpoint/StateId order for
//! CPR/MSP and the sequence number for the ROB baseline). Loads search the
//! queue for the youngest older store to the same address (store-to-load
//! forwarding). In the hierarchical queue the level-1 structure is small and
//! fast; overflow entries spill to a large level-2 queue whose associative
//! scan costs extra cycles — the cost the paper calls out for CPR roll-back
//! and forwarding.
//!
//! # Ordering invariant
//!
//! Stores are inserted in program order: strictly increasing `seq` and
//! nondecreasing `tag` (StateIds are assigned in program order, and a
//! recovery removes every younger store before dispatch resumes). The queues
//! exploit this: entries live in ordered deques, commit drains are prefix
//! truncations, recovery squashes are suffix truncations, and forwarding
//! scans backwards from the youngest store so it can stop at the first
//! overlap. Inserting out of order is a logic error (checked by
//! `debug_assert!`).

use std::collections::VecDeque;

/// One store held in a store queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreQueueEntry {
    /// Dynamic sequence number of the store (program order).
    pub seq: u64,
    /// Commit tag: entries with `tag < limit` drain at commit. For the MSP
    /// and CPR this is the StateId (or checkpoint order); for the baseline it
    /// is the sequence number itself.
    pub tag: u64,
    /// Effective byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub width: u64,
    /// Value to be written.
    pub value: u64,
}

impl StoreQueueEntry {
    fn overlaps(&self, addr: u64, width: u64) -> bool {
        let a_end = self.addr + self.width;
        let b_end = addr + width;
        self.addr < b_end && addr < a_end
    }
}

/// The result of a store-queue forwarding search for a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardResult {
    /// A matching older store was found; the load receives `value` after
    /// `latency` extra cycles of queue scan.
    Hit {
        /// Forwarded value.
        value: u64,
        /// Extra scan latency in cycles.
        latency: u64,
    },
    /// No matching older store; the load goes to the cache after `latency`
    /// extra scan cycles.
    Miss {
        /// Extra scan latency in cycles.
        latency: u64,
    },
}

impl ForwardResult {
    /// The extra scan latency regardless of hit/miss.
    pub fn latency(&self) -> u64 {
        match self {
            ForwardResult::Hit { latency, .. } | ForwardResult::Miss { latency } => *latency,
        }
    }

    /// Whether the load was satisfied by forwarding.
    pub fn is_hit(&self) -> bool {
        matches!(self, ForwardResult::Hit { .. })
    }
}

/// Common interface of the store-queue organisations.
pub trait StoreQueue {
    /// Inserts a store at dispatch. Returns `false` (and does not insert)
    /// when the queue is full; dispatch must stall. Stores must arrive in
    /// program order (strictly increasing `seq`, nondecreasing `tag`).
    fn insert(&mut self, entry: StoreQueueEntry) -> bool;

    /// Searches for the youngest store older than `seq` whose footprint
    /// overlaps `[addr, addr + width)`.
    fn forward(&mut self, addr: u64, width: u64, seq: u64) -> ForwardResult;

    /// Removes and returns (in program order) every store whose tag is
    /// strictly below `tag_limit`; the caller writes them to memory.
    fn drain_committed(&mut self, tag_limit: u64) -> Vec<StoreQueueEntry> {
        let mut drained = Vec::new();
        self.drain_committed_with(tag_limit, &mut |e| drained.push(e));
        drained
    }

    /// Allocation-free variant of [`StoreQueue::drain_committed`]: feeds the
    /// drained stores to `sink` in program order. This is the commit-path
    /// the timing simulator uses every cycle.
    fn drain_committed_with(&mut self, tag_limit: u64, sink: &mut dyn FnMut(StoreQueueEntry));

    /// Removes every store with a sequence number greater than `seq`
    /// (recovery). Returns how many were removed.
    fn squash_younger(&mut self, seq: u64) -> usize;

    /// Current occupancy.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the queue cannot accept another store.
    fn is_full(&self) -> bool;

    /// Total capacity.
    fn capacity(&self) -> usize;
}

/// A counting block-presence filter over a store queue level.
///
/// Forwarding searches are by far the hottest store-queue operation and the
/// overwhelmingly common outcome is a miss — which a plain scan can only
/// prove by visiting *every* entry. The filter maintains, per hashed 8-byte
/// block, how many resident stores touch that block; a load whose footprint
/// hits only zero-count slots provably overlaps no store, so the scan is
/// skipped. Slot collisions only ever cause a harmless fall-through to the
/// real scan (no false negatives), so hit/miss outcomes, forwarded values
/// and scan latencies are bit-identical to the unfiltered search.
///
/// The filter is sized from the queue's capacity: a power of two with at
/// least `BLOCK_FILTER_SLOTS_PER_BLOCK` slots per block a full queue can
/// touch, capped at `BLOCK_FILTER_MAX_SLOTS`. Every paper-sized queue (24
/// entries and up) gets the full cap, while a tiny queue — the model
/// checker's clones one per explored state — stays a few hundred bytes.
#[derive(Debug, Clone)]
struct BlockFilter {
    counts: Vec<u32>,
    /// `64 - log2(counts.len())`: the hash keeps the top bits.
    shift: u32,
}

/// Upper bound on the filter size (16 KiB of counters); a power of two.
const BLOCK_FILTER_MAX_SLOTS: usize = 4096;

/// Minimum filter slots per 8-byte block a full queue can occupy (each
/// store touches at most two blocks), keeping a full queue's slot load at
/// or below 1/64.
const BLOCK_FILTER_SLOTS_PER_BLOCK: usize = 64;

impl BlockFilter {
    fn new(capacity: usize) -> Self {
        let slots = capacity
            .max(1)
            .saturating_mul(2 * BLOCK_FILTER_SLOTS_PER_BLOCK)
            .next_power_of_two()
            .min(BLOCK_FILTER_MAX_SLOTS);
        BlockFilter {
            counts: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Hashes an 8-byte block number to a filter slot.
    #[inline]
    fn slot(&self, block: u64) -> usize {
        (block.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The (at most two) 8-byte blocks a byte range touches. Accesses are at
    /// most 8 bytes wide, so a range never straddles more than two blocks.
    #[inline]
    fn blocks(addr: u64, width: u64) -> (u64, u64) {
        (addr >> 3, addr.wrapping_add(width - 1) >> 3)
    }

    #[inline]
    fn add(&mut self, entry: &StoreQueueEntry) {
        let (b0, b1) = Self::blocks(entry.addr, entry.width);
        let s0 = self.slot(b0);
        self.counts[s0] += 1;
        if b1 != b0 {
            let s1 = self.slot(b1);
            self.counts[s1] += 1;
        }
    }

    #[inline]
    fn remove(&mut self, entry: &StoreQueueEntry) {
        let (b0, b1) = Self::blocks(entry.addr, entry.width);
        let s0 = self.slot(b0);
        self.counts[s0] -= 1;
        if b1 != b0 {
            let s1 = self.slot(b1);
            self.counts[s1] -= 1;
        }
    }

    /// Whether any resident store *may* overlap `[addr, addr + width)`.
    /// `false` is definitive; `true` requires the real scan.
    #[inline]
    fn may_overlap(&self, addr: u64, width: u64) -> bool {
        let (b0, b1) = Self::blocks(addr, width);
        self.counts[self.slot(b0)] > 0 || (b1 != b0 && self.counts[self.slot(b1)] > 0)
    }
}

/// Searches an ordered run of stores backwards (youngest first) for the
/// youngest entry older than `seq` that overlaps the load's footprint.
/// Because entries are in ascending `seq` order, the first match from the
/// back is the forwarding store and the scan can stop there.
fn search_youngest_older(
    entries: &VecDeque<StoreQueueEntry>,
    addr: u64,
    width: u64,
    seq: u64,
) -> Option<StoreQueueEntry> {
    entries
        .iter()
        .rev()
        .skip_while(|e| e.seq >= seq)
        .find(|e| e.overlaps(addr, width))
        .copied()
}

/// Pops every leading entry with `tag < tag_limit` into `sink`. Tags are
/// nondecreasing in program order, so the committed set is a prefix.
fn drain_prefix(
    entries: &mut VecDeque<StoreQueueEntry>,
    tag_limit: u64,
    filter: &mut BlockFilter,
    sink: &mut dyn FnMut(StoreQueueEntry),
) {
    while let Some(front) = entries.front() {
        if front.tag >= tag_limit {
            break;
        }
        let drained = entries.pop_front().expect("front exists");
        filter.remove(&drained);
        sink(drained);
    }
}

/// Pops every trailing entry with `seq > seq_limit`. The squashed set is a
/// suffix because entries are in ascending `seq` order.
fn squash_suffix(
    entries: &mut VecDeque<StoreQueueEntry>,
    seq_limit: u64,
    filter: &mut BlockFilter,
) -> usize {
    let mut removed = 0;
    while entries.back().map(|e| e.seq > seq_limit).unwrap_or(false) {
        let squashed = entries.pop_back().expect("back exists");
        filter.remove(&squashed);
        removed += 1;
    }
    removed
}

fn debug_check_insert_order(entries: &VecDeque<StoreQueueEntry>, entry: &StoreQueueEntry) {
    if let Some(back) = entries.back() {
        debug_assert!(
            back.seq < entry.seq && back.tag <= entry.tag,
            "stores must be inserted in program order \
             (got seq {} tag {} after seq {} tag {})",
            entry.seq,
            entry.tag,
            back.seq,
            back.tag
        );
    }
}

/// The baseline's single-level store queue (Table I: 24 entries).
#[derive(Debug, Clone)]
pub struct SimpleStoreQueue {
    capacity: usize,
    entries: VecDeque<StoreQueueEntry>,
    filter: BlockFilter,
}

impl SimpleStoreQueue {
    /// Creates a single-level store queue.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store queue capacity must be non-zero");
        SimpleStoreQueue {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            filter: BlockFilter::new(capacity),
        }
    }

    /// Iterates over the queued stores in program order (oldest first).
    /// Diagnostics and the model checker's occupancy fingerprint; the
    /// pipeline itself only forwards and drains.
    pub fn iter(&self) -> impl Iterator<Item = &StoreQueueEntry> + '_ {
        self.entries.iter()
    }
}

impl StoreQueue for SimpleStoreQueue {
    fn insert(&mut self, entry: StoreQueueEntry) -> bool {
        if self.entries.len() == self.capacity {
            return false;
        }
        debug_check_insert_order(&self.entries, &entry);
        self.filter.add(&entry);
        self.entries.push_back(entry);
        true
    }

    fn forward(&mut self, addr: u64, width: u64, seq: u64) -> ForwardResult {
        if !self.filter.may_overlap(addr, width) {
            return ForwardResult::Miss { latency: 0 };
        }
        match search_youngest_older(&self.entries, addr, width, seq) {
            Some(e) => ForwardResult::Hit {
                value: e.value,
                latency: 0,
            },
            None => ForwardResult::Miss { latency: 0 },
        }
    }

    fn drain_committed_with(&mut self, tag_limit: u64, sink: &mut dyn FnMut(StoreQueueEntry)) {
        drain_prefix(&mut self.entries, tag_limit, &mut self.filter, sink);
    }

    fn squash_younger(&mut self, seq: u64) -> usize {
        squash_suffix(&mut self.entries, seq, &mut self.filter)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The hierarchical store queue of CPR and the MSP (Table I: 48 L1 entries
/// backed by 256 L2 entries).
///
/// New stores enter the L1 queue; when it is full the oldest L1 entries spill
/// to the L2 queue. Forwarding searches the L1 for free and pays
/// `l2_scan_latency` extra cycles when it has to scan the large L2 structure.
#[derive(Debug, Clone)]
pub struct HierarchicalStoreQueue {
    l1_capacity: usize,
    l2_capacity: usize,
    l2_scan_latency: u64,
    /// The young stores. Every L1 entry is younger than every L2 entry
    /// (spills move the oldest L1 entry), so both deques are in ascending
    /// `seq` order and the queue as a whole is the concatenation `l2 ++ l1`.
    l1: VecDeque<StoreQueueEntry>,
    l2: VecDeque<StoreQueueEntry>,
    l1_filter: BlockFilter,
    l2_filter: BlockFilter,
    l2_scans: u64,
}

impl HierarchicalStoreQueue {
    /// Creates a hierarchical store queue.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(l1_capacity: usize, l2_capacity: usize, l2_scan_latency: u64) -> Self {
        assert!(
            l1_capacity > 0 && l2_capacity > 0,
            "store queue capacities must be non-zero"
        );
        HierarchicalStoreQueue {
            l1_capacity,
            l2_capacity,
            l2_scan_latency,
            // Cap the eager reservation: the "unbounded" ideal configuration
            // declares 2^20-entry levels that stay almost empty in practice.
            l1: VecDeque::with_capacity(l1_capacity.min(1024)),
            l2: VecDeque::new(),
            l1_filter: BlockFilter::new(l1_capacity),
            l2_filter: BlockFilter::new(l2_capacity),
            l2_scans: 0,
        }
    }

    /// The paper's configuration: 48 L1 entries, 256 L2 entries, and a
    /// 4-cycle L2 scan.
    pub fn paper() -> Self {
        HierarchicalStoreQueue::new(48, 256, 4)
    }

    /// An effectively unbounded configuration for the ideal MSP.
    pub fn unbounded() -> Self {
        HierarchicalStoreQueue::new(1 << 20, 1 << 20, 0)
    }

    /// Number of forwarding searches that had to scan the L2 queue.
    pub fn l2_scans(&self) -> u64 {
        self.l2_scans
    }

    /// Occupancy of the level-1 queue.
    pub fn l1_len(&self) -> usize {
        self.l1.len()
    }

    /// Occupancy of the level-2 queue.
    pub fn l2_len(&self) -> usize {
        self.l2.len()
    }
}

impl StoreQueue for HierarchicalStoreQueue {
    fn insert(&mut self, entry: StoreQueueEntry) -> bool {
        if self.is_full() {
            return false;
        }
        debug_check_insert_order(&self.l1, &entry);
        if self.l1.len() == self.l1_capacity {
            // Spill the oldest L1 entry (the front) into the L2 queue.
            let spilled = self.l1.pop_front().expect("L1 is full, hence non-empty");
            debug_check_insert_order(&self.l2, &spilled);
            self.l1_filter.remove(&spilled);
            self.l2_filter.add(&spilled);
            self.l2.push_back(spilled);
        }
        self.l1_filter.add(&entry);
        self.l1.push_back(entry);
        true
    }

    fn forward(&mut self, addr: u64, width: u64, seq: u64) -> ForwardResult {
        if self.l1_filter.may_overlap(addr, width) {
            if let Some(e) = search_youngest_older(&self.l1, addr, width, seq) {
                return ForwardResult::Hit {
                    value: e.value,
                    latency: 0,
                };
            }
        }
        if self.l2.is_empty() {
            return ForwardResult::Miss { latency: 0 };
        }
        // Have to scan the large second-level queue. (The architectural scan
        // and its latency happen regardless; the filter only lets the
        // simulator skip walking entries that provably cannot match.)
        self.l2_scans += 1;
        if !self.l2_filter.may_overlap(addr, width) {
            return ForwardResult::Miss {
                latency: self.l2_scan_latency,
            };
        }
        match search_youngest_older(&self.l2, addr, width, seq) {
            Some(e) => ForwardResult::Hit {
                value: e.value,
                latency: self.l2_scan_latency,
            },
            None => ForwardResult::Miss {
                latency: self.l2_scan_latency,
            },
        }
    }

    fn drain_committed_with(&mut self, tag_limit: u64, sink: &mut dyn FnMut(StoreQueueEntry)) {
        // Every L2 entry is older than every L1 entry, so draining L2 first
        // keeps the sink in program order.
        drain_prefix(&mut self.l2, tag_limit, &mut self.l2_filter, sink);
        if self.l2.is_empty() {
            drain_prefix(&mut self.l1, tag_limit, &mut self.l1_filter, sink);
        }
    }

    fn squash_younger(&mut self, seq: u64) -> usize {
        let mut removed = squash_suffix(&mut self.l1, seq, &mut self.l1_filter);
        if self.l1.is_empty() {
            removed += squash_suffix(&mut self.l2, seq, &mut self.l2_filter);
        }
        removed
    }

    fn len(&self) -> usize {
        self.l1.len() + self.l2.len()
    }

    fn is_full(&self) -> bool {
        self.l1.len() == self.l1_capacity && self.l2.len() == self.l2_capacity
    }

    fn capacity(&self) -> usize {
        self.l1_capacity + self.l2_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(seq: u64, addr: u64, value: u64) -> StoreQueueEntry {
        StoreQueueEntry {
            seq,
            tag: seq,
            addr,
            width: 8,
            value,
        }
    }

    #[test]
    fn simple_queue_forwarding_picks_youngest_older_store() {
        let mut sq = SimpleStoreQueue::new(24);
        sq.insert(entry(1, 0x100, 10));
        sq.insert(entry(3, 0x100, 30));
        sq.insert(entry(5, 0x200, 50));
        // A load at seq 4 sees the store at seq 3, not seq 1 or 5.
        assert_eq!(
            sq.forward(0x100, 8, 4),
            ForwardResult::Hit {
                value: 30,
                latency: 0
            }
        );
        // A load at seq 2 sees only the store at seq 1.
        assert_eq!(
            sq.forward(0x100, 8, 2),
            ForwardResult::Hit {
                value: 10,
                latency: 0
            }
        );
        // Different address: miss.
        assert!(!sq.forward(0x300, 8, 10).is_hit());
    }

    #[test]
    fn simple_queue_capacity_and_drain() {
        let mut sq = SimpleStoreQueue::new(2);
        assert!(sq.insert(entry(1, 0, 0)));
        assert!(sq.insert(entry(2, 8, 0)));
        assert!(sq.is_full());
        assert!(!sq.insert(entry(3, 16, 0)));
        let drained = sq.drain_committed(2);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].seq, 1);
        assert_eq!(sq.len(), 1);
        assert_eq!(sq.capacity(), 2);
    }

    #[test]
    fn simple_queue_squash() {
        let mut sq = SimpleStoreQueue::new(8);
        for seq in 1..=5 {
            sq.insert(entry(seq, seq * 8, seq));
        }
        assert_eq!(sq.squash_younger(3), 2);
        assert_eq!(sq.len(), 3);
    }

    #[test]
    fn hierarchical_queue_spills_to_l2() {
        let mut hsq = HierarchicalStoreQueue::new(2, 4, 3);
        for seq in 1..=5 {
            assert!(hsq.insert(entry(seq, seq * 8, seq)));
        }
        assert_eq!(hsq.l1_len(), 2);
        assert_eq!(hsq.l2_len(), 3);
        assert_eq!(hsq.len(), 5);
        // The two youngest stores are still in L1 and forward for free.
        assert_eq!(
            hsq.forward(5 * 8, 8, 100),
            ForwardResult::Hit {
                value: 5,
                latency: 0
            }
        );
        // An old (spilled) store pays the L2 scan latency.
        assert_eq!(
            hsq.forward(8, 8, 100),
            ForwardResult::Hit {
                value: 1,
                latency: 3
            }
        );
        assert_eq!(hsq.l2_scans(), 1);
        // A miss that had to scan the L2 also pays the scan latency.
        assert_eq!(
            hsq.forward(0x999000, 8, 100),
            ForwardResult::Miss { latency: 3 }
        );
    }

    #[test]
    fn hierarchical_queue_full_only_when_both_levels_full() {
        let mut hsq = HierarchicalStoreQueue::new(1, 2, 0);
        assert_eq!(hsq.capacity(), 3);
        for seq in 1..=3 {
            assert!(hsq.insert(entry(seq, seq, 0)));
        }
        assert!(hsq.is_full());
        assert!(!hsq.insert(entry(4, 4, 0)));
    }

    #[test]
    fn hierarchical_drain_and_squash_cover_both_levels() {
        let mut hsq = HierarchicalStoreQueue::new(2, 8, 0);
        for seq in 1..=6 {
            hsq.insert(entry(seq, seq * 8, seq));
        }
        let drained = hsq.drain_committed(3);
        assert_eq!(
            drained.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(hsq.len(), 4);
        assert_eq!(hsq.squash_younger(4), 2);
        assert_eq!(hsq.len(), 2);
        assert!(!hsq.is_empty());
    }

    #[test]
    fn paper_and_unbounded_configurations() {
        let paper = HierarchicalStoreQueue::paper();
        assert_eq!(paper.capacity(), 48 + 256);
        let unbounded = HierarchicalStoreQueue::unbounded();
        assert!(unbounded.capacity() > 1_000_000);
    }

    #[test]
    fn overlapping_partial_width_stores_forward() {
        let mut sq = SimpleStoreQueue::new(4);
        sq.insert(StoreQueueEntry {
            seq: 1,
            tag: 1,
            addr: 0x104,
            width: 4,
            value: 7,
        });
        // An 8-byte load covering 0x100..0x108 overlaps the 4-byte store.
        assert!(sq.forward(0x100, 8, 2).is_hit());
        // A load below the store does not overlap.
        assert!(!sq.forward(0x0f8, 8, 2).is_hit());
    }

    /// The unfiltered reference semantics of `forward`: the youngest
    /// resident store older than `seq` whose footprint overlaps the load's,
    /// found without any filter.
    fn reference_scan(
        resident: &[StoreQueueEntry],
        addr: u64,
        width: u64,
        seq: u64,
    ) -> Option<u64> {
        resident
            .iter()
            .rfind(|e| e.seq < seq && e.overlaps(addr, width))
            .map(|e| e.value)
    }

    /// Drives `queue` through `ops` beside a plain `Vec` of its resident
    /// stores and checks every forwarding result against [`reference_scan`].
    /// `levels` returns how many of the youngest stores sit in the free first
    /// level and the scan latency of the rest (`None` for a one-level queue).
    /// Each op is `(kind, addr, width, n)`: insert, forward, drain or
    /// squash, with `width` indexing 1/2/4/8 bytes and `n` picking the
    /// load's sequence number, the drain's tag limit or the squash point.
    fn check_forwarding_against_scan<Q: StoreQueue>(
        queue: &mut Q,
        levels: impl Fn(&Q) -> Option<(usize, u64)>,
        ops: &[(u8, u64, usize, u64)],
    ) -> Result<(), TestCaseError> {
        const WIDTHS: [u64; 4] = [1, 2, 4, 8];
        let mut resident: Vec<StoreQueueEntry> = Vec::new();
        let (mut next_seq, mut tag) = (1u64, 0u64);
        for &(kind, addr, width, n) in ops {
            let width = WIDTHS[width];
            match kind {
                0 => {
                    // Stores share a tag (one StateId) or open a new one.
                    tag += n & 1;
                    let e = StoreQueueEntry {
                        seq: next_seq,
                        tag,
                        addr,
                        width,
                        value: next_seq * 1000 + addr,
                    };
                    let accepted = queue.insert(e);
                    prop_assert_eq!(accepted, resident.len() < queue.capacity());
                    if accepted {
                        resident.push(e);
                    }
                    next_seq += 1;
                }
                1 => {
                    let seq = n % (next_seq + 2);
                    let hit = reference_scan(&resident, addr, width, seq);
                    let want = match levels(queue) {
                        None => match hit {
                            Some(value) => ForwardResult::Hit { value, latency: 0 },
                            None => ForwardResult::Miss { latency: 0 },
                        },
                        Some((l1_len, latency)) => {
                            let split = resident.len() - l1_len;
                            match reference_scan(&resident[split..], addr, width, seq) {
                                Some(value) => ForwardResult::Hit { value, latency: 0 },
                                None if split == 0 => ForwardResult::Miss { latency: 0 },
                                None => match hit {
                                    Some(value) => ForwardResult::Hit { value, latency },
                                    None => ForwardResult::Miss { latency },
                                },
                            }
                        }
                    };
                    prop_assert_eq!(queue.forward(addr, width, seq), want);
                }
                2 => {
                    let limit = n % (tag + 2);
                    let keep = resident.iter().take_while(|e| e.tag < limit).count();
                    let want: Vec<StoreQueueEntry> = resident.drain(..keep).collect();
                    prop_assert_eq!(queue.drain_committed(limit), want);
                }
                _ => {
                    let limit = n % next_seq;
                    let keep = resident.iter().take_while(|e| e.seq <= limit).count();
                    prop_assert_eq!(queue.squash_younger(limit), resident.len() - keep);
                    resident.truncate(keep);
                    // The front end re-fetches after the squashed point.
                    next_seq = limit + 1;
                }
            }
            prop_assert_eq!(queue.len(), resident.len());
        }
        Ok(())
    }

    proptest! {
        /// The filtered `forward` of the one-level queue equals an
        /// unfiltered scan, at every small capacity, under interleaved
        /// inserts, loads, drains and squashes, with partial-width accesses
        /// at byte offsets that straddle 8-byte blocks.
        #[test]
        fn simple_forwarding_matches_brute_force_scan(
            capacity in 1usize..=64,
            ops in proptest::collection::vec((0u8..4, 0u64..48, 0usize..4, 0u64..256), 1..160),
        ) {
            let mut queue = SimpleStoreQueue::new(capacity);
            check_forwarding_against_scan(&mut queue, |_| None, &ops)?;
        }

        /// The same for the two-level queue, including which level a hit
        /// came from (an L2 scan pays its latency, hit or miss).
        #[test]
        fn hierarchical_forwarding_matches_brute_force_scan(
            capacities in (1usize..=8, 1usize..=56),
            ops in proptest::collection::vec((0u8..4, 0u64..48, 0usize..4, 0u64..256), 1..160),
        ) {
            let (l1, l2) = capacities;
            let mut queue = HierarchicalStoreQueue::new(l1, l2, 3);
            check_forwarding_against_scan(
                &mut queue,
                |q: &HierarchicalStoreQueue| Some((q.l1_len(), 3)),
                &ops,
            )?;
        }

        /// The hierarchical and the simple store queue agree on forwarding
        /// results (value and hit-ness) for arbitrary store/load sequences,
        /// as long as capacity is not exceeded.
        #[test]
        fn hierarchical_matches_simple_semantics(
            stores in proptest::collection::vec((0u64..16, 0u64..200u64), 1..40),
            loads in proptest::collection::vec(0u64..16, 1..20),
        ) {
            let mut simple = SimpleStoreQueue::new(64);
            let mut hier = HierarchicalStoreQueue::new(4, 64, 2);
            for (i, (slot, value)) in stores.iter().enumerate() {
                let e = StoreQueueEntry {
                    seq: i as u64 + 1,
                    tag: i as u64 + 1,
                    addr: slot * 8,
                    width: 8,
                    value: *value,
                };
                prop_assert!(simple.insert(e));
                prop_assert!(hier.insert(e));
            }
            let load_seq = stores.len() as u64 + 10;
            for slot in loads {
                let a = simple.forward(slot * 8, 8, load_seq);
                let b = hier.forward(slot * 8, 8, load_seq);
                prop_assert_eq!(a.is_hit(), b.is_hit());
                if let (ForwardResult::Hit { value: va, .. }, ForwardResult::Hit { value: vb, .. }) = (a, b) {
                    prop_assert_eq!(va, vb);
                }
            }
        }
    }
}
