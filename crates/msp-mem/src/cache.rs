//! A set-associative cache model with LRU replacement.

/// Configuration of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Latency of a hit, in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// The paper's 64 KB, 4-way, 64 B-line instruction cache (1-cycle hit).
    pub fn paper_il1() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
            hit_latency: 1,
        }
    }

    /// The paper's 64 KB, 4-way, 64 B-line data cache (4-cycle hit).
    pub fn paper_dl1() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
            hit_latency: 4,
        }
    }

    /// The paper's 1 MB, 8-way, 64 B-line unified L2 (16-cycle hit).
    pub fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 1024 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_latency: 16,
        }
    }

    /// Number of sets implied by the configuration.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    /// The access tick that last touched the line, or `0` for an invalid
    /// line: `access` stamps the incremented tick, so every valid line has
    /// `lru >= 1`.
    lru: u64,
}

// Two words per line: every cache clone (each warm snapshot holds three
// caches) copies these.
const _: () = assert!(std::mem::size_of::<Line>() == 16);

/// A set-associative cache with true-LRU replacement.
///
/// The model tracks presence only (no data): the functional oracle holds the
/// actual values, the cache decides hit/miss latency.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    /// `log2(line_bytes)`: set/tag extraction uses shifts instead of the
    /// integer divisions a runtime line size would otherwise cost on every
    /// access.
    line_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    lines: Vec<Line>,
    tick: u64,
}

impl Cache {
    /// Creates a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, capacity not a
    /// multiple of `ways * line_bytes`, or a non-power-of-two set count).
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.size_bytes > 0 && config.ways > 0 && config.line_bytes > 0,
            "cache dimensions must be non-zero"
        );
        assert_eq!(
            config.size_bytes % (config.ways * config.line_bytes),
            0,
            "capacity must be a whole number of sets"
        );
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            config,
            sets,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            lines: vec![Line { tag: 0, lru: 0 }; sets * config.ways],
            tick: 0,
        }
    }

    /// The configuration of this cache.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & (self.sets - 1)
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr >> (self.line_shift + self.set_shift)
    }

    /// Accesses `addr`, allocating the line on a miss. Returns `true` on a
    /// hit. Reads and writes are treated identically (write-allocate).
    ///
    /// A single pass over the set finds the hit way or, failing that, the
    /// LRU victim (first-minimal tie-break, invalid lines counting as
    /// infinitely old — the same victim the two-pass `find` + `min_by_key`
    /// formulation picked).
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.config.ways;
        let ways = &mut self.lines[base..base + self.config.ways];
        let mut victim = 0;
        let mut victim_age = u64::MAX;
        for (way, line) in ways.iter_mut().enumerate() {
            if line.lru != 0 && line.tag == tag {
                line.lru = self.tick;
                return true;
            }
            // An invalid line's `lru` is 0: the oldest age there is.
            if line.lru < victim_age {
                victim_age = line.lru;
                victim = way;
            }
        }
        ways[victim] = Line {
            tag,
            lru: self.tick,
        };
        false
    }

    /// Checks for presence without updating LRU state.
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.config.ways;
        self.lines[base..base + self.config.ways]
            .iter()
            .any(|l| l.lru != 0 && l.tag == tag)
    }

    /// Invalidates the whole cache (used between benchmark runs).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            line.lru = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16-byte lines = 128 bytes.
        Cache::new(CacheConfig {
            size_bytes: 128,
            ways: 2,
            line_bytes: 16,
            hit_latency: 1,
        })
    }

    #[test]
    fn paper_configurations_are_consistent() {
        assert_eq!(CacheConfig::paper_il1().sets(), 256);
        assert_eq!(CacheConfig::paper_dl1().sets(), 256);
        assert_eq!(CacheConfig::paper_l2().sets(), 2048);
        let c = Cache::new(CacheConfig::paper_l2());
        assert_eq!(c.config().hit_latency, 16);
    }

    #[test]
    fn miss_then_hit_on_same_line() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x10f), "same 16-byte line");
        assert!(!c.access(0x110), "next line misses");
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 lines * 16 B = 64 B).
        c.access(0x000);
        c.access(0x040);
        c.access(0x000); // refresh
        c.access(0x080); // evicts 0x040
        assert!(c.probe(0x000));
        assert!(!c.probe(0x040));
        assert!(c.probe(0x080));
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = tiny();
        assert!(!c.probe(0x200));
        // The probe allocated nothing: the first access still misses.
        assert!(!c.access(0x200));
        assert!(c.probe(0x200));
        // Nor does a probe refresh LRU: 0x010 stays the victim of its set.
        c.access(0x010);
        c.access(0x050);
        assert!(c.probe(0x010));
        c.access(0x090);
        assert!(!c.probe(0x010));
        assert!(c.probe(0x050));
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = tiny();
        c.access(0x300);
        c.flush();
        assert!(!c.probe(0x300));
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn inconsistent_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 100,
            ways: 2,
            line_bytes: 16,
            hit_latency: 1,
        });
    }

    proptest! {
        /// A cache with a single set and W ways behaves like an LRU list of
        /// W lines: an address accessed within the last W distinct lines hits.
        #[test]
        fn single_set_behaves_like_lru_list(addrs in proptest::collection::vec(0u64..512, 1..200)) {
            let ways = 4;
            let mut c = Cache::new(CacheConfig {
                size_bytes: ways * 16,
                ways,
                line_bytes: 16,
                hit_latency: 1,
            });
            let mut lru: Vec<u64> = Vec::new(); // most recent last
            for a in addrs {
                let line = a / 16;
                // Move-to-front by position (the list never exceeds `ways`
                // entries, and a line occurs at most once).
                let pos = lru.iter().position(|l| *l == line);
                prop_assert_eq!(c.access(a), pos.is_some());
                if let Some(pos) = pos {
                    lru.remove(pos);
                } else if lru.len() == ways {
                    lru.remove(0);
                }
                lru.push(line);
            }
        }
    }
}
