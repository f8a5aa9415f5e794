//! The cache hierarchy shared by every simulated machine (Table I).

use crate::cache::{Cache, CacheConfig};

/// Configuration of the full memory subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Instruction L1 cache.
    pub il1: CacheConfig,
    /// Data L1 cache.
    pub dl1: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Main-memory access latency in cycles.
    pub memory_latency: u64,
}

impl MemoryConfig {
    /// The paper's memory subsystem (Table I): 64 KB 4-way IL1 (1 cycle),
    /// 64 KB 4-way DL1 (4 cycles), 1 MB 8-way L2 (16 cycles), 380-cycle main
    /// memory, 64-byte lines.
    pub fn paper() -> Self {
        MemoryConfig {
            il1: CacheConfig::paper_il1(),
            dl1: CacheConfig::paper_dl1(),
            l2: CacheConfig::paper_l2(),
            memory_latency: 380,
        }
    }

    /// A small configuration with short latencies for fast unit tests.
    pub fn small() -> Self {
        MemoryConfig {
            il1: CacheConfig {
                size_bytes: 4 * 1024,
                ways: 2,
                line_bytes: 64,
                hit_latency: 1,
            },
            dl1: CacheConfig {
                size_bytes: 4 * 1024,
                ways: 2,
                line_bytes: 64,
                hit_latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 4,
                line_bytes: 64,
                hit_latency: 8,
            },
            memory_latency: 100,
        }
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig::paper()
    }
}

/// The instruction/data cache hierarchy. Latency-returning accessors let the
/// pipeline charge the right number of cycles without modelling MSHRs
/// explicitly (misses to the same line within a short window still each pay
/// the miss latency; the large instruction window hides most of it, which is
/// exactly the behaviour large-window proposals rely on).
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: MemoryConfig,
    il1: Cache,
    dl1: Cache,
    l2: Cache,
}

impl MemoryHierarchy {
    /// Creates the hierarchy from its configuration.
    pub fn new(config: MemoryConfig) -> Self {
        MemoryHierarchy {
            il1: Cache::new(config.il1),
            dl1: Cache::new(config.dl1),
            l2: Cache::new(config.l2),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// Latency in cycles of fetching the instruction at `pc`.
    pub fn fetch_latency(&mut self, pc: u64) -> u64 {
        if self.il1.access(pc) {
            self.config.il1.hit_latency
        } else if self.l2.access(pc) {
            self.config.il1.hit_latency + self.config.l2.hit_latency
        } else {
            self.config.il1.hit_latency + self.config.l2.hit_latency + self.config.memory_latency
        }
    }

    /// Latency in cycles of a data load from `addr`.
    pub fn load_latency(&mut self, addr: u64) -> u64 {
        if self.dl1.access(addr) {
            self.config.dl1.hit_latency
        } else if self.l2.access(addr) {
            self.config.dl1.hit_latency + self.config.l2.hit_latency
        } else {
            self.config.dl1.hit_latency + self.config.l2.hit_latency + self.config.memory_latency
        }
    }

    /// Performed when a committed store drains to memory; allocates the line
    /// so later loads hit. The store latency itself is hidden by the store
    /// queue, so no cycle count is returned — instead the return value says
    /// whether the line was already resident in the D-cache (`false` means
    /// the drain also touched the L2), which is what the pipeline's
    /// activity accounting needs.
    pub fn store_commit(&mut self, addr: u64) -> bool {
        let dl1_hit = self.dl1.access(addr);
        if !dl1_hit {
            self.l2.access(addr);
        }
        dl1_hit
    }

    /// Whether a load from `addr` would hit the D-cache right now (no state
    /// change).
    pub fn probe_dl1(&self, addr: u64) -> bool {
        self.dl1.probe(addr)
    }
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        MemoryHierarchy::new(MemoryConfig::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_latency_chain_matches_paper_levels() {
        let mut mem = MemoryHierarchy::new(MemoryConfig::paper());
        // Cold: DL1 miss + L2 miss + memory.
        assert_eq!(mem.load_latency(0x10_0000), 4 + 16 + 380);
        // Warm: DL1 hit.
        assert_eq!(mem.load_latency(0x10_0000), 4);
        // The miss allocated the whole line in the D-cache.
        assert!(mem.probe_dl1(0x10_0000 + 63));
    }

    #[test]
    fn l2_hit_latency_between_l1_and_memory() {
        let mut mem = MemoryHierarchy::new(MemoryConfig::small());
        // Touch enough distinct lines to overflow the tiny DL1 (4 KB / 64 B =
        // 64 lines) but stay within the 32 KB L2.
        for i in 0..128u64 {
            mem.load_latency(0x2_0000 + i * 64);
        }
        // The first lines were evicted from DL1 but still live in L2.
        let lat = mem.load_latency(0x2_0000);
        assert_eq!(lat, 2 + 8);
    }

    #[test]
    fn fetch_uses_instruction_cache() {
        let mut mem = MemoryHierarchy::new(MemoryConfig::paper());
        let cold = mem.fetch_latency(0x1000);
        let warm = mem.fetch_latency(0x1000);
        assert!(cold > warm);
        assert_eq!(warm, 1);
        // Fetches leave the data side untouched.
        assert!(!mem.probe_dl1(0x1000));
    }

    #[test]
    fn store_commit_warms_the_data_cache() {
        let mut mem = MemoryHierarchy::new(MemoryConfig::paper());
        assert!(!mem.store_commit(0x9000), "cold drain misses the D-cache");
        assert_eq!(mem.load_latency(0x9000), 4);
        assert!(mem.probe_dl1(0x9000));
        assert!(mem.store_commit(0x9000), "warm drain hits the D-cache");
    }

    #[test]
    fn config_accessor() {
        let mem = MemoryHierarchy::default();
        assert_eq!(mem.config().memory_latency, 380);
    }
}
