//! Memory-hierarchy substrate: set-associative caches and TLBs.
//!
//! Implements the hierarchy of the paper's Table 1: 32 KiB 4-way L1
//! instruction and data caches with 64-byte lines and a 20-cycle miss
//! penalty, backed by a shared 512 KiB 2-way L2 with an 80-cycle miss
//! penalty. Caches are write-back/write-allocate with LRU replacement.
//!
//! The caches model *timing only*: data values live in the emulator's
//! memory, so cache lines track tags and state, not contents.
//!
//! # Examples
//!
//! ```
//! use rvp_mem::{CacheConfig, Hierarchy, MemConfig};
//!
//! let mut h = Hierarchy::new(MemConfig::table1());
//! let cold = h.access_data(0x1000, false);
//! let warm = h.access_data(0x1000, false);
//! assert!(cold > warm);
//! assert_eq!(warm, 0); // L1 hit adds no cycles on top of load latency
//! # let _ = CacheConfig::default();
//! ```

mod cache;
mod tlb;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use tlb::{Tlb, TlbConfig};

/// Configuration for the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Cycles added by an L1 miss that hits in L2.
    pub l1_miss_penalty: u64,
    /// Cycles added by an L2 miss (on top of the L1 penalty).
    pub l2_miss_penalty: u64,
    /// Instruction TLB geometry.
    pub itlb: TlbConfig,
    /// Data TLB geometry.
    pub dtlb: TlbConfig,
    /// Cycles added by a TLB miss (software refill).
    pub tlb_miss_penalty: u64,
}

impl MemConfig {
    /// The paper's Table 1 hierarchy. TLB parameters are not given in the
    /// paper; 48-entry I / 64-entry D fully-associative TLBs with 8 KiB
    /// pages and a 30-cycle refill match Alpha 21264-era hardware.
    pub fn table1() -> MemConfig {
        MemConfig {
            l1i: CacheConfig { size_bytes: 32 * 1024, assoc: 4, line_bytes: 64 },
            l1d: CacheConfig { size_bytes: 32 * 1024, assoc: 4, line_bytes: 64 },
            l2: CacheConfig { size_bytes: 512 * 1024, assoc: 2, line_bytes: 64 },
            l1_miss_penalty: 20,
            l2_miss_penalty: 80,
            itlb: TlbConfig { entries: 48, page_bytes: 8 * 1024 },
            dtlb: TlbConfig { entries: 64, page_bytes: 8 * 1024 },
            tlb_miss_penalty: 30,
        }
    }
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig::table1()
    }
}

/// Aggregate statistics for the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyStats {
    /// L1 I-cache accesses / misses.
    pub l1i: CacheStats,
    /// L1 D-cache accesses / misses.
    pub l1d: CacheStats,
    /// L2 accesses / misses.
    pub l2: CacheStats,
    /// ITLB misses.
    pub itlb_misses: u64,
    /// DTLB misses.
    pub dtlb_misses: u64,
}

impl rvp_json::ToJson for HierarchyStats {
    fn to_json(&self) -> rvp_json::Json {
        rvp_json::Json::obj([
            ("l1i", self.l1i.to_json()),
            ("l1d", self.l1d.to_json()),
            ("l2", self.l2.to_json()),
            ("itlb_misses", self.itlb_misses.into()),
            ("dtlb_misses", self.dtlb_misses.into()),
        ])
    }
}

/// A two-level cache hierarchy with TLBs, returning *added* latency per
/// access (0 for an L1 hit with TLB hit).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: MemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    stats: HierarchyStats,
}

impl Hierarchy {
    /// Creates a cold hierarchy.
    pub fn new(config: MemConfig) -> Hierarchy {
        Hierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            stats: HierarchyStats::default(),
            config,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    fn access(
        config: &MemConfig,
        l1: &mut Cache,
        l1_stats: &mut CacheStats,
        l2: &mut Cache,
        l2_stats: &mut CacheStats,
        addr: u64,
        write: bool,
    ) -> u64 {
        l1_stats.accesses += 1;
        if l1.access(addr, write) {
            return 0;
        }
        l1_stats.misses += 1;
        l2_stats.accesses += 1;
        if l2.access(addr, write) {
            return config.l1_miss_penalty;
        }
        l2_stats.misses += 1;
        config.l1_miss_penalty + config.l2_miss_penalty
    }

    /// Performs an instruction fetch of the line containing `addr`;
    /// returns added latency in cycles.
    pub fn access_inst(&mut self, addr: u64) -> u64 {
        let mut extra = 0;
        if !self.itlb.access(addr) {
            self.stats.itlb_misses += 1;
            extra += self.config.tlb_miss_penalty;
        }
        extra
            + Self::access(
                &self.config,
                &mut self.l1i,
                &mut self.stats.l1i,
                &mut self.l2,
                &mut self.stats.l2,
                addr,
                false,
            )
    }

    /// Performs a data access; returns added latency in cycles.
    pub fn access_data(&mut self, addr: u64, write: bool) -> u64 {
        let mut extra = 0;
        if !self.dtlb.access(addr) {
            self.stats.dtlb_misses += 1;
            extra += self.config.tlb_miss_penalty;
        }
        extra
            + Self::access(
                &self.config,
                &mut self.l1d,
                &mut self.stats.l1d,
                &mut self.l2,
                &mut self.stats.l2,
                addr,
                write,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hits() {
        let mut h = Hierarchy::new(MemConfig::table1());
        // Cold: TLB miss + L1 miss + L2 miss.
        assert_eq!(h.access_data(0x1000, false), 30 + 20 + 80);
        assert_eq!(h.access_data(0x1000, false), 0);
        assert_eq!(h.access_data(0x1008, false), 0); // same line
        assert_eq!(h.stats().l1d.accesses, 3);
        assert_eq!(h.stats().l1d.misses, 1);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let cfg = MemConfig {
            l1d: CacheConfig { size_bytes: 128, assoc: 1, line_bytes: 64 },
            ..MemConfig::table1()
        };
        let mut h = Hierarchy::new(cfg);
        h.access_data(0, false);
        // Evicts line 0 from the 2-set direct-mapped L1.
        h.access_data(128, false);
        // L1 miss, but L2 still holds it: only the L1 penalty.
        assert_eq!(h.access_data(0, false), 20);
    }

    #[test]
    fn inst_and_data_l1s_are_separate() {
        let mut h = Hierarchy::new(MemConfig::table1());
        h.access_inst(0x40);
        h.access_data(0x100, false); // warm the DTLB page (different line)
                                     // Data access to the same line still misses L1D (hits shared L2).
        assert_eq!(h.access_data(0x40, false), 20);
    }

    #[test]
    fn stats_track_tlb_misses() {
        let mut h = Hierarchy::new(MemConfig::table1());
        h.access_data(0x0, false);
        h.access_data(1 << 13, false); // next 8 KiB page
        assert_eq!(h.stats().dtlb_misses, 2);
        h.access_data(0x8, false);
        assert_eq!(h.stats().dtlb_misses, 2);
    }
}
