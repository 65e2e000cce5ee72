/// Geometry of a TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
}

impl Default for TlbConfig {
    fn default() -> TlbConfig {
        TlbConfig { entries: 64, page_bytes: 8 * 1024 }
    }
}

/// A fully-associative TLB with LRU replacement. Translation itself is a
/// no-op (the emulator uses physical addresses); the TLB exists to charge
/// refill latency on first touch of each page.
///
/// # Examples
///
/// ```
/// use rvp_mem::{Tlb, TlbConfig};
///
/// let mut t = Tlb::new(TlbConfig { entries: 2, page_bytes: 4096 });
/// assert!(!t.access(0));      // cold
/// assert!(t.access(100));     // same page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// (page number, last-use timestamp)
    entries: Vec<(u64, u64)>,
    clock: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two or `entries` is zero.
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.page_bytes.is_power_of_two(), "page size must be a power of two");
        assert!(config.entries > 0, "TLB must have at least one entry");
        Tlb { config, entries: Vec::with_capacity(config.entries), clock: 0 }
    }

    /// Looks up the page containing `addr`; returns `true` on hit. Misses
    /// install the translation (evicting LRU).
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let page = addr / self.config.page_bytes;
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
            e.1 = self.clock;
            return true;
        }
        if self.entries.len() == self.config.entries {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
                .expect("TLB is non-empty");
            self.entries.swap_remove(lru);
        }
        self.entries.push((page, self.clock));
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_granularity() {
        let mut t = Tlb::new(TlbConfig { entries: 4, page_bytes: 4096 });
        assert!(!t.access(0));
        assert!(t.access(4095));
        assert!(!t.access(4096));
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(TlbConfig { entries: 2, page_bytes: 4096 });
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // touch page 0
        t.access(8192); // page 2 evicts page 1
        assert!(t.access(0));
        assert!(!t.access(4096));
    }

    #[test]
    #[should_panic]
    fn zero_entries_panics() {
        let _ = Tlb::new(TlbConfig { entries: 0, page_bytes: 4096 });
    }
}
