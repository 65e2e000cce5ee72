/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (1 = direct mapped).
    pub assoc: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`Cache::new`]).
    pub fn num_sets(&self) -> u64 {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.assoc > 0, "associativity must be positive");
        let sets = self.size_bytes / (self.line_bytes * self.assoc);
        assert!(sets > 0 && sets.is_power_of_two(), "set count must be a positive power of two");
        sets
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig { size_bytes: 32 * 1024, assoc: 4, line_bytes: 64 }
    }
}

/// Access/miss counters for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses (line not present).
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; 0 if there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl rvp_json::ToJson for CacheStats {
    fn to_json(&self) -> rvp_json::Json {
        rvp_json::Json::obj([
            ("accesses", self.accesses.into()),
            ("misses", self.misses.into()),
            ("miss_rate", self.miss_rate().into()),
        ])
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic timestamp for LRU.
    last_use: u64,
}

/// A set-associative, write-back/write-allocate cache with LRU
/// replacement. Tags only — data contents live in the emulator.
///
/// # Examples
///
/// ```
/// use rvp_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 64 });
/// assert!(!c.access(0, false)); // cold miss
/// assert!(c.access(8, false));  // same 64-byte line: hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    clock: u64,
}

impl Cache {
    /// Creates a cold cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two line size
    /// or set count, zero associativity).
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.num_sets();
        Cache {
            config,
            sets: vec![vec![Line::default(); config.assoc as usize]; sets as usize],
            clock: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes;
        let sets = self.sets.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    /// Accesses the line containing `addr`; returns `true` on hit. On a
    /// miss the line is filled (evicting LRU). `write` marks the line
    /// dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.clock += 1;
        let (set, tag) = self.index_and_tag(addr);
        let ways = &mut self.sets[set];
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = self.clock;
            line.dirty |= write;
            return true;
        }
        // Miss: fill into the invalid or least-recently-used way.
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.last_use } else { 0 })
            .expect("associativity is positive");
        *victim = Line { tag, valid: true, dirty: write, last_use: self.clock };
        false
    }

    /// Checks for presence without updating any state.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index_and_tag(addr);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets x 2 ways x 64-byte lines.
        Cache::new(CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 64 })
    }

    #[test]
    fn hit_within_line() {
        let mut c = small();
        assert!(!c.access(0, false));
        assert!(c.access(63, false));
        assert!(!c.access(64, false)); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set 0 holds lines 0, 2, 4, ... (even line numbers).
        c.access(0, false); // line 0
        c.access(128, false); // line 2, same set
        c.access(0, false); // touch line 0: line 2 becomes LRU
        c.access(256, false); // line 4 evicts line 2
        assert!(c.probe(0));
        assert!(!c.probe(128));
        assert!(c.probe(256));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small();
        c.access(0, false); // set 0
        c.access(64, false); // set 1
        c.access(192, false); // set 1
        c.access(320, false); // set 1: evicts line 1 (addr 64)
        assert!(c.probe(0));
        assert!(!c.probe(64));
    }

    #[test]
    fn probe_does_not_fill() {
        let c = small();
        assert!(!c.probe(0));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig { size_bytes: 128, assoc: 1, line_bytes: 64 });
        assert!(!c.access(0, false));
        assert!(!c.access(128, false)); // conflicts with 0
        assert!(!c.access(0, false)); // and back
    }

    #[test]
    #[should_panic]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig { size_bytes: 100, assoc: 3, line_bytes: 60 });
    }

    #[test]
    fn miss_rate() {
        let s = CacheStats { accesses: 8, misses: 2 };
        assert_eq!(s.miss_rate(), 0.25);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
