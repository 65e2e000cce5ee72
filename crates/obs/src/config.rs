//! Runtime observability configuration.

/// What the simulator should record beyond its always-on aggregate
/// stats and CPI stack.
///
/// The default is fully off: no sampler, no per-PC table, no per-cycle
/// work beyond the O(1) cycle-accounting ladder. The grid and the daemon
/// run this default, so `rvp-perf` measures it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObsConfig {
    /// Cycles per time-series window; `0` disables sampling.
    pub sample_interval: u64,
    /// Maximum retained windows; older windows are dropped (and
    /// counted) once the ring is full.
    pub ring_capacity: usize,
    /// Track per-static-instruction prediction outcomes.
    pub track_pc: bool,
    /// Entries kept in each top-K table of the final report.
    pub top_k: usize,
}

impl ObsConfig {
    /// Everything off; the zero-overhead default.
    pub fn off() -> ObsConfig {
        ObsConfig { sample_interval: 0, ring_capacity: 0, track_pc: false, top_k: 0 }
    }

    /// The standard instrumented configuration: 4096-cycle windows in a
    /// 1024-window ring (~4M cycles of history), per-PC tracking, and
    /// 16-entry top-K tables.
    pub fn standard() -> ObsConfig {
        ObsConfig { sample_interval: 4096, ring_capacity: 1024, track_pc: true, top_k: 16 }
    }

    /// Whether any optional instrumentation is on.
    pub fn enabled(&self) -> bool {
        self.sample_interval > 0 || self.track_pc
    }
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        assert!(!ObsConfig::default().enabled());
        assert!(ObsConfig::standard().enabled());
        assert!(ObsConfig { track_pc: true, ..ObsConfig::off() }.enabled());
    }
}
