//! Seedable, deterministic failpoint framework.
//!
//! Production simulation sweeps die in ways unit tests never exercise:
//! a short read from a cold cache file, a torn write on a full disk, a
//! worker panic deep inside one grid cell. This crate provides *named
//! injection sites* that the trace store, the trace reader and the grid
//! workers consult, and a schedule — parsed once from the `RVP_FAIL`
//! environment variable (or [`configure`] in tests) — that decides
//! deterministically which hits of which site actually fault.
//!
//! # Activation
//!
//! Failpoints are **off** unless `RVP_FAIL` is set (or [`configure`]
//! was called). The disabled fast path is a single relaxed load of a
//! process-wide atomic, so instrumented code costs nothing measurable
//! in release hot paths; all parsing, hashing and bookkeeping live
//! behind that check.
//!
//! # Schedule grammar
//!
//! `RVP_FAIL` is a semicolon-separated list of clauses:
//!
//! ```text
//! seed=42;trace.reader.frame=flip@p0.25;grid.cell.run=panic@2;store.write=io@3+
//! ```
//!
//! * `seed=N` — seeds the per-hit hash for probabilistic triggers.
//! * `<site>=<kind>[@<trigger>][,thread=<substr>]` — arm `site` with a
//!   fault of `kind`:
//!   * kinds: `io` (injected I/O error), `short` (short read), `flip`
//!     (deterministic bit flip in a buffer), `delay<MS>` (sleep MS
//!     milliseconds), `panic`;
//!   * triggers: absent (every hit), `pF` (each hit fires independently
//!     with probability `F`, deterministic in `(seed, site, hit)`),
//!     `N` (only the N-th hit, 1-based), `N+` (the N-th and every later
//!     hit);
//!   * `thread=<substr>` restricts the rule to threads whose name
//!     contains `substr` — unit tests use this (libtest names each test
//!     thread after the test) so concurrently running tests never see
//!     each other's faults.
//!
//! Every evaluation is a pure function of `(seed, site, hit index)`, so
//! a chaos run is reproducible bit-for-bit given the same schedule and
//! a deterministic hit order (e.g. `RVP_THREADS=1`).

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// The faults a site can be armed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with an injected `std::io::Error`.
    Io,
    /// Deliver fewer bytes than asked (the caller decides how).
    ShortRead,
    /// Flip one deterministic bit in the buffer under test.
    BitFlip,
    /// Sleep for the given number of milliseconds, then proceed.
    Delay(u64),
    /// Panic with an identifiable message.
    Panic,
}

impl Fault {
    fn parse(s: &str) -> Option<Fault> {
        match s {
            "io" => Some(Fault::Io),
            "short" => Some(Fault::ShortRead),
            "flip" => Some(Fault::BitFlip),
            "panic" => Some(Fault::Panic),
            _ => {
                let ms = s.strip_prefix("delay")?;
                Some(Fault::Delay(ms.parse().ok()?))
            }
        }
    }
}

/// When an armed site actually fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Every hit.
    Always,
    /// Each hit independently, with this probability.
    Prob(f64),
    /// Only the N-th hit (1-based).
    Nth(u64),
    /// The N-th hit and every one after it.
    From(u64),
}

impl Trigger {
    fn parse(s: &str) -> Option<Trigger> {
        if let Some(p) = s.strip_prefix('p') {
            let p: f64 = p.parse().ok()?;
            return (0.0..=1.0).contains(&p).then_some(Trigger::Prob(p));
        }
        if let Some(n) = s.strip_suffix('+') {
            return Some(Trigger::From(n.parse().ok()?));
        }
        Some(Trigger::Nth(s.parse().ok()?))
    }

    fn fires(self, seed: u64, site: &str, hit: u64) -> bool {
        match self {
            Trigger::Always => true,
            Trigger::Nth(n) => hit == n,
            Trigger::From(n) => hit >= n,
            Trigger::Prob(p) => {
                let x = splitmix64(seed ^ fnv1a(site.as_bytes()) ^ hit.wrapping_mul(HIT_SALT));
                (x as f64 / u64::MAX as f64) < p
            }
        }
    }
}

const HIT_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

#[derive(Debug, Clone, PartialEq)]
struct Rule {
    site: String,
    fault: Fault,
    trigger: Trigger,
    /// Fire only on threads whose name contains this substring.
    thread: Option<String>,
}

#[derive(Debug, Default)]
struct Config {
    seed: u64,
    rules: Vec<Rule>,
}

/// Per-site bookkeeping, kept off the disabled fast path.
#[derive(Debug, Default, Clone, Copy)]
struct SiteStats {
    hits: u64,
    fired: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static CONFIG: RwLock<Option<Config>> = RwLock::new(None);
static ENV_INIT: OnceLock<()> = OnceLock::new();

fn stats() -> &'static Mutex<HashMap<String, SiteStats>> {
    static STATS: OnceLock<Mutex<HashMap<String, SiteStats>>> = OnceLock::new();
    STATS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// 64-bit FNV-1a over `bytes`: the one copy in the workspace (the trace
/// format, journals and content addresses all use it), kept here
/// because this crate has no dependencies.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a`] as a streaming [`Hasher`]: feeding it byte slices one
/// after another hashes their concatenation, so a key made of many
/// fields needs no intermediate buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Parses `spec` into a schedule and arms it process-wide. An empty
/// spec (or `"off"`) disarms everything. Returns a description of the
/// first malformed clause on error, leaving the previous schedule
/// in place.
pub fn configure(spec: &str) -> Result<(), String> {
    let spec = spec.trim();
    if spec.is_empty() || spec == "off" {
        disable();
        return Ok(());
    }
    let mut config = Config::default();
    for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        let (key, value) =
            clause.split_once('=').ok_or_else(|| format!("clause without '=': {clause:?}"))?;
        if key == "seed" {
            config.seed = value.parse().map_err(|_| format!("bad seed: {value:?}"))?;
            continue;
        }
        let mut fault_spec = value;
        let mut thread = None;
        if let Some((head, opt)) = value.split_once(',') {
            fault_spec = head;
            thread = Some(
                opt.strip_prefix("thread=")
                    .ok_or_else(|| format!("unknown rule option: {opt:?}"))?
                    .to_owned(),
            );
        }
        let (kind, trigger) = match fault_spec.split_once('@') {
            Some((kind, trig)) => {
                (kind, Trigger::parse(trig).ok_or_else(|| format!("bad trigger: {trig:?}"))?)
            }
            None => (fault_spec, Trigger::Always),
        };
        let fault = Fault::parse(kind).ok_or_else(|| format!("unknown fault kind: {kind:?}"))?;
        config.rules.push(Rule { site: key.to_owned(), fault, trigger, thread });
    }
    let armed = !config.rules.is_empty();
    *CONFIG.write().expect("failpoint config poisoned") = Some(config);
    stats().lock().expect("failpoint stats poisoned").clear();
    ACTIVE.store(armed, Ordering::Release);
    Ok(())
}

/// Disarms every failpoint (and re-enables the free fast path).
pub fn disable() {
    ACTIVE.store(false, Ordering::Release);
    *CONFIG.write().expect("failpoint config poisoned") = None;
}

fn init_from_env() {
    ENV_INIT.get_or_init(|| {
        // An explicit configure() beats the environment.
        if CONFIG.read().expect("failpoint config poisoned").is_some() {
            return;
        }
        if let Ok(spec) = std::env::var("RVP_FAIL") {
            if let Err(e) = configure(&spec) {
                eprintln!("warning: RVP_FAIL ignored ({e})");
            }
        }
    });
}

/// Whether any failpoint is armed. The disabled path is one relaxed
/// atomic load; instrumented hot code should gate on this.
#[inline]
pub fn active() -> bool {
    init_from_env();
    ACTIVE.load(Ordering::Acquire)
}

/// Evaluates `site` for this hit: bumps the hit counter and returns the
/// armed fault if the schedule says this hit fires. [`Fault::Delay`] is
/// executed (slept) here and still returned, so callers can log it;
/// [`Fault::Panic`] panics here with an identifiable message.
///
/// Returns `None` on the (free) disabled path.
pub fn check(site: &str) -> Option<Fault> {
    if !active() {
        return None;
    }
    check_slow(site)
}

#[cold]
fn check_slow(site: &str) -> Option<Fault> {
    let guard = CONFIG.read().expect("failpoint config poisoned");
    let config = guard.as_ref()?;
    let rule = config.rules.iter().find(|r| r.site == site)?;
    if let Some(substr) = &rule.thread {
        let current = std::thread::current();
        if !current.name().is_some_and(|n| n.contains(substr.as_str())) {
            return None;
        }
    }
    let hit = {
        let mut stats = stats().lock().expect("failpoint stats poisoned");
        let entry = stats.entry(site.to_owned()).or_default();
        entry.hits += 1;
        entry.hits
    };
    if !rule.trigger.fires(config.seed, site, hit) {
        return None;
    }
    let fault = rule.fault;
    drop(guard);
    stats().lock().expect("failpoint stats poisoned").entry(site.to_owned()).or_default().fired +=
        1;
    match fault {
        Fault::Delay(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        Fault::Panic => panic!("injected panic at failpoint {site}"),
        _ => {}
    }
    Some(fault)
}

/// Failpoint for I/O call sites: any fault armed at `site` (other than
/// a pure delay, which just sleeps) becomes an injected
/// `std::io::Error`.
#[inline]
pub fn io_at(site: &str) -> std::io::Result<()> {
    match check(site) {
        None | Some(Fault::Delay(_)) => Ok(()),
        Some(_) => Err(std::io::Error::other(format!("injected fault at failpoint {site}"))),
    }
}

/// Failpoint for buffer call sites: a `flip` fault flips one
/// deterministic bit of `buf` (position keyed by the buffer contents),
/// a `short` fault truncates it by one byte; other faults become the
/// caller's problem via the returned value.
#[inline]
pub fn corrupt_at(site: &str, buf: &mut Vec<u8>) -> Option<Fault> {
    let fault = check(site)?;
    match fault {
        Fault::BitFlip if !buf.is_empty() => {
            let bit = splitmix64(fnv1a(buf)) as usize % (buf.len() * 8);
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        Fault::ShortRead => {
            buf.pop();
        }
        _ => {}
    }
    Some(fault)
}

/// Total faults fired at `site` since the schedule was armed.
pub fn fired(site: &str) -> u64 {
    stats().lock().expect("failpoint stats poisoned").get(site).map_or(0, |s| s.fired)
}

/// All sites that fired at least once, with their fire counts, sorted
/// by site name — the grid embeds this in its summary so a chaos run
/// documents what was injected.
pub fn snapshot() -> Vec<(String, u64)> {
    let stats = stats().lock().expect("failpoint stats poisoned");
    let mut out: Vec<(String, u64)> =
        stats.iter().filter(|(_, s)| s.fired > 0).map(|(k, s)| (k.clone(), s.fired)).collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Failpoint state is process-global (one schedule per process), so
    // the tests that arm schedules serialize on this mutex; the thread
    // filters are belt-and-braces on top.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn streaming_fnv1a_hashes_the_concatenation() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.write(b"rvp-");
        h.write(b"grid");
        assert_eq!(h.finish(), fnv1a(b"rvp-grid"));
    }

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_by_default_and_free() {
        // Never configured on this thread's sites.
        assert_eq!(check("tests.nosite"), None);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _guard = serial();
        configure("tests.nth=io@2,thread=nth_trigger").unwrap();
        assert_eq!(check("tests.nth"), None);
        assert_eq!(check("tests.nth"), Some(Fault::Io));
        assert_eq!(check("tests.nth"), None);
        assert_eq!(fired("tests.nth"), 1);
    }

    #[test]
    fn from_trigger_fires_from_n_onwards() {
        let _guard = serial();
        configure("tests.from=flip@3+,thread=from_trigger").unwrap();
        assert_eq!(check("tests.from"), None);
        assert_eq!(check("tests.from"), None);
        assert_eq!(check("tests.from"), Some(Fault::BitFlip));
        assert_eq!(check("tests.from"), Some(Fault::BitFlip));
    }

    #[test]
    fn probability_is_deterministic_in_seed_and_hit() {
        let _guard = serial();
        let run = |seed: &str| {
            configure(&format!("seed={seed};tests.prob=io@p0.5,thread=probability_is")).unwrap();
            (0..64).map(|_| check("tests.prob").is_some()).collect::<Vec<bool>>()
        };
        let a = run("42");
        let b = run("42");
        let c = run("43");
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(a, c, "different seeds should differ");
        let fires = a.iter().filter(|&&f| f).count();
        assert!((8..=56).contains(&fires), "p=0.5 fired {fires}/64 times");
    }

    #[test]
    fn io_helper_converts_to_error() {
        let _guard = serial();
        configure("tests.io=io,thread=io_helper").unwrap();
        assert!(io_at("tests.io").is_err());
        assert!(io_at("tests.other").is_ok());
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let _guard = serial();
        configure("tests.flip=flip,thread=corrupt_flips").unwrap();
        let original = vec![0u8; 32];
        let mut buf = original.clone();
        assert_eq!(corrupt_at("tests.flip", &mut buf), Some(Fault::BitFlip));
        let flipped: u32 = original.iter().zip(&buf).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn thread_filter_blocks_other_threads() {
        let _guard = serial();
        configure("tests.thread=io,thread=no_such_thread_name").unwrap();
        assert_eq!(check("tests.thread"), None);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _guard = serial();
        for bad in ["tests.x", "tests.x=warp", "tests.x=io@pnan", "seed=x", "tests.x=io,who=1"] {
            assert!(configure(bad).is_err(), "{bad:?} should be rejected");
        }
        // `off` and empty are valid no-ops.
        configure("off").unwrap();
        configure("").unwrap();
    }

    #[test]
    fn panic_fault_panics_with_site_name() {
        let _guard = serial();
        configure("tests.panic=panic,thread=panic_fault").unwrap();
        let err = std::panic::catch_unwind(|| check("tests.panic")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("tests.panic"), "panic message: {msg}");
    }
}
