//! Host-speed calibration: a probe that times short slices of a fixed
//! kernel on every worker core while the program under test runs, so
//! each sub-run's time can be read at one nominal host speed.
//!
//! On a small virtual machine sharing its host, neighbours slow the
//! simulator by up to 2× in waves of seconds to minutes, and no
//! statistic inside a run removes waves longer than the run. The probe
//! measures them where they happen: one thread per core, pinned to it,
//! wakes every [`PERIOD`] and runs [`SLICE_STEPS`] steps of the kernel
//! (about 2.5 ms), preempting the program under test, which runs at the
//! lowest priority ([`crate::sut::command`]). The kernel is built like
//! the simulator's hot loop — a pseudo-random instruction stream driving
//! predictor tables, a set-associative tag array and a reorder ring,
//! with data-dependent branches, in about 700 KB — and, sharing the
//! core and its caches with the program slice by slice, it slows with
//! the program. A sub-run's slowdown is the median slice during it over
//! [`NOMINAL_SLICE_S`].
//!
//! Timing kernel bursts between sub-runs instead tracked the waves less
//! well: the simulator slows more steeply than an idle kernel does, and
//! waves of a second or two fall between the bursts.
//!
//! The kernel, the slice and the nominal time are the benchmark's
//! yardstick: a change to any of them changes every scaled metric, so
//! they stay as they are.

use std::ffi::c_int;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::median;
use crate::SUT_WORKERS;

/// Kernel steps per probe slice: about 2.5 ms on an undisturbed host.
const SLICE_STEPS: u64 = 150_000;

/// How often each probe thread runs a slice: the probe takes about a
/// twentieth of every core.
const PERIOD: Duration = Duration::from_millis(50);

/// A slice's time on an undisturbed host of the kind the baseline was
/// taken on (2-vCPU Sapphire Rapids VM), interleaved with a busy
/// program under test: the speed the scaled metrics are read at.
pub const NOMINAL_SLICE_S: f64 = 0.0025;

/// The calibration kernel's state, kept from slice to slice so that a
/// slice times the kernel's steps, not its allocation.
struct Kernel {
    pht: Vec<u8>,
    tags: Vec<u64>,
    lru: Vec<u8>,
    values: Vec<u64>,
    conf: Vec<u8>,
    rob: Vec<u64>,
    head: usize,
    hist: u64,
    pc: u64,
    s: u64,
    step: u64,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            pht: vec![1; 1 << 14],
            tags: vec![0; 1024 * 8],
            lru: vec![0; 1024 * 8],
            values: vec![0; 1 << 16],
            conf: vec![0; 1 << 16],
            rob: vec![0; 256],
            head: 0,
            hist: 0,
            pc: 0,
            s: 0x9E37_79B9_7F4A_7C15,
            step: 0,
        }
    }

    /// Runs `steps` more steps; returns a value that depends on each.
    fn run(&mut self, steps: u64) -> u64 {
        let mut hits = 0u64;
        for _ in 0..steps {
            let mut s = self.s;
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            self.s = s;
            let kind = (s >> 60) as u8;
            self.pc = self.pc.wrapping_add(4) ^ ((s & 0xff0) * u64::from(kind & 1));
            match kind {
                // Value prediction: a last-value table with confidence.
                0..=5 => {
                    let k = ((self.pc >> 2) as usize ^ self.hist as usize) & 0xffff;
                    let v = s & 0xfff;
                    if self.values[k] == v {
                        self.conf[k] = (self.conf[k] + 1).min(3);
                        hits += 1;
                    } else {
                        self.conf[k] = 0;
                        self.values[k] = v;
                    }
                }
                // Load: an 8-way, 1024-set tag array with LRU ages.
                6..=10 => {
                    let addr = (s >> 20) & 0x3ff_ffff;
                    let base = ((addr >> 6) & 1023) as usize * 8;
                    let tag = addr >> 16;
                    let mut found = false;
                    for w in base..base + 8 {
                        if self.tags[w] == tag {
                            found = true;
                            self.lru[w] = 0;
                        } else {
                            self.lru[w] = self.lru[w].saturating_add(1);
                        }
                    }
                    if found {
                        hits += 1;
                    } else {
                        let (mut victim, mut oldest) = (base, 0);
                        for (w, &age) in self.lru[base..base + 8].iter().enumerate() {
                            if age >= oldest {
                                oldest = age;
                                victim = base + w;
                            }
                        }
                        self.tags[victim] = tag;
                        self.lru[victim] = 0;
                    }
                }
                // Branch: a two-bit counter table indexed by global history.
                _ => {
                    let idx = ((self.pc >> 2) ^ self.hist) as usize & 0x3fff;
                    let taken = (s >> 5) & 3 != 0;
                    if (self.pht[idx] >= 2) == taken {
                        hits += 1;
                    }
                    if taken {
                        self.pht[idx] = (self.pht[idx] + 1).min(3);
                    } else {
                        self.pht[idx] = self.pht[idx].saturating_sub(1);
                    }
                    self.hist = ((self.hist << 1) | u64::from(taken)) & 0x3fff;
                }
            }
            self.rob[self.head] = s ^ self.step;
            self.head = (self.head + 1) & 255;
            self.step += 1;
        }
        hits ^ self.rob[17]
    }
}

/// One timed slice: when it started and how long it took, seconds.
#[derive(Debug, Clone, Copy)]
struct Slice {
    at: Instant,
    seconds: f64,
}

extern "C" {
    /// glibc's `sched_setaffinity(2)` wrapper.
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// Pins the calling thread to CPU `cpu` (below 64); false when the
/// host refuses, and the thread then runs wherever it is scheduled.
fn pin_to(cpu: usize) -> bool {
    let mask: u64 = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized u64 for the duration of the
    // call and the size passed is exactly its size; pid 0 names the
    // calling thread. The kernel reads the mask and keeps no pointer.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// The running probe. Stop it with [`Probe::finish`]; dropping it stops
/// and joins its threads too.
pub struct Probe {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<Vec<Slice>>>,
}

impl Probe {
    /// Starts one probe thread per worker core, each pinned to its own
    /// core of those this machine has.
    pub fn start() -> Probe {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..SUT_WORKERS)
            .map(|k| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    pin_to(k % cores);
                    let mut kernel = Kernel::new();
                    let mut slices = Vec::new();
                    let mut next = Instant::now();
                    while !stop.load(Ordering::SeqCst) {
                        next += PERIOD;
                        std::thread::sleep(next.saturating_duration_since(Instant::now()));
                        let at = Instant::now();
                        black_box(kernel.run(black_box(SLICE_STEPS)));
                        slices.push(Slice { at, seconds: at.elapsed().as_secs_f64() });
                    }
                    slices
                })
            })
            .collect();
        Probe { stop, threads }
    }

    /// Stops the probe threads and returns every slice they timed.
    pub fn finish(mut self) -> Calibration {
        let mut slices = self.join();
        slices.sort_by_key(|s| s.at);
        Calibration { slices }
    }

    fn join(&mut self) -> Vec<Slice> {
        self.stop.store(true, Ordering::SeqCst);
        self.threads.drain(..).flat_map(|t| t.join().expect("probe thread panicked")).collect()
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The slices one probe timed over a run.
#[derive(Debug, Default)]
pub struct Calibration {
    /// Sorted by start.
    slices: Vec<Slice>,
}

impl Calibration {
    fn within(&self, from: Instant, to: Instant) -> &[Slice] {
        let lo = self.slices.partition_point(|s| s.at < from);
        let hi = self.slices.partition_point(|s| s.at < to);
        &self.slices[lo..hi.max(lo)]
    }

    /// How much slower than [`NOMINAL_SLICE_S`] the host ran the probe
    /// from `from` to `to`: the median slice started in that time over
    /// the nominal one. NaN when no slice started then.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let times: Vec<f64> = self.within(from, to).iter().map(|s| s.seconds).collect();
        median(&times).unwrap_or(f64::NAN) / NOMINAL_SLICE_S
    }

    /// Seconds of CPU the probe itself took from `from` to `to`.
    pub fn probe_seconds(&self, from: Instant, to: Instant) -> f64 {
        self.within(from, to).iter().map(|s| s.seconds).sum()
    }

    /// A sub-run from `from` to `to`, in which the programs under test
    /// and the benchmark (probe included) were busy or ready to run for
    /// `busy` seconds ([`crate::sut::busy_seconds`]), read at the
    /// nominal host speed. Only the CPU-bound share — the busy time
    /// other than the probe's over the wall time of the [`SUT_WORKERS`]
    /// cores the work is spread over — scales with the host's slowdown;
    /// time spent waiting on a disk, a timer or the network does not.
    pub fn at_nominal(&self, from: Instant, to: Instant, busy: f64) -> f64 {
        let wall = (to - from).as_secs_f64();
        let own = busy - self.probe_seconds(from, to);
        let share = (own / (SUT_WORKERS as f64 * wall)).clamp(0.0, 1.0);
        wall * (1.0 - share + share / self.slowdown(from, to))
    }

    /// `seconds` of wholly CPU-bound work done from `from` to `to`, at
    /// the nominal host speed.
    pub fn cpu_at_nominal(&self, from: Instant, to: Instant, seconds: f64) -> f64 {
        seconds / self.slowdown(from, to)
    }

    /// A note on the calibration for the report.
    pub fn note(&self) -> String {
        let times: Vec<f64> = self.slices.iter().map(|s| s.seconds).collect();
        format!(
            "host slowdown {:.3}: median probe slice {:.3} ms over {} slices, nominal {:.3} ms",
            median(&times).unwrap_or(f64::NAN) / NOMINAL_SLICE_S,
            median(&times).unwrap_or(f64::NAN) * 1e3,
            times.len(),
            NOMINAL_SLICE_S * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_depends_on_its_length() {
        assert_eq!(Kernel::new().run(10_000), Kernel::new().run(10_000));
        assert_ne!(Kernel::new().run(10_000), Kernel::new().run(20_000));
        let mut split = Kernel::new();
        split.run(4_000);
        let mut whole = Kernel::new();
        assert_eq!(split.run(6_000), {
            whole.run(4_000);
            whole.run(6_000)
        });
    }

    #[test]
    fn sub_runs_are_read_at_the_slowdown_of_the_slices_within_them() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let slice = |ms: u64, seconds: f64| Slice { at: at(ms), seconds };
        let c = Calibration {
            slices: vec![slice(0, 0.0025), slice(10, 0.005), slice(20, 0.005), slice(30, 0.0025)],
        };
        assert!((c.slowdown(at(5), at(25)) - 2.0).abs() < 1e-12, "median of the middle two");
        assert!((c.slowdown(at(0), at(40)) - 1.5).abs() < 1e-12);
        assert!(c.slowdown(at(31), at(40)).is_nan(), "no slice started then");
        assert!((c.probe_seconds(at(5), at(25)) - 0.01).abs() < 1e-12);
        // 20 ms on two cores, 0.01 s of which the probe's.
        let busy = |cpu: f64| cpu + 0.01;
        let (from, to) = (at(5), at(25));
        assert!((c.at_nominal(from, to, busy(0.04)) - 0.01).abs() < 1e-12, "all CPU: halved");
        assert!((c.at_nominal(from, to, busy(0.0)) - 0.02).abs() < 1e-12, "all waiting");
        assert!((c.at_nominal(from, to, busy(0.02)) - 0.015).abs() < 1e-12, "half of each");
        assert!((c.cpu_at_nominal(from, to, 0.3) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn the_probe_times_slices_on_every_worker_core() {
        let probe = Probe::start();
        std::thread::sleep(PERIOD * 4);
        let c = probe.finish();
        assert!(c.slices.len() >= SUT_WORKERS, "{} slices", c.slices.len());
        assert!(c.slices.windows(2).all(|w| w[0].at <= w[1].at), "sorted by start");
        assert!(c.note().contains("probe slice"));
    }
}
