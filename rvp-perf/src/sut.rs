//! The system under test as a child process: spawn it from the sibling
//! executables, watch its stdout for readiness lines, poll its peak
//! resident set, and always reap it — a dropped [`Sut`] kills and waits.

use std::ffi::{c_int, c_uint};
use std::io::{self, BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the peak-RSS poller reads `/proc/<pid>/status`.
const RSS_POLL: Duration = Duration::from_millis(50);

extern "C" {
    /// glibc's `setpriority(2)` wrapper.
    fn setpriority(which: c_int, who: c_uint, prio: c_int) -> c_int;
}

/// `PRIO_PROCESS`: `setpriority`'s `who` names a process.
const PRIO_PROCESS: c_int = 0;

/// The nice value the programs under test run at: the lowest priority,
/// so that the calibration probe ([`crate::calib`]) preempts them the
/// moment it wakes and times each slice on a core of its own.
const SUT_NICE: c_int = 19;

/// A command for `bin` with every inherited `RVP_*` knob removed, so
/// only what the workload sets reaches the program, which runs at nice
/// [`SUT_NICE`].
pub fn command(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RVP_") {
            cmd.env_remove(&key);
        }
    }
    cmd.stdin(Stdio::null()).stdout(Stdio::piped());
    // SAFETY: the closure runs in the forked child before `exec`, where
    // only async-signal-safe calls are allowed: it makes one system call
    // with plain integer arguments (who 0 is the calling process), reads
    // `errno` on failure and allocates nothing.
    unsafe {
        cmd.pre_exec(|| {
            if setpriority(PRIO_PROCESS, 0, SUT_NICE) == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        });
    }
    cmd
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in kB.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kb)
}

/// Commits the file system's pending metadata — the previous sub-run's
/// file writes and deletions — by syncing `dir`, so that the fsyncs the
/// program does while setting up pay only for their own writes. On
/// ext4 a directory fsync commits the whole running journal
/// transaction.
///
/// # Errors
///
/// Returns the open or sync error.
pub fn settle_disk(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

fn read_hwm(pid: u32) -> Option<u64> {
    vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100
/// on every Linux architecture the simulator builds for).
const TICKS_PER_S: f64 = 100.0;

/// The CPU ticks a `/proc/<pid>/stat` text records: the process's user
/// and system time plus those of its reaped children.
pub fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name may hold spaces and parentheses; the fields
    // after it start with the state (field 3), so utime is field 14.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    fields.get(11..15)?.iter().map(|f| f.parse::<u64>().ok()).sum()
}

/// CPU seconds used so far by process `pid` (or `"self"`) and its
/// reaped children; `None` once it is gone.
fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    Some(stat_cpu_ticks(&stat)? as f64 / TICKS_PER_S)
}

/// The steal ticks of a `/proc/stat` text: time the host kept this
/// machine's CPUs from running while they had work, summed over them.
pub fn proc_stat_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The CPU seconds this process (with its reaped children) and the
/// processes `pids` have used, plus the seconds the host has stolen
/// from this machine's CPUs: time the work was ready to run. Two
/// readings bracket a sub-run.
pub fn busy_seconds(pids: &[u32]) -> f64 {
    let steal = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| proc_stat_steal_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_S);
    let cpu: f64 = pids.iter().filter_map(|p| cpu_seconds(&p.to_string())).sum();
    steal + cpu + cpu_seconds("self").unwrap_or(0.0)
}

/// A running child.
pub struct Sut {
    child: Child,
    /// When the spawn was issued; set-up and wall times count from here.
    pub started: Instant,
    lines: Receiver<(String, Instant)>,
    reader: Option<JoinHandle<()>>,
    poller: Option<JoinHandle<()>>,
    stop_polling: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    exited: bool,
}

impl Sut {
    /// Spawns `cmd` (from [`command`]) and starts the stdout reader and
    /// the peak-RSS poller.
    ///
    /// # Errors
    ///
    /// Returns the spawn error.
    pub fn spawn(mut cmd: Command) -> io::Result<Sut> {
        let started = Instant::now();
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped by `command`");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((line, Instant::now())).is_err() {
                    break;
                }
            }
        });
        let pid = child.id();
        let stop_polling = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(0));
        let poller = {
            let (stop, peak) = (Arc::clone(&stop_polling), Arc::clone(&peak_kb));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if let Some(kb) = read_hwm(pid) {
                        peak.fetch_max(kb, Ordering::SeqCst);
                    }
                    std::thread::sleep(RSS_POLL);
                }
            })
        };
        Ok(Sut {
            child,
            started,
            lines,
            reader: Some(reader),
            poller: Some(poller),
            stop_polling,
            peak_kb,
            exited: false,
        })
    }

    /// Waits for the first stdout line containing `needle` and returns
    /// it with the instant it arrived. Lines before it are skipped.
    ///
    /// # Errors
    ///
    /// Fails on timeout or when the child closes stdout first.
    pub fn wait_for_line(&self, needle: &str, timeout: Duration) -> io::Result<(String, Instant)> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok((line, at)) if line.contains(needle) => return Ok((line, at)),
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("no {needle:?} line within {timeout:?}"),
                    ));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::other(format!("exited before printing {needle:?}")));
                }
            }
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set so far, in MB, reading the current value too.
    pub fn peak_rss_mb(&self) -> f64 {
        if let Some(kb) = read_hwm(self.child.id()) {
            self.peak_kb.fetch_max(kb, Ordering::SeqCst);
        }
        self.peak_kb.load(Ordering::SeqCst) as f64 / 1024.0
    }

    /// Waits up to `timeout` for the child to exit (killing it past
    /// that) and returns its status and the instant it was seen gone.
    ///
    /// # Errors
    ///
    /// Fails when the child had to be killed or cannot be waited for.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<(ExitStatus, Instant)> {
        let deadline = Instant::now() + timeout;
        let result = loop {
            if let Some(status) = self.child.try_wait()? {
                break Ok((status, Instant::now()));
            }
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("still running after {timeout:?}; killed"),
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        self.exited = true;
        self.join_helpers();
        result
    }

    fn join_helpers(&mut self) {
        self.stop_polling.store(true, Ordering::SeqCst);
        if let Some(poller) = self.poller.take() {
            let _ = poller.join();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Sut {
    fn drop(&mut self) {
        if !self.exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.join_helpers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_the_status_line() {
        let status = "Name:\trvp-grid\nVmPeak:\t  812344 kB\nVmHWM:\t  431220 kB\nVmRSS:\t  1 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(431_220));
        assert_eq!(vm_hwm_kb("Name:\tzombie\nState:\tZ (zombie)\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t  12 MB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\n"), None);
    }

    #[test]
    fn own_status_has_a_peak() {
        let own = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(vm_hwm_kb(&own).unwrap() > 0);
    }

    #[test]
    fn stat_cpu_ticks_sums_own_and_reaped_children_times() {
        let stat = "4242 (rvp grid (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    250 30 7 3 20 0 3 0 12345 100000 2000 18446744073709551615";
        assert_eq!(stat_cpu_ticks(stat), Some(250 + 30 + 7 + 3));
        assert_eq!(stat_cpu_ticks("4242 (short) S 1 2 3"), None);
        assert_eq!(stat_cpu_ticks("no parenthesis"), None);
        assert!(cpu_seconds("self").is_some_and(|s| s >= 0.0));
    }

    #[test]
    fn steal_is_the_eighth_time_of_the_cpu_line() {
        let stat = "cpu  3697893 0 199450 2124534 65107 0 9847 33478 0 0\n\
                    cpu0 1850000 0 99000 1062000 32000 0 4900 16700 0 0\n";
        assert_eq!(proc_stat_steal_ticks(stat), Some(33478));
        assert_eq!(proc_stat_steal_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert!(busy_seconds(&[]) > 0.0);
    }
}
