//! Cooperative cancellation: a dependency-free token shared between the
//! party that wants work stopped (serve admission, the grid watchdog, a
//! signal handler) and the party doing the work (the cycle loop).
//!
//! A [`CancelToken`] is a cheaply clonable handle over a shared atomic
//! cancel flag, an optional absolute deadline and an optional parent
//! token whose firing it inherits. Polling is designed
//! for hot loops: a disarmed token costs one relaxed load
//! ([`CancelToken::is_cancelled`]), and the cycle loop only consults the
//! deadline clock every `2^k` iterations (see `rvp-uarch`), so polling
//! costs the cycle loop almost nothing.
//!
//! Cancellation is *cooperative*: nothing is killed. The worker observes
//! the token at a safe point, unwinds through ordinary `Result`
//! plumbing (`SimError::Cancelled` → `AttemptError::Cancelled` → a
//! squashed cell), and every durable structure (journal, cell store)
//! stays consistent because the worker exits through its
//! normal error paths.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Why a token fired. Carried into logs, spans, and job state so
/// operators can distinguish an operator abort from a missed deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// Someone called [`CancelToken::cancel`] (job abort, client
    /// disconnect, watchdog, drain window expiry).
    Cancelled,
    /// The absolute deadline passed.
    DeadlineExceeded,
}

impl CancelReason {
    /// Stable string form, used in JSON payloads and span fields.
    pub fn as_str(self) -> &'static str {
        match self {
            CancelReason::Cancelled => "cancelled",
            CancelReason::DeadlineExceeded => "deadline",
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// The token this one is a [`CancelToken::child`] of: when it
    /// fires, so does this one.
    parent: Option<CancelToken>,
    /// Set once, never cleared. The only field hot paths touch.
    cancelled: AtomicBool,
    /// Absolute wall-clock deadline in microseconds since the Unix
    /// epoch; `0` means no deadline. Checked on the amortized path only.
    deadline_us: AtomicU64,
    /// `CancelReason` discriminant once fired (1 = cancelled,
    /// 2 = deadline), `0` before.
    reason: AtomicU64,
    /// Free-form operator-facing detail ("job 42 aborted", "drain
    /// window expired"). Cold path only.
    detail: Mutex<Option<String>>,
}

/// Shared cancellation handle. `Clone` is an `Arc` bump; all clones
/// observe the same flag and deadline.
///
/// Tokens form a tree: a [`child`](CancelToken::child) fires when it or
/// any ancestor fires, while firing a child — or tightening its
/// deadline — leaves its ancestors alone. The daemon roots every job
/// and cell token in one token that drain fires; a grid attempt runs
/// under a child of its caller's token carrying the attempt deadline.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

fn wall_us() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

impl CancelToken {
    /// A fresh token: not cancelled, no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A new token that fires when this one (or any of its ancestors)
    /// fires, and can also be fired — or given a tighter deadline — on
    /// its own without affecting this one.
    pub fn child(&self) -> Self {
        CancelToken { inner: Arc::new(Inner { parent: Some(self.clone()), ..Inner::default() }) }
    }

    /// Arm (or tighten) the deadline to `timeout` from now. If a deadline
    /// is already set, the earlier of the two wins — a request-level
    /// deadline can only shrink under a server-level one.
    pub fn set_deadline(&self, timeout: Duration) {
        let when = wall_us().saturating_add(timeout.as_micros() as u64).max(1);
        let mut cur = self.inner.deadline_us.load(Ordering::Relaxed);
        loop {
            if cur != 0 && cur <= when {
                return;
            }
            match self.inner.deadline_us.compare_exchange_weak(
                cur,
                when,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Absolute deadline in µs since the epoch, if armed.
    pub fn deadline_us(&self) -> Option<u64> {
        match self.inner.deadline_us.load(Ordering::Relaxed) {
            0 => None,
            us => Some(us),
        }
    }

    /// Fire the token with an operator-facing detail string. Idempotent:
    /// the first cancel wins; later calls are no-ops.
    pub fn cancel(&self, detail: &str) {
        self.fire(CancelReason::Cancelled, detail);
    }

    fn fire(&self, reason: CancelReason, detail: &str) {
        if self.inner.cancelled.swap(true, Ordering::Release) {
            return; // already fired; keep the first reason
        }
        let code = match reason {
            CancelReason::Cancelled => 1,
            CancelReason::DeadlineExceeded => 2,
        };
        self.inner.reason.store(code, Ordering::Release);
        if let Ok(mut slot) = self.inner.detail.lock() {
            *slot = Some(detail.to_string());
        }
    }

    /// Cheapest possible poll: one relaxed load per tree level, no
    /// clock read. Does NOT notice deadline expiry on its own — pair
    /// with [`poll`](Self::poll) on an amortized schedule.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
            || self.inner.parent.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Amortized poll: checks the flag and, if a deadline is armed, the
    /// wall clock. Call this every N iterations, not every iteration.
    /// Returns the reason if the token has fired.
    pub fn poll(&self) -> Option<CancelReason> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return self.reason();
        }
        let deadline = self.inner.deadline_us.load(Ordering::Relaxed);
        if deadline != 0 && wall_us() >= deadline {
            self.fire(CancelReason::DeadlineExceeded, "deadline exceeded");
            return Some(CancelReason::DeadlineExceeded);
        }
        self.inner.parent.as_ref().and_then(CancelToken::poll)
    }

    /// The reason the token fired, if it has: its own, else the
    /// nearest fired ancestor's.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.inner.reason.load(Ordering::Acquire) {
            1 => Some(CancelReason::Cancelled),
            2 => Some(CancelReason::DeadlineExceeded),
            // `cancelled` may be set a beat before `reason` lands;
            // report the generic reason rather than "not fired".
            _ if self.inner.cancelled.load(Ordering::Acquire) => Some(CancelReason::Cancelled),
            _ => self.inner.parent.as_ref().and_then(CancelToken::reason),
        }
    }

    /// Operator-facing detail recorded at fire time (an ancestor's,
    /// when that is what fired this token).
    pub fn detail(&self) -> Option<String> {
        let own = self.inner.detail.lock().ok().and_then(|slot| slot.clone());
        own.or_else(|| self.inner.parent.as_ref().and_then(CancelToken::detail))
    }

    /// True when both handles share the same underlying token.
    pub fn same_token(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_deadline(timeout: Duration) -> CancelToken {
        let t = CancelToken::new();
        t.set_deadline(timeout);
        t
    }

    #[test]
    fn fresh_token_is_quiet() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.poll(), None);
        assert_eq!(t.reason(), None);
        assert_eq!(t.deadline_us(), None);
    }

    #[test]
    fn cancel_is_sticky_and_first_reason_wins() {
        let t = CancelToken::new();
        t.cancel("operator abort");
        assert!(t.is_cancelled());
        assert_eq!(t.poll(), Some(CancelReason::Cancelled));
        assert_eq!(t.detail().as_deref(), Some("operator abort"));
        // A later deadline expiry must not overwrite the reason.
        t.set_deadline(Duration::from_micros(0));
        assert_eq!(t.poll(), Some(CancelReason::Cancelled));
        assert_eq!(t.detail().as_deref(), Some("operator abort"));
    }

    #[test]
    fn expired_deadline_fires_on_poll_not_on_fast_path() {
        let t = with_deadline(Duration::from_micros(0));
        // The fast path never reads the clock.
        assert!(!t.is_cancelled());
        assert_eq!(t.poll(), Some(CancelReason::DeadlineExceeded));
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn deadlines_only_tighten() {
        let t = with_deadline(Duration::from_secs(3600));
        let loose = t.deadline_us().unwrap();
        t.set_deadline(Duration::from_secs(7200));
        assert_eq!(t.deadline_us().unwrap(), loose, "longer deadline ignored");
        t.set_deadline(Duration::from_secs(60));
        assert!(t.deadline_us().unwrap() < loose, "shorter deadline adopted");
    }

    #[test]
    fn clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(a.same_token(&b));
        b.cancel("via clone");
        assert!(a.is_cancelled());
        assert_eq!(a.detail().as_deref(), Some("via clone"));
        assert!(!a.same_token(&CancelToken::new()));
    }

    #[test]
    fn a_child_fires_with_any_ancestor_but_never_fires_one() {
        let root = CancelToken::new();
        let child = root.child();
        let grandchild = child.child();
        let sibling = root.child();
        grandchild.cancel("leaf only");
        assert!(grandchild.is_cancelled());
        assert!(!child.is_cancelled() && !root.is_cancelled(), "firing a child spares ancestors");

        root.cancel("drain");
        for t in [&child, &sibling] {
            assert!(t.is_cancelled());
            assert_eq!(t.poll(), Some(CancelReason::Cancelled));
            assert_eq!(t.detail().as_deref(), Some("drain"));
        }
        // A token that fired first keeps its own reason and detail.
        assert_eq!(grandchild.detail().as_deref(), Some("leaf only"));
    }

    #[test]
    fn a_child_deadline_tightens_only_its_subtree() {
        let root = with_deadline(Duration::from_secs(3600));
        let child = root.child();
        let grandchild = child.child();
        child.set_deadline(Duration::from_micros(0));
        assert_eq!(root.poll(), None, "the parent keeps its own deadline");
        assert_eq!(grandchild.poll(), Some(CancelReason::DeadlineExceeded));
        assert_eq!(child.reason(), Some(CancelReason::DeadlineExceeded));
        assert!(!root.is_cancelled());

        // An ancestor's expired deadline reaches every descendant.
        let expired = with_deadline(Duration::from_micros(0));
        let leaf = expired.child().child();
        assert_eq!(leaf.poll(), Some(CancelReason::DeadlineExceeded));
        assert!(expired.is_cancelled());
    }

    #[test]
    fn cross_thread_visibility() {
        let t = CancelToken::new();
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            while !t2.is_cancelled() {
                std::thread::yield_now();
            }
            t2.reason()
        });
        std::thread::sleep(Duration::from_millis(5));
        t.cancel("cross-thread");
        assert_eq!(h.join().unwrap(), Some(CancelReason::Cancelled));
    }
}
