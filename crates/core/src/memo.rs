//! The single-flight memo behind every per-key cache of a
//! [`crate::Runner`]: collected profiles, sampling plans, extracted
//! windows and whole simulations.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex, PoisonError, TryLockError};

/// A thread-safe map from key to a value computed at most once per key,
/// shared by clones.
///
/// Each entry is locked independently of the map, so two threads asking
/// for the *same* key compute it once (the second waits for the first)
/// while different keys proceed in parallel. Failures are returned and
/// not cached: the next caller of that key computes it afresh. A
/// computation that panics leaves its entry empty, so it too is retried
/// rather than poisoning the key.
pub struct Memo<K, V> {
    slots: Arc<Mutex<HashMap<K, Slot<V>>>>,
}

/// One entry, locked independently of the map.
type Slot<V> = Arc<Mutex<Option<V>>>;

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// The value for `key`, computed with `init` on first use. `init`
    /// runs while this key's entry is held, so callers racing on the
    /// key wait for it and then share its value.
    pub(crate) fn get_or_try_init<E>(
        &self,
        key: K,
        init: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        // Poison is recovered, not propagated: the map is only ever
        // extended by one `or_default`, and an entry is written only
        // once its value exists, so a panic mid-`init` leaves both
        // valid (the entry stays empty).
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(slots.entry(key).or_default())
        };
        let mut entry = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = entry.as_ref() {
            return Ok(value.clone());
        }
        let value = init()?;
        *entry = Some(value.clone());
        Ok(value)
    }

    /// Forgets `key`, so its next caller computes it afresh; callers
    /// still holding its value keep their clone. Returns false, leaving
    /// the entry alone, while the entry is busy — its fill in flight.
    pub(crate) fn remove(&self, key: &K) -> bool {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let busy = slots
            .get(key)
            .is_some_and(|slot| matches!(slot.try_lock(), Err(TryLockError::WouldBlock)));
        if !busy {
            slots.remove(key);
        }
        !busy
    }
}

impl<K, V> Memo<K, V> {
    /// Number of distinct keys asked for so far.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether no key has been asked for.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K, V> Clone for Memo<K, V> {
    fn clone(&self) -> Memo<K, V> {
        Memo { slots: Arc::clone(&self.slots) }
    }
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Memo<K, V> {
        Memo { slots: Arc::default() }
    }
}

impl<K, V> fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Memo({} entries)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn racing_callers_compute_once_and_failures_are_retried() {
        let memo: Memo<u32, u64> = Memo::default();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let v = memo.get_or_try_init(1, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok::<_, ()>(7)
                    });
                    assert_eq!(v, Ok(7));
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);

        assert_eq!(memo.get_or_try_init(2, || Err("boom")), Err("boom"));
        assert_eq!(memo.get_or_try_init(2, || Ok::<_, &str>(9)), Ok(9));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_try_init(3, || -> Result<u64, ()> { panic!("init panics") })
        }));
        assert!(panicked.is_err());
        assert_eq!(memo.get_or_try_init(3, || Ok::<_, ()>(4)), Ok(4));
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn remove_forgets_a_value_but_skips_a_fill_in_flight() {
        let memo: Memo<u32, u64> = Memo::default();
        assert_eq!(memo.get_or_try_init(1, || Ok::<_, ()>(7)), Ok(7));
        assert!(memo.remove(&1));
        assert_eq!(memo.get_or_try_init(1, || Ok::<_, ()>(8)), Ok(8), "recomputed after remove");

        let (filling, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                memo.get_or_try_init(2, || {
                    filling.wait();
                    release.wait();
                    Ok::<_, ()>(9)
                })
            });
            filling.wait();
            assert!(!memo.remove(&2), "a fill in flight is not removed");
            release.wait();
        });
        assert_eq!(memo.get_or_try_init(2, || Ok::<_, ()>(0)), Ok(9));
    }
}
