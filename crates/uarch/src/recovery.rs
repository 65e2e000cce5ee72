//! Value-misprediction recovery (Section 4.3 of the paper) and the
//! taint bitset the dependence-chain bookkeeping is built on.
//!
//! A *taint* is the seq of an unverified predicted producer that an
//! entry's current result transitively depends on. Taints only ever
//! reference instructions currently in the ROB (a predicted producer
//! cannot commit unverified, and a squash removes its dependents), so a
//! set of them fits a fixed-width bitset indexed by `seq % 256` —
//! [`RobSet`] — which replaces the per-entry `Vec<u64>` clones that used
//! to allocate on every dependence-chain walk. `Simulator` asserts
//! `rob_size <= RobSet::CAPACITY` so two live seqs can never collide.

use rvp_isa::NUM_REGS;

use crate::core::{Core, Redirect, NO_CYCLE, NO_SEQ};
use crate::source::CommittedSource;

/// A set of in-flight instruction seqs, as a 256-bit mask over ROB
/// slots (`seq % 256`). Because all members are seqs of instructions
/// simultaneously in a ROB of at most 256 entries, distinct members
/// always map to distinct bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RobSet {
    bits: [u64; 4],
}

impl RobSet {
    /// The empty set.
    pub(crate) const EMPTY: RobSet = RobSet { bits: [0; 4] };
    /// Maximum ROB size this representation supports.
    pub(crate) const CAPACITY: usize = 256;

    #[inline]
    fn slot(seq: u64) -> (usize, u64) {
        let s = (seq % Self::CAPACITY as u64) as usize;
        (s >> 6, 1u64 << (s & 63))
    }

    #[inline]
    pub(crate) fn insert(&mut self, seq: u64) {
        let (w, m) = Self::slot(seq);
        self.bits[w] |= m;
    }

    /// Removes `seq`; returns whether it was present.
    #[inline]
    pub(crate) fn remove(&mut self, seq: u64) -> bool {
        let (w, m) = Self::slot(seq);
        let was = self.bits[w] & m != 0;
        self.bits[w] &= !m;
        was
    }

    #[inline]
    pub(crate) fn contains(&self, seq: u64) -> bool {
        let (w, m) = Self::slot(seq);
        self.bits[w] & m != 0
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.bits == [0; 4]
    }

    #[inline]
    pub(crate) fn union_with(&mut self, other: &RobSet) {
        for (a, b) in self.bits.iter_mut().zip(other.bits) {
            *a |= b;
        }
    }

    /// Removes every member of `other` from `self`.
    #[inline]
    pub(crate) fn subtract(&mut self, other: &RobSet) {
        for (a, b) in self.bits.iter_mut().zip(other.bits) {
            *a &= !b;
        }
    }

    /// The members of `self` not in `other`.
    #[inline]
    pub(crate) fn and_not(mut self, other: &RobSet) -> RobSet {
        self.subtract(other);
        self
    }

    #[cfg(debug_assertions)]
    pub(crate) fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Visits the set members in the seq window `[head_seq,
    /// head_seq + len)` in ascending seq order; stops early when `f`
    /// returns `false`. `len` must be at most [`RobSet::CAPACITY`].
    #[inline]
    pub(crate) fn for_each_in_window(
        &self,
        head_seq: u64,
        len: usize,
        f: &mut impl FnMut(u64) -> bool,
    ) {
        debug_assert!(len <= Self::CAPACITY);
        let h = (head_seq % Self::CAPACITY as u64) as usize;
        // The window maps to a contiguous slot ring [h, h+len); split it
        // at the wrap point so each piece ascends in seq order.
        let first = (Self::CAPACITY - h).min(len);
        if !self.walk(h, h + first, head_seq - h as u64, f) {
            return;
        }
        if len > first {
            self.walk(0, len - first, head_seq + first as u64, f);
        }
    }

    /// Visits set slots in `[lo, hi)`; slot `s` reports seq `base + s`.
    #[inline]
    fn walk(&self, lo: usize, hi: usize, base: u64, f: &mut impl FnMut(u64) -> bool) -> bool {
        let mut w = lo >> 6;
        while (w << 6) < hi {
            let mut word = self.bits[w];
            if (w << 6) < lo {
                word &= !0u64 << (lo - (w << 6));
            }
            let word_end = (w + 1) << 6;
            if word_end > hi {
                word &= !0u64 >> (word_end - hi);
            }
            while word != 0 {
                let slot = (w << 6) + word.trailing_zeros() as usize;
                if !f(base + slot as u64) {
                    return false;
                }
                word &= word - 1;
            }
            w += 1;
        }
        true
    }
}

impl<'s, S: CommittedSource + ?Sized> Core<'s, S> {
    /// Removes a verified-correct prediction from every taint set,
    /// visiting only the entries the reverse index names as dependents.
    pub(crate) fn clear_taint(&mut self, seq: u64) {
        let slot = (seq % RobSet::CAPACITY as u64) as usize;
        let members = self.taint_members[slot];
        if self.tainted == 0 || members.is_empty() {
            return;
        }
        self.taint_members[slot] = RobSet::EMPTY;
        let Some(head) = self.rob.front() else { return };
        let (head_seq, len) = (head.rec.seq, self.rob.len());
        members.for_each_in_window(head_seq, len, &mut |m| {
            let e = &mut self.rob[(m - head_seq) as usize];
            // Stale member bits (squashed or re-issued entries) fail
            // this re-validation and are skipped.
            if e.rec.seq == m && e.taint.remove(seq) && e.taint.is_empty() {
                self.tainted -= 1;
            }
            true
        });
    }

    /// Reissue-style recovery: every issued instruction whose result
    /// depends on the mispredicted value re-executes one cycle later.
    pub(crate) fn invalidate_dependents(&mut self, bad: u64) {
        if self.tainted == 0 {
            return;
        }
        let slot = (bad % RobSet::CAPACITY as u64) as usize;
        let members = self.taint_members[slot];
        if members.is_empty() {
            return;
        }
        self.taint_members[slot] = RobSet::EMPTY;
        let Some(head) = self.rob.front() else { return };
        let (head_seq, len) = (head.rec.seq, self.rob.len());
        let next = self.now + 1;
        let mut reissued = 0u64;
        let mut unheld = 0usize;
        members.for_each_in_window(head_seq, len, &mut |m| {
            let e = &mut self.rob[(m - head_seq) as usize];
            if e.rec.seq == m && e.taint.remove(bad) {
                if e.taint.is_empty() {
                    self.tainted -= 1;
                }
                if e.issued {
                    debug_assert!(e.in_iq, "a tainted issued entry holds its queue slot");
                    e.issued = false;
                    e.complete_at = NO_CYCLE;
                    e.done = false;
                    e.earliest_issue = next;
                    e.in_iq = true;
                    e.reissued = true;
                    self.to_issue[e.queue as usize].insert(e.rec.seq);
                    // Re-entering the pending set: drop any stale
                    // blocked bit so the walk re-examines it.
                    self.issue_blocked[0].remove(e.rec.seq);
                    self.issue_blocked[1].remove(e.rec.seq);
                    self.held_slots.remove(e.rec.seq);
                    unheld += 1;
                    reissued += 1;
                }
            }
            true
        });
        self.held_issued -= unheld;
        self.stats.reissued_insts += reissued;
        self.issue_idle = false;
    }

    /// Refetch-style recovery: squash everything from the first use of
    /// the mispredicted value onward and refetch it through the
    /// source's rewind path.
    pub(crate) fn squash_from(&mut self, first: u64) {
        self.stats.squashes += 1;
        self.redirect = Redirect::ValueRefetch;

        let mut records = std::mem::take(&mut self.squash_scratch);
        records.clear();

        // Drop not-yet-dispatched fetched instructions.
        while let Some(f) = self.frontend.back() {
            if f.rec.seq >= first {
                records.push(self.frontend.pop_back().expect("non-empty").rec);
            } else {
                break;
            }
        }

        // Drop the ROB tail, rolling back the dispatch-time shadow state
        // in reverse order.
        while let Some(e) = self.rob.back() {
            if e.rec.seq < first {
                break;
            }
            let e = self.rob.pop_back().expect("non-empty");
            self.stats.squashed_insts += 1;
            self.to_issue[e.queue as usize].remove(e.rec.seq);
            self.unverified.remove(e.rec.seq);
            if !e.taint.is_empty() {
                self.tainted -= 1;
            }
            if e.in_iq {
                self.iq_occupancy[e.queue as usize] -= 1;
                if e.issued {
                    self.held_issued -= 1;
                    self.held_slots.remove(e.rec.seq);
                }
            }
            if let Some(dst) = e.rec.dst {
                self.writers[dst.class() as usize] -= 1;
                self.shadow[dst.index()] = e.rec.old_value;
                self.last_value[e.rec.pc] =
                    if e.had_last_value { Some(e.prev_last_value) } else { None };
            }
            records.push(e.rec);
        }
        while self.stores.back().is_some_and(|&s| s >= first) {
            self.stores.pop_back();
        }

        // Records were collected youngest-first; the source replays them
        // oldest-first.
        records.sort_unstable_by_key(|r| r.seq);
        self.replay_pending += records.len() as u64;
        self.source.rewind(&mut records);
        debug_assert!(records.is_empty(), "rewind must drain the squashed records");
        self.squash_scratch = records;

        // Rebuild the rename map from the surviving entries.
        self.last_writer = [None; NUM_REGS];
        for e in &self.rob {
            if let Some(dst) = e.rec.dst {
                self.last_writer[dst.index()] = Some(e.rec.seq);
            }
        }
        // First-use markers pointing at squashed consumers are stale.
        for e in &mut self.rob {
            // `NO_SEQ >= first` just rewrites the sentinel to itself.
            if e.first_use >= first {
                e.first_use = NO_SEQ;
            }
        }
        if self.stalled_on.is_some_and(|s| s >= first) {
            self.stalled_on = None;
        }
        self.halted_fetch = false;
        self.fetch_resume_at = self.fetch_resume_at.max(self.now + 1);
        self.issue_idle = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = RobSet::EMPTY;
        assert!(s.is_empty());
        s.insert(3);
        s.insert(300); // slot 44
        assert!(s.contains(3) && s.contains(300));
        assert!(!s.contains(4));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.is_empty());
        assert!(s.remove(300));
        assert!(s.is_empty());
    }

    #[test]
    fn union_accumulates() {
        let mut a = RobSet::EMPTY;
        let mut b = RobSet::EMPTY;
        a.insert(1);
        b.insert(255);
        b.insert(64);
        a.union_with(&b);
        for seq in [1, 64, 255] {
            assert!(a.contains(seq));
        }
    }

    #[test]
    fn window_iteration_is_seq_ordered_across_wrap() {
        // Window [250, 250+12) wraps the 256-slot ring.
        let mut s = RobSet::EMPTY;
        let members = [250u64, 253, 255, 256, 258, 261];
        for &m in &members {
            s.insert(m);
        }
        // A stale bit outside the window must not be reported.
        s.insert(262 + 256);
        let mut seen = Vec::new();
        s.for_each_in_window(250, 12, &mut |seq| {
            seen.push(seq);
            true
        });
        assert_eq!(seen, members);

        // Early stop.
        let mut seen = Vec::new();
        s.for_each_in_window(250, 12, &mut |seq| {
            seen.push(seq);
            seq < 256
        });
        assert_eq!(seen, [250, 253, 255, 256]);
    }

    #[test]
    fn window_iteration_handles_large_offsets() {
        let mut s = RobSet::EMPTY;
        let head = 1_000_003u64; // arbitrary non-aligned head
        for d in [0u64, 7, 63, 64, 128, 199] {
            s.insert(head + d);
        }
        let mut seen = Vec::new();
        s.for_each_in_window(head, 200, &mut |seq| {
            seen.push(seq - head);
            true
        });
        assert_eq!(seen, [0, 7, 63, 64, 128, 199]);
    }
}
