//! Thread slots: the one index every per-thread stripe is picked by.
//!
//! A structure that two clients would otherwise both write — a counter,
//! a histogram, a lock table's held lists, a version heap's transaction
//! registry — is split into stripes, and each thread writes the stripe
//! of its [`thread_slot`]. A slot is the lowest index no other live
//! thread holds: taken on a thread's first use and given back when it
//! exits, so as long as fewer threads live than a structure has stripes,
//! no two of them share one. It is a **locality hint, never a
//! correctness assumption**: every stripe is safe for any thread to
//! use, and threads share one whenever there are more of them than
//! stripes.
//!
//! [`SlotIds`] carries the slot into the ids it deals (`n × 64 + slot`),
//! so a structure keyed by such an id (`id % 64`, no hash) puts it on
//! the line its drawing thread owns.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// A value alone on its own 128-byte block (two cache lines: the
/// adjacent-line prefetcher pairs them), so that no neighbour's write
/// invalidates it.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// The slots of live threads are the taken prefix of the naturals minus
/// the returned ones.
struct Slots {
    /// Every slot below this one was taken at some point.
    next: usize,
    /// Slots given back by exited threads, lowest first.
    returned: BinaryHeap<Reverse<usize>>,
}

static SLOTS: Mutex<Slots> = Mutex::new(Slots {
    next: 0,
    returned: BinaryHeap::new(),
});

/// A thread's claim on its slot, returned when the thread exits.
struct Claim(usize);

impl Claim {
    fn take() -> Claim {
        let mut slots = SLOTS.lock().unwrap_or_else(PoisonError::into_inner);
        match slots.returned.pop() {
            Some(Reverse(slot)) => Claim(slot),
            None => {
                slots.next += 1;
                Claim(slots.next - 1)
            }
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        let mut slots = SLOTS.lock().unwrap_or_else(PoisonError::into_inner);
        slots.returned.push(Reverse(self.0));
    }
}

thread_local! {
    static CLAIM: Claim = Claim::take();
}

/// This thread's slot; callers reduce it modulo their own stripe count.
/// See the [module docs](self).
#[inline]
pub fn thread_slot() -> usize {
    // A thread's own destructors may still count things after its claim
    // is gone; they fall back to stripe 0.
    CLAIM.try_with(|c| c.0).unwrap_or(0)
}

/// How many slots the ids of [`SlotIds`] distinguish. A structure keyed
/// by such ids through `id % n` keeps each thread on its own stripe
/// when `n` divides this.
pub const ID_SLOTS: usize = 64;

/// Increasing ids that carry the drawing thread's slot: the `n`-th id
/// drawn in slot `s` (modulo [`ID_SLOTS`]) is `n × ID_SLOTS + s`, from
/// `n = 1`. Each slot draws from its own padded counter, so two clients
/// never write one line to start a transaction. Ids are distinct, and
/// increase within each thread; across threads they are not ordered.
#[derive(Debug)]
pub struct SlotIds {
    next: Box<[CachePadded<AtomicU64>]>,
}

impl Default for SlotIds {
    fn default() -> SlotIds {
        SlotIds {
            next: (0..ID_SLOTS)
                .map(|_| CachePadded(AtomicU64::new(1)))
                .collect(),
        }
    }
}

impl SlotIds {
    /// A fresh dealer.
    pub fn new() -> SlotIds {
        SlotIds::default()
    }

    /// The next id of the calling thread's slot.
    #[inline]
    pub fn next(&self) -> u64 {
        let slot = thread_slot() % ID_SLOTS;
        let n = self.next[slot].fetch_add(1, Ordering::Relaxed);
        n * ID_SLOTS as u64 + slot as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn live_threads_hold_distinct_slots_and_exited_ones_give_theirs_back() {
        let barrier = std::sync::Barrier::new(8);
        let slots: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let slot = thread_slot();
                        barrier.wait();
                        assert_eq!(thread_slot(), slot, "a slot is kept for life");
                        slot
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let distinct: HashSet<_> = slots.iter().collect();
        assert_eq!(distinct.len(), 8, "eight live threads, eight slots");
        // Other tests' threads come and go beside these, so a reused
        // slot cannot be pinned; but 200 threads that never overlap
        // must not take 200 new ones.
        let before = SLOTS.lock().unwrap().next;
        for _ in 0..200 {
            std::thread::spawn(thread_slot).join().unwrap();
        }
        let grown = SLOTS.lock().unwrap().next - before;
        assert!(
            grown < 100,
            "200 one-at-a-time threads took {grown} new slots"
        );
    }

    #[test]
    fn ids_carry_their_slot_and_increase_within_a_thread() {
        let ids = SlotIds::new();
        let slot = (thread_slot() % ID_SLOTS) as u64;
        let drawn: Vec<u64> = (0..100).map(|_| ids.next()).collect();
        assert!(drawn.iter().all(|id| id % ID_SLOTS as u64 == slot));
        assert!(drawn.windows(2).all(|w| w[0] < w[1]));
        assert!(drawn[0] >= ID_SLOTS as u64, "no id is 0");
    }

    #[test]
    fn padded_values_sit_on_their_own_lines() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<AtomicU64>>(), 128);
    }
}
