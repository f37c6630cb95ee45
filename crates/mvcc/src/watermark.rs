//! The ordered publication watermark, as a **lock-free ring** of
//! in-flight commit slots.
//!
//! Committers draw timestamps from an atomic clock and flip their
//! chains without any global lock, so transaction `T+1` can finish
//! flipping before `T` does. Publishing `T+1` at that moment would let
//! a snapshot at `T+1` miss `T`'s writes. The watermark therefore
//! tracks completed-but-unpublished timestamps and advances `published`
//! (the snapshot source) only across a **contiguous** prefix: every
//! commit at or below the watermark has fully flipped (or was published
//! as a *skip* by an SSI-refused commit — nothing was flipped at it, so
//! the prefix stays dense either way).
//!
//! Earlier revisions guarded the pending set with a mutex — tiny, but
//! every writer commit passed through it. This implementation has **no
//! mutex**:
//!
//! * **Slots.** A fixed ring of `capacity` atomic slots; timestamp `ts`
//!   completes into slot `ts % capacity`. A slot holding `EMPTY` (0) is
//!   free; timestamps start at 1, so the sentinel never collides.
//! * **Claim.** The publisher of `ts` CAS-claims its slot
//!   (`EMPTY → ts`). The claim is attempted only once
//!   `published ≥ ts − capacity`, i.e. once every earlier occupant of
//!   the slot has been published — claiming on emptiness alone would
//!   let `ts` steal the slot from the still-unpublished `ts −
//!   capacity` and deadlock the prefix. Unpublished timestamps are
//!   bounded by the number of in-flight commits (each committer
//!   publishes its own draw before finishing), so with `capacity` far
//!   above any plausible thread count the wait never triggers; the
//!   **overflow fallback** is to spin-then-yield until the slot frees,
//!   counted per publish in the heap's `watermark_waits` statistic.
//! * **Advance.** After claiming, every publisher helps advance: while
//!   slot `published + 1` holds its timestamp, CAS `published` forward
//!   and clear the slot (in that order — clearing first would leave the
//!   prefix undetectable). Whoever wins the CAS clears; losers re-read
//!   and keep helping, so the watermark drains even if the original
//!   publisher of some timestamp stalls right after its claim. ABA is
//!   impossible: slot values are unique timestamps and every CAS
//!   compares against an exact expected value.
//!
//! All operations are `SeqCst`; the slot claim → advance → snapshot
//! read chain is the happens-before edge that carries a committer's
//! chain flips (and its skip decisions) to every snapshot reader at or
//! above its timestamp.

use crate::Ts;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

/// Ring capacity of [`Watermark::new`]: bounds *in-flight* commits
/// (committers between timestamp draw and publication), not total
/// commits — 1024 is far above any plausible committer thread count.
pub(crate) const WATERMARK_CAPACITY: usize = 1024;

const EMPTY: u64 = 0;

/// The ordered publication watermark (see the module docs).
#[derive(Debug)]
pub(crate) struct Watermark {
    /// The highest timestamp `t` such that every commit in `1..=t` has
    /// fully flipped (or was skipped). This is `last_committed` — the
    /// snapshot source.
    published: AtomicU64,
    /// In-flight completion slots; `slots[ts % capacity]` holds `ts`
    /// from its completion until the prefix advances past it.
    slots: Box<[AtomicU64]>,
    /// How often publishers had to wait for a slot (ring overflow:
    /// more than `capacity` commits in flight).
    waits: AtomicU64,
}

impl Watermark {
    pub(crate) fn new() -> Watermark {
        Watermark::with_capacity(WATERMARK_CAPACITY)
    }

    /// A watermark whose published prefix starts at `base` instead of
    /// 0 — the recovery path: every timestamp at or below the restored
    /// clock was committed (or skip-filled) by the previous
    /// incarnation, so the prefix resumes dense at `base` and the first
    /// post-recovery commit publishes `base + 1` with no hole to wait
    /// on.
    pub(crate) fn with_base(base: Ts) -> Watermark {
        let w = Watermark::new();
        w.published.store(base, SeqCst);
        w
    }

    /// A watermark with a custom ring capacity — tests use tiny rings
    /// to exercise wraparound and the overflow fallback.
    pub(crate) fn with_capacity(capacity: usize) -> Watermark {
        assert!(capacity >= 2, "ring needs room for two in-flight commits");
        Watermark {
            published: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| AtomicU64::new(EMPTY))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            waits: AtomicU64::new(0),
        }
    }

    /// The latest fully published commit timestamp.
    #[inline]
    pub(crate) fn get(&self) -> Ts {
        self.published.load(SeqCst)
    }

    /// Publishers that hit the overflow fallback.
    #[cfg(test)]
    pub(crate) fn waits(&self) -> u64 {
        self.waits.load(SeqCst)
    }

    /// Spins until the contiguous prefix reaches `ts`. Used by the
    /// commit path so that a returned commit is *visible*: the
    /// committer's own next transaction (or any other session) is
    /// guaranteed a snapshot at or above it. The wait is bounded by the
    /// in-flight commits below `ts` finishing their own publications —
    /// every drawn timestamp is published (as a commit or a skip)
    /// before its committer returns, so the prefix always drains.
    pub(crate) fn wait_published(&self, ts: Ts) {
        let mut spins = 0u32;
        while self.get() < ts {
            // Under a chaos scheduled session the spinner must hand
            // the token back, or the parked owner of an earlier
            // unpublished timestamp never runs (no-op otherwise).
            finecc_chaos::yield_point(finecc_chaos::Site::WatermarkWait);
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Marks `ts` complete (flipped, or skipped by an SSI-refused
    /// commit) and advances the contiguous published prefix as far as
    /// it now reaches. Lock-free; waits only in the documented ring-
    /// overflow fallback. Returns `true` if this call had to wait.
    pub(crate) fn publish(&self, ts: Ts) -> bool {
        debug_assert!(ts != EMPTY, "timestamps start at 1");
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(ts % cap) as usize];
        // Claim the slot. The occupancy precondition (`published ≥ ts −
        // capacity`) and the CAS are re-checked together: the slot may
        // stay non-empty for a moment after the precondition holds
        // (advancers clear just *after* moving `published`).
        let mut waited = false;
        let mut spins = 0u32;
        while self.published.load(SeqCst) + cap < ts
            || slot.compare_exchange(EMPTY, ts, SeqCst, SeqCst).is_err()
        {
            // Same token hand-back as `wait_published`: the overflow
            // fallback spins on other publishers making progress.
            finecc_chaos::yield_point(finecc_chaos::Site::WatermarkPublish);
            if !waited {
                waited = true;
                self.waits.fetch_add(1, SeqCst);
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // Help advance the contiguous prefix. Every publisher drives
        // this loop, so the watermark drains without a dedicated owner.
        loop {
            let head = self.published.load(SeqCst);
            let next = head + 1;
            let next_slot = &self.slots[(next % cap) as usize];
            if next_slot.load(SeqCst) != next {
                break; // prefix ends (or another helper already advanced)
            }
            if self
                .published
                .compare_exchange(head, next, SeqCst, SeqCst)
                .is_ok()
            {
                // Only the winning advancer clears — after the advance,
                // so the contiguity check above never misses `next`.
                let cleared = next_slot.compare_exchange(next, EMPTY, SeqCst, SeqCst);
                debug_assert!(cleared.is_ok(), "slot {next} cleared by non-winner");
            }
            // On CAS failure another helper advanced; loop and re-read.
        }
        waited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn publishes_contiguous_prefix_out_of_order() {
        let w = Watermark::new();
        assert_eq!(w.get(), 0);
        w.publish(2);
        assert_eq!(w.get(), 0, "2 waits for 1");
        w.publish(3);
        assert_eq!(w.get(), 0);
        w.publish(1);
        assert_eq!(w.get(), 3, "1 unlocks the whole prefix");
        w.publish(4);
        assert_eq!(w.get(), 4);
        assert!(w.slots.iter().all(|s| s.load(SeqCst) == EMPTY));
        assert_eq!(w.waits(), 0);
    }

    #[test]
    fn with_base_resumes_the_prefix() {
        let w = Watermark::with_base(41);
        assert_eq!(w.get(), 41);
        w.publish(43);
        assert_eq!(w.get(), 41, "43 waits for 42");
        w.publish(42);
        assert_eq!(w.get(), 43, "prefix resumes dense above the base");
        assert_eq!(w.waits(), 0);
    }

    #[test]
    fn skip_fill_keeps_the_prefix_dense() {
        // A timestamp drawn by an SSI-refused commit is published
        // through the same path with nothing flipped at it: the prefix
        // must advance straight across the hole.
        let w = Watermark::new();
        w.publish(1);
        w.publish(3); // skip-filled later by 2
        assert_eq!(w.get(), 1);
        w.publish(2); // the "skip": published, nothing flipped
        assert_eq!(w.get(), 3, "skip publication closes the hole");
    }

    #[test]
    fn ring_wraparound_reuses_slots() {
        // Capacity 4: timestamps 1..=20 lap the ring five times, in
        // order and with a small out-of-order window inside each lap.
        let w = Watermark::with_capacity(4);
        for base in (0..20).step_by(4) {
            // Publish each lap shuffled: base+2, base+1, base+3, base+4.
            for off in [2u64, 1, 3, 4] {
                w.publish(base + off);
            }
            assert_eq!(w.get(), base + 4, "lap drained");
        }
        assert_eq!(w.get(), 20);
        assert_eq!(w.waits(), 0, "in-flight never exceeded the capacity");
    }

    #[test]
    fn slot_collision_waits_for_the_earlier_occupant() {
        // Capacity 2: ts 3 maps to the same slot as ts 1. While 1 is
        // unpublished, 3's claim must take the overflow fallback and
        // wait — stealing the slot would deadlock the prefix.
        let w = Arc::new(Watermark::with_capacity(2));
        std::thread::scope(|s| {
            let w2 = Arc::clone(&w);
            let t = s.spawn(move || {
                w2.publish(3); // must wait: published(0) + 2 < 3
            });
            // Let the publisher hit the fallback, then release it.
            while w.waits() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(w.get(), 0, "3 has not been published yet");
            w.publish(1);
            w.publish(2);
            t.join().unwrap();
        });
        assert_eq!(w.get(), 3);
        assert!(w.waits() >= 1, "the collision was counted");
    }

    #[test]
    fn concurrent_publishers_drain_tight() {
        // 8 threads publish disjoint timestamp stripes of 1..=800 in
        // reverse order (maximally out of order); the prefix must drain
        // to exactly 800 with every slot empty.
        let w = Arc::new(Watermark::with_capacity(WATERMARK_CAPACITY));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let w = Arc::clone(&w);
                s.spawn(move || {
                    for i in (0..100u64).rev() {
                        w.publish(1 + t + 8 * i);
                    }
                });
            }
        });
        assert_eq!(w.get(), 800);
        assert!(w.slots.iter().all(|s| s.load(SeqCst) == EMPTY));
    }
}
