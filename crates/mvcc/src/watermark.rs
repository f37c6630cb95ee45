//! The publication watermark: commit timestamps become visible **in
//! timestamp order**.
//!
//! Committers draw timestamps from an atomic clock, then mark and log
//! without a global lock, so `T+1` can finish before `T`; a snapshot at
//! `T+1` published then would miss `T`'s writes. So the publisher of
//! `T+1` waits until `T` is published, then stores `T+1`: every commit
//! at or below `published` is marked and logged, or was published as a
//! *skip* by a refused commit. The wait ends: each drawn timestamp is
//! published once, by the thread that drew it, before it draws again,
//! and a publisher holds no latch. So a returned publication is a
//! visible one. The `SeqCst` store carries the committer's mark to
//! every snapshot at or above its timestamp.

use crate::Ts;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

/// The publication watermark (see the module docs).
#[derive(Debug)]
pub(crate) struct Watermark {
    /// The snapshot source: every timestamp up to it is published.
    published: AtomicU64,
}

impl Watermark {
    /// A watermark whose published prefix starts at `base`: recovery
    /// restores the clock, and its first commit publishes `base + 1`.
    pub(crate) fn with_base(base: Ts) -> Watermark {
        Watermark {
            published: AtomicU64::new(base),
        }
    }

    /// The latest published commit timestamp.
    #[inline]
    pub(crate) fn get(&self) -> Ts {
        self.published.load(SeqCst)
    }

    /// Publishes `ts` (committed, or skipped by a refused commit) once
    /// `ts - 1` is published, spinning and then yielding until it is.
    pub(crate) fn publish(&self, ts: Ts) {
        debug_assert!(self.get() < ts, "{ts} published twice");
        let mut spins = 0u32;
        while self.get() != ts - 1 {
            // Under a chaos scheduled session the waiter hands the token
            // back, or the parked owner of `ts - 1` never runs.
            finecc_chaos::yield_point(finecc_chaos::Site::WatermarkWait);
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        self.published.store(ts, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn with_base_resumes_the_prefix() {
        let w = Watermark::with_base(41);
        assert_eq!(w.get(), 41);
        w.publish(42);
        assert_eq!(w.get(), 42, "the prefix resumes dense above the base");
        w.publish(43);
        assert_eq!(w.get(), 43);
    }

    #[test]
    fn skip_fill_keeps_the_prefix_dense() {
        // A timestamp drawn by an SSI-refused commit is published
        // through the same path with nothing committed at it: its
        // successor goes straight on.
        let w = Watermark::with_base(0);
        w.publish(1);
        w.publish(2); // the "skip": published, nothing committed
        w.publish(3);
        assert_eq!(w.get(), 3);
    }

    #[test]
    fn a_publisher_waits_for_its_predecessor() {
        // 2's publisher must not return while 1 is unpublished: a
        // snapshot at 2 would miss 1's writes.
        let w = Arc::new(Watermark::with_base(0));
        let publisher = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.publish(2))
        };
        let patience = Instant::now() + Duration::from_millis(100);
        while Instant::now() < patience {
            assert!(!publisher.is_finished(), "2 returned before 1");
            assert_eq!(w.get(), 0, "2 published before 1");
            std::thread::yield_now();
        }
        w.publish(1);
        publisher.join().unwrap();
        assert_eq!(w.get(), 2);
    }

    #[test]
    fn concurrent_publishers_drain_tight() {
        // 8 threads publish disjoint timestamp stripes of 1..=800, each
        // in ascending order; every publication returns visible, and the
        // prefix ends at exactly 800.
        let w = Arc::new(Watermark::with_base(0));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let w = Arc::clone(&w);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let ts = 1 + t + 8 * i;
                        w.publish(ts);
                        assert!(w.get() >= ts, "{ts} returned unpublished");
                    }
                });
            }
        });
        assert_eq!(w.get(), 800);
    }
}
