//! Copy-on-write publication: the latch-free half of the heap's reader
//! path.
//!
//! A [`CowCell`] publishes an immutable heap-allocated snapshot through
//! one atomic pointer. **Readers never block**: they [`Rcu::pin`] (two
//! atomic counter operations, no mutex), load the pointer, and walk the
//! snapshot by reference. **Writers never block readers**: they build a
//! new snapshot off to the side, [`CowCell::swap`] it in with one
//! atomic exchange, and hand the old snapshot to a retire bin. Writers
//! of one cell must be serialized externally (the heap's per-shard
//! writer mutex) — the cell itself arbitrates nothing between writers.
//!
//! # Reclamation: striped two-era grace periods
//!
//! The hard part of a hand-rolled atomic-`Arc` cell is freeing the old
//! snapshot while some reader may still hold a reference into it
//! (crates.io — `arc-swap`, `crossbeam-epoch` — is unreachable in this
//! build environment, so the cell is self-contained). [`Rcu`] solves it
//! with classic epoch-based reclamation, striped so readers on
//! different threads do not contend on one counter:
//!
//! * A global **era** counter advances over time. Readers pin into the
//!   counter stripe of the era's parity (`era % 2`), re-checking the
//!   era after the increment — a pin that observes a stable era is
//!   guaranteed to be counted by any drain check that could enable
//!   freeing memory the pin protects (the re-check closes the race
//!   with a concurrent era advance; see `Rcu::pin`).
//! * Writers tag retired snapshots with the era current at retire
//!   time.
//! * [`Rcu::try_advance`] moves the era forward only when the
//!   *previous* parity's stripes have drained to zero, so at most two
//!   eras of readers are ever in flight; a snapshot retired at era `r`
//!   is freed once the era reaches `r + 2` ([`Rcu::free_horizon`]),
//!   by which point every reader that could have loaded it has
//!   unpinned.
//!
//! All era/pin/pointer operations use `SeqCst`: the safety argument
//! ("a reader pinned at era ≥ r+1 loads the pointer after the swap
//! that retired the era-`r` snapshot, so it sees the new snapshot")
//! chains coherence through the single total order, which is far
//! easier to audit than a minimal-ordering variant — and the reader
//! path is still just two uncontended RMWs plus plain loads.
//!
//! Reclamation itself (the retire bins, [`Rcu::try_advance`]) runs in
//! the heap's reclamation batches and its explicit `gc()` sweep (see the
//! `heap` module's *Reclamation* section), never on a read.

use std::cell::Cell;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};

/// How many pin counters each era parity is striped over. Threads are
/// dealt a stripe at first pin ([`thread_slot`]), and every stripe sits
/// on a cache line of its own ([`PinCell`]), so readers on different
/// threads do not bounce one line between their cores.
const PIN_STRIPES: usize = 32;

/// This thread's slot index, dealt round-robin on first use; callers
/// reduce it modulo their own stripe count (pin stripes here, epoch
/// shards and reclaim slots in the heap). It is a **locality hint**,
/// never a correctness assumption: any thread may use any stripe, and
/// threads share one whenever there are more threads than stripes.
pub(crate) fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<Option<usize>> = const { Cell::new(None) };
    }
    SLOT.with(|s| match s.get() {
        Some(i) => i,
        None => {
            let i = NEXT.fetch_add(1, SeqCst);
            s.set(Some(i));
            i
        }
    })
}

/// One pin counter, alone on its cache line (128 bytes covers the
/// adjacent-line prefetcher's pairs).
#[derive(Debug, Default)]
#[repr(align(128))]
struct PinCell(AtomicU64);

/// The reclamation clock shared by every [`CowCell`] of one heap.
#[derive(Debug)]
pub(crate) struct Rcu {
    /// The monotone era counter.
    era: AtomicU64,
    /// Pin counters: `pins[(era % 2) * PIN_STRIPES + stripe]`.
    pins: Box<[PinCell]>,
}

/// An active read-side critical section. While a `Pin` is alive, no
/// snapshot the pinning thread can reach through a [`CowCell::load`]
/// will be freed. Dropping it ends the critical section.
pub(crate) struct Pin<'a> {
    slot: &'a AtomicU64,
}

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        self.slot.fetch_sub(1, SeqCst);
    }
}

impl Rcu {
    pub(crate) fn new() -> Rcu {
        Rcu {
            era: AtomicU64::new(0),
            pins: (0..2 * PIN_STRIPES).map(|_| PinCell::default()).collect(),
        }
    }

    /// Enters a read-side critical section. Latch-free: two atomic RMWs
    /// on an almost-always-uncontended stripe, and a bounded retry only
    /// when the era advances concurrently (at most once per
    /// reclamation batch, so in practice the retry almost never fires;
    /// the return value counts how often it did, for the heap's
    /// contention counters).
    pub(crate) fn pin(&self) -> (Pin<'_>, u64) {
        let stripe = thread_slot() % PIN_STRIPES;
        let mut retries = 0;
        loop {
            let era = self.era.load(SeqCst);
            let slot = &self.pins[(era % 2) as usize * PIN_STRIPES + stripe].0;
            slot.fetch_add(1, SeqCst);
            // Re-check: if the era is unchanged, every drain check that
            // could free memory this pin protects is ordered after the
            // increment above and therefore observes it. If the era
            // moved, the increment may have landed in a parity already
            // drained — undo and retry on the new era.
            if self.era.load(SeqCst) == era {
                return (Pin { slot }, retries);
            }
            slot.fetch_sub(1, SeqCst);
            retries += 1;
        }
    }

    /// The era a snapshot retired *now* must be tagged with.
    pub(crate) fn current_era(&self) -> u64 {
        self.era.load(SeqCst)
    }

    /// Advances the era if the previous parity has drained, and returns
    /// the **free horizon**: retired snapshots tagged with an era `< `
    /// the returned value may be freed. Runs on the reclamation path
    /// only; concurrent callers are harmless (the advance is a CAS).
    pub(crate) fn try_advance(&self) -> u64 {
        let era = self.era.load(SeqCst);
        let prev_parity = ((era + 1) % 2) as usize;
        let drained = self.pins[prev_parity * PIN_STRIPES..(prev_parity + 1) * PIN_STRIPES]
            .iter()
            .all(|c| c.0.load(SeqCst) == 0);
        if drained {
            let _ = self.era.compare_exchange(era, era + 1, SeqCst, SeqCst);
        }
        self.free_horizon()
    }

    /// Eras strictly below this value are unreachable: every reader
    /// pinned in them has unpinned (two grace periods have passed).
    pub(crate) fn free_horizon(&self) -> u64 {
        self.era.load(SeqCst).saturating_sub(1)
    }
}

/// An atomically published, heap-allocated, immutable snapshot.
///
/// * [`CowCell::load`] — readers, latch-free, under a [`Pin`].
/// * [`CowCell::swap`] — writers, **externally serialized** (per-shard
///   writer mutex); returns the old snapshot as a [`Retired`] box that
///   must be kept alive until the [`Rcu`] free horizon passes its tag.
#[derive(Debug)]
pub(crate) struct CowCell<T> {
    ptr: AtomicPtr<T>,
}

// SAFETY: the cell hands out `&T` only (readers) and moves whole boxes
// in and out (writers); `T: Send + Sync` makes both directions sound.
unsafe impl<T: Send + Sync> Send for CowCell<T> {}
unsafe impl<T: Send + Sync> Sync for CowCell<T> {}

/// A snapshot swapped out of a [`CowCell`], awaiting its grace period.
/// Dropping it frees the snapshot — only do so once
/// [`Rcu::free_horizon`] exceeds `era`.
///
/// Holds the raw pointer rather than a `Box`: readers may still hold
/// references into the snapshot, and materializing an owning `Box`
/// while those references live would assert unique access the aliasing
/// model forbids. The `Box` is reconstructed only in `Drop`, after the
/// grace period has run out every reader.
#[derive(Debug)]
pub(crate) struct Retired<T> {
    ptr: *mut T,
    /// The [`Rcu`] era current when the snapshot was retired.
    pub(crate) era: u64,
}

// SAFETY: a `Retired` is exclusive ownership of the (immutable,
// eventually-freed) snapshot; moving it across threads is sound for
// the same bounds a `Box<T>` would need in this shared-reader setting.
unsafe impl<T: Send + Sync> Send for Retired<T> {}
unsafe impl<T: Send + Sync> Sync for Retired<T> {}

impl<T> Retired<T> {
    /// The retired snapshot (still fully intact — readers may be
    /// walking it).
    pub(crate) fn node(&self) -> &T {
        // SAFETY: the pointee stays allocated until `self` drops.
        unsafe { &*self.ptr }
    }
}

impl<T> Drop for Retired<T> {
    fn drop(&mut self) {
        // SAFETY: `ptr` came from `Box::into_raw` and `self` is its
        // sole owner; the caller contract (free only past the RCU
        // horizon) guarantees no reader reference survives.
        drop(unsafe { Box::from_raw(self.ptr) });
    }
}

impl<T> CowCell<T> {
    pub(crate) fn new(value: T) -> CowCell<T> {
        CowCell {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
        }
    }

    /// Loads the current snapshot. Latch-free; the reference is valid
    /// for the lifetime of the pin (reclamation cannot pass the pin's
    /// era while it is held).
    pub(crate) fn load<'p>(&self, _pin: &'p Pin<'_>) -> &'p T {
        // SAFETY: the pointer was created by `Box::into_raw` and is
        // freed only by `Retired::drop` after the RCU free horizon
        // passes the retire era — which cannot happen while `_pin` is
        // alive (the pin blocks its parity from draining, capping the
        // era at retire_era + 1 < free threshold). The returned
        // lifetime is capped by the pin, enforcing exactly that.
        unsafe { &*self.ptr.load(SeqCst) }
    }

    /// Loads the current snapshot without a pin. Sound **only** while
    /// the caller holds the external writer serialization of this cell
    /// (the per-shard writer mutex): no swap — hence no retire of the
    /// current snapshot — can run concurrently.
    pub(crate) fn load_exclusive(&self) -> &T {
        // SAFETY: see above; the writer mutex pins the current snapshot
        // in place for the guard's lifetime, and `&self` outlives the
        // call.
        unsafe { &*self.ptr.load(SeqCst) }
    }

    /// Publishes `new`, returning the previous snapshot for deferred
    /// reclamation. Callers must hold the cell's external writer
    /// serialization and must tag the result with [`Rcu::current_era`]
    /// **after** the swap (swap, then read the era — the order the
    /// safety argument needs). This is packaged here so it cannot be
    /// done backwards.
    pub(crate) fn swap(&self, new: T, rcu: &Rcu) -> Retired<T> {
        let old = self.ptr.swap(Box::into_raw(Box::new(new)), SeqCst);
        let era = rcu.current_era();
        Retired { ptr: old, era }
    }
}

impl<T> Drop for CowCell<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` means no readers or writers remain; the
        // current pointer is exclusively ours.
        drop(unsafe { Box::from_raw(*self.ptr.get_mut()) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Bumps a counter when dropped, so tests can observe reclamation.
    struct DropProbe(Arc<AtomicUsize>);
    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    #[test]
    fn load_sees_latest_swap() {
        let rcu = Rcu::new();
        let cell = CowCell::new(1u64);
        let (pin, _) = rcu.pin();
        assert_eq!(*cell.load(&pin), 1);
        let retired = cell.swap(2, &rcu);
        assert_eq!(*retired.node(), 1, "old snapshot intact after swap");
        assert_eq!(*cell.load(&pin), 2, "fresh load sees the new snapshot");
        drop(pin);
        drop(retired); // test shortcut: no concurrent readers here
    }

    #[test]
    fn era_advances_only_when_prev_parity_drains() {
        let rcu = Rcu::new();
        let (pin, _) = rcu.pin(); // pinned at era 0, parity 0
        let e0 = rcu.current_era();
        // Era 0 -> 1 drains parity 1 (empty): advances even while we
        // hold a parity-0 pin…
        let h1 = rcu.try_advance();
        assert_eq!(rcu.current_era(), e0 + 1);
        // …but 1 -> 2 needs parity 0 drained, which our pin blocks.
        let h2 = rcu.try_advance();
        assert_eq!(rcu.current_era(), e0 + 1, "held pin blocks the advance");
        assert!(h2 <= e0 + 1 && h1 <= h2);
        drop(pin);
        assert_eq!(rcu.try_advance(), e0 + 1, "freed up to the horizon");
        assert_eq!(rcu.current_era(), e0 + 2);
    }

    #[test]
    fn free_horizon_protects_snapshots_readers_may_hold() {
        let drops = Arc::new(AtomicUsize::new(0));
        let rcu = Rcu::new();
        let cell = CowCell::new(DropProbe(Arc::clone(&drops)));
        let (pin, _) = rcu.pin();
        let _old = cell.load(&pin); // reader holds the era-0 snapshot
        let retired = cell.swap(DropProbe(Arc::clone(&drops)), &rcu);
        // The pin caps the era below retire_era + 2: the horizon never
        // clears the retired snapshot while the reader is live.
        for _ in 0..4 {
            assert!(
                rcu.try_advance() <= retired.era,
                "horizon passed a snapshot a live reader may hold"
            );
        }
        assert_eq!(drops.load(SeqCst), 0);
        drop(pin);
        // Two grace periods after the pin is gone, the horizon clears.
        let mut horizon = 0;
        for _ in 0..4 {
            horizon = rcu.try_advance();
        }
        assert!(horizon > retired.era);
        drop(retired);
        assert_eq!(drops.load(SeqCst), 1);
        drop(cell);
        assert_eq!(drops.load(SeqCst), 2, "cell drop frees the live snapshot");
    }

    #[test]
    fn concurrent_readers_and_swapper_stay_coherent() {
        // A writer publishes monotonically increasing snapshots while
        // readers assert monotonicity through their pins — the
        // single-cell analogue of the heap's reader storm. Retired
        // snapshots are only freed past the horizon.
        let rcu = Arc::new(Rcu::new());
        let cell = Arc::new(CowCell::new(0u64));
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let rcu = Arc::clone(&rcu);
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut last = 0;
                    while stop.load(SeqCst) == 0 {
                        let (pin, _) = rcu.pin();
                        let v = *cell.load(&pin);
                        assert!(v >= last, "snapshot went backwards: {last} -> {v}");
                        last = v;
                    }
                });
            }
            let mut bin: Vec<Retired<u64>> = Vec::new();
            for v in 1..=2_000u64 {
                bin.push(cell.swap(v, &rcu));
                if v % 64 == 0 {
                    let horizon = rcu.try_advance();
                    bin.retain(|r| r.era >= horizon);
                }
            }
            stop.store(1, SeqCst);
        });
    }
}
