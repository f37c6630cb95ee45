//! Reclamation: the committing threads prune the versions they made, a
//! few at a time; nothing on the transaction path ever visits every
//! shard.
//!
//! * **Who queues.** A writer commit appends `(commit_ts, oid)` for
//!   each object of its write set to the *reclaim queue* of the
//!   committing thread's slot — a cache-line-padded mutex, a leaf taken
//!   under nothing. The slot (`finecc_obs::thread_slot`) is a
//!   **locality hint, never a correctness assumption**: a transaction
//!   may begin, write and commit on three threads. At `Serializable` a
//!   commit also queues the chains it registered SIREADs on (class
//!   chains included), and a tracked read-only commit queues those and
//!   counts toward the cadence below, so a chain only readers kept goes
//!   with its readers' batches (a safe snapshot, which registered
//!   nothing, touches no reclamation state).
//! * **Who prunes.** Every [`RECLAIM_EVERY`]-th commit of a slot runs
//!   one bounded batch: it computes [`MvccHeap::gc_horizon`], pops the
//!   queue's head entries committed at or below it, and prunes exactly
//!   those chains in place, one exclusive shard latch per entry. A batch
//!   prunes its own slot's queue; with budget to spare it looks at one
//!   other slot (a rotating cursor) and **adopts** that slot's due
//!   entries only if its owner has run no batch since this slot last
//!   looked. So an idle or exited thread's versions are still drained
//!   (`finecc.mvcc.versions_adopted`), while a busy client's queue,
//!   chains and allocations are its own: when every batch drained a
//!   rotating slot, two `mvcc` clients on `durable-update` freed each
//!   other's records (glibc keeps a freed block in the *freeing*
//!   thread's cache), and committed at 0.63 of `tav`'s rate instead of
//!   0.82. At `Serializable` every batch also raises the SIREAD pruning
//!   horizon, check-first.
//! * **Why a stale horizon is safe.** A horizon, once computed, is a
//!   valid pruning bound forever: later registrations pin the
//!   watermark, which only grows (see the `epoch` module).
//! * **The full sweep.** [`MvccHeap::gc`] is the explicit
//!   stop-and-sweep for tests and maintenance: every chain of every
//!   shard, every slot's queue. [`MvccHeap::checkpoint`] ends with one;
//!   the commit path never calls it.

use super::{MvccHeap, MvccTxn};
use crate::Ts;
use finecc_model::Oid;
use finecc_obs::thread_slot;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How many reclaim slots threads are dealt over.
pub(super) const RECLAIM_SLOTS: usize = 32;

/// Every how many writer commits of one slot (at `Serializable`, every
/// how many commits) a reclamation batch runs.
pub(super) const RECLAIM_EVERY: u32 = 8;

/// The least number of queue entries a batch may prune; a slot that
/// queued more than half of this since its last batch gets twice what
/// it queued, so batches outpace any write-set size.
pub(super) const RECLAIM_BATCH: usize = 32;

/// One thread slot's share of reclamation (see the module docs).
#[derive(Debug, Default)]
pub(super) struct ReclaimState {
    /// `(commit_ts, oid)` of every committed write queued through this
    /// slot and not yet pruned, in queueing order.
    pub(super) queue: VecDeque<(Ts, Oid)>,
    /// Writer commits queued through this slot — the batch cadence.
    commits: u32,
    /// Entries queued since this slot's last batch — sizes the next.
    queued: usize,
}

impl ReclaimState {
    /// Moves up to `budget` head entries of the queue committed at or
    /// below `horizon` into `due`.
    fn pop_due(&mut self, horizon: Ts, budget: usize, due: &mut Vec<Oid>) {
        due.reserve(budget.min(self.queue.len()));
        for _ in 0..budget {
            match self.queue.front() {
                Some(&(ts, oid)) if ts <= horizon => due.push(oid),
                _ => break,
            }
            self.queue.pop_front();
        }
    }
}

/// A [`ReclaimState`] behind its mutex, alone on its cache line(s) so
/// two clients' slots never share one.
#[derive(Debug)]
#[repr(align(128))]
pub(super) struct ReclaimSlot {
    pub(super) state: Mutex<ReclaimState>,
    /// Batches run for this slot: its owner bumps it, and another
    /// slot's batch loads it to tell a busy slot from an idle one.
    batches: AtomicU64,
    /// Owner-only from here on (relaxed hints). The slot this one's
    /// next under-budget batch looks at — a rotating cursor.
    help_next: AtomicUsize,
    /// Per slot, its `batches` when this one's batches last looked at
    /// it ([`NEVER_SEEN`] before the first look).
    seen: [AtomicU64; RECLAIM_SLOTS],
}

/// What [`ReclaimSlot::seen`] holds for a slot not yet looked at.
const NEVER_SEEN: u64 = u64::MAX;

impl Default for ReclaimSlot {
    fn default() -> ReclaimSlot {
        ReclaimSlot {
            state: Mutex::default(),
            batches: AtomicU64::new(0),
            help_next: AtomicUsize::new(0),
            seen: std::array::from_fn(|_| AtomicU64::new(NEVER_SEEN)),
        }
    }
}

impl MvccHeap {
    /// The oldest snapshot any reader may still demand. Versions
    /// committed at or before this horizon can never be reconstructed
    /// *past* again.
    ///
    /// The watermark is read **before** the epoch shards are scanned
    /// and bounds the result; see the `epoch` module docs for why that
    /// makes the shard-at-a-time scan safe against concurrent
    /// registrations.
    pub fn gc_horizon(&self) -> Ts {
        let bound = self.current_ts();
        match self.epochs.min_active() {
            Some(m) => m.min(bound),
            None => bound,
        }
    }

    /// Queues a committed transaction's write set, and the read-set chains
    /// it does not hold, in the committing thread's slot, and every
    /// [`RECLAIM_EVERY`]-th commit of the slot runs one batch.
    pub(super) fn queue_reclaim(&self, commit_ts: Ts, txn: &MvccTxn) {
        let slot = thread_slot() % RECLAIM_SLOTS;
        let read_only = txn
            .read_set
            .iter()
            .filter(|o| txn.write_set.binary_search(o).is_err());
        let commits = {
            let mut state = self.reclaim[slot].state.lock();
            let queued = state.queue.len();
            let oids = txn.write_set.iter().chain(read_only);
            state.queue.extend(oids.map(|&oid| (commit_ts, oid)));
            state.queued += state.queue.len() - queued;
            state.commits = state.commits.wrapping_add(1);
            state.commits
        };
        if commits.is_multiple_of(RECLAIM_EVERY) {
            self.reclaim_batch(slot);
        }
    }

    /// One bounded batch for `slot` (see the module docs): prunes the chains
    /// its queue's due head entries name, one exclusive latch each, and
    /// spends what budget is left on one idle slot's. Never visits all shards
    /// or slots.
    fn reclaim_batch(&self, slot: usize) {
        // The reclamation decision point — outside every latch.
        finecc_chaos::yield_point(finecc_chaos::Site::Reclaim);
        let horizon = self.gc_horizon();
        self.raise_horizon(horizon);
        let mut due = Vec::new();
        let own = &self.reclaim[slot];
        own.batches.fetch_add(1, Ordering::Relaxed);
        let budget = {
            let mut state = own.state.lock();
            let budget = RECLAIM_BATCH.max(2 * std::mem::take(&mut state.queued));
            state.pop_due(horizon, budget, &mut due);
            budget
        };
        if due.len() < budget {
            // An idle thread's slot must not strand its versions, and a
            // busy one's queue, chains and allocations are its owner's
            // alone (see the module docs): adopt another slot's due
            // entries only if its owner has run no batch since this
            // slot last looked, and move on to the next slot once this
            // one has nothing more to give. (A slot locked right now is
            // in use; the cursor passing over `slot` itself skips it.)
            let helped = own.help_next.load(Ordering::Relaxed) % RECLAIM_SLOTS;
            let other = &self.reclaim[helped];
            let batches = other.batches.load(Ordering::Relaxed);
            let idle =
                helped != slot && own.seen[helped].swap(batches, Ordering::Relaxed) == batches;
            if idle {
                if let Some(mut state) = other.state.try_lock() {
                    let before = due.len();
                    state.pop_due(horizon, budget - due.len(), &mut due);
                    self.stats.versions_adopted.add((due.len() - before) as u64);
                }
            }
            if due.len() < budget {
                own.help_next.store(helped + 1, Ordering::Relaxed);
            }
        }
        let mut reclaimed = 0;
        for &oid in &due {
            // An earlier entry of the same object may have pruned the
            // whole chain already.
            if let Some(chain) = self.chains.write(oid).get_mut() {
                reclaimed += chain.prune(horizon);
            }
        }
        if reclaimed > 0 {
            self.stats.versions_reclaimed.add(reclaimed as u64);
        }
    }

    /// The explicit **full sweep** (tests, maintenance — never the commit
    /// path): prunes every chain of every shard at the horizon, records and
    /// SIREAD entries alike, drops the chains left empty, and drains every
    /// slot's queue of the entries that covers. Returns the number of records
    /// reclaimed.
    pub fn gc(&self) -> usize {
        // The reclamation decision point — outside every latch.
        finecc_chaos::yield_point(finecc_chaos::Site::Reclaim);
        let horizon = self.gc_horizon();
        self.raise_horizon(horizon);
        let mut reclaimed = 0;
        self.chains.sweep(|chain| reclaimed += chain.prune(horizon));
        self.stats.versions_reclaimed.add(reclaimed as u64);
        for slot in self.reclaim.iter() {
            // The sweep pruned whatever these entries name.
            slot.state.lock().queue.retain(|&(ts, _)| ts > horizon);
        }
        reclaimed
    }
}
