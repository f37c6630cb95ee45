//! The lock manager: blocking acquisition, strict-2PL release, deadlock
//! detection, and a non-blocking mode for deterministic simulation.

use crate::deadlock::WaitsFor;
use crate::modes::{LockMode, ModeSource};
use crate::resource::ResourceId;
use crate::shard::{shard_of, EntryShard, Table, TxnShard, SHARDS};
use crate::stats::LockStats;
use finecc_model::TxnId;
use finecc_obs::{ContentionKind, ObjKey, Obs, Phase};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The observability key a lockable resource's contention is
/// attributed to: instances and tuples by OID (a tuple *is* the
/// projection of one instance, so both granularities heat the same
/// object), fields by `(oid, field)`, class-level resources by class.
fn obj_key(res: &ResourceId) -> ObjKey {
    match res {
        ResourceId::Instance(o, _) => ObjKey::Instance(o.0),
        ResourceId::Tuple(_, o) => ObjKey::Instance(o.0),
        ResourceId::Field(o, f) => ObjKey::Field(o.0, f.0),
        ResourceId::Class(c) | ResourceId::Relation(c) => ObjKey::Class(c.0),
    }
}

/// Why a blocking acquisition failed. Both cases mean the transaction
/// should abort (release everything, undo, optionally retry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcquireError {
    /// The request closed a waits-for cycle and this transaction was
    /// chosen as the victim, or another detector flagged it.
    Deadlock,
    /// The request waited longer than the configured timeout.
    Timeout,
}

impl std::fmt::Display for AcquireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcquireError::Deadlock => write!(f, "deadlock victim"),
            AcquireError::Timeout => write!(f, "lock wait timeout"),
        }
    }
}

impl std::error::Error for AcquireError {}

/// Result of a non-blocking [`LockManager::try_acquire`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryAcquire {
    /// The lock was granted (or already held).
    Granted,
    /// The lock conflicts with granted or queued requests.
    WouldBlock,
}

/// Which transaction dies when a deadlock cycle is found.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum VictimPolicy {
    /// Abort the requester that closed the cycle (deterministic, cheap).
    #[default]
    Requester,
    /// Abort the youngest transaction (largest [`TxnId`]) on the cycle.
    Youngest,
}

/// How long a blocked request polls its shard's epoch word before it
/// parks on the condvar: about one park/unpark round trip (20–40 µs on
/// the sandbox) — the spin-for-a-context-switch rule. What it waits for
/// is a *transaction* (3–8 µs here) to end, not a latch. A waiter that
/// parks at once is still waking up when the deadlock victim that
/// released it has already restarted, taken more locks and closed the
/// next cycle. `hot-commute`, 2 clients, one 6 s run per bound,
/// `tps.tav` / `tps.fieldlock`: no poll 68k / 21k (the single-mutex
/// table: 57k / 34k), 5 µs 184k / 102k, 25 µs 214k / 147k, 100 µs
/// 211k / 143k — a plateau from 25 µs on, hence a constant.
const POLL_BOUND: Duration = Duration::from_micros(25);

/// Under a chaos scheduled session a blocked request neither polls nor
/// parks (wall-clock time means nothing in virtual time, and no other
/// worker can run while this one sleeps): it yields at
/// [`finecc_chaos::Site::LockWait`] with no latch held, and this budget
/// of yields plays the timeout's role.
const CHAOS_WAIT_BUDGET: u32 = 1_000;

/// The lock manager. `S` supplies per-resource mode compatibility.
///
/// Lock entries live in hash-sharded tables, each under its own short
/// latch; a transaction's held list lives in a shard keyed by its id.
/// A request that is granted at once takes one entry latch, then one
/// held-list latch, never two together, and touches nothing every
/// client shares but the counters. Only a request that must wait looks
/// further: it runs the deadlock detector if another request is
/// waiting too, polls its shard's epoch word for `POLL_BOUND`, and
/// parks on the shard's condvar after that.
pub struct LockManager<S> {
    src: S,
    /// Lock entries, sharded by resource.
    shards: Box<[EntryShard]>,
    /// Held lists, sharded by transaction.
    txns: Box<[TxnShard]>,
    /// Requests queued right now, over all shards. A waits-for cycle
    /// needs two, so a request that blocks alone skips the detector.
    waiting: AtomicUsize,
    /// Transactions another request's detector chose to die
    /// ([`VictimPolicy::Youngest`] only). A leaf latch: taken alone or
    /// under entry-shard latches, never the other way round.
    victims: Mutex<HashSet<TxnId>>,
    /// `victims.len()`, so the grant path reads one word instead.
    victims_pending: AtomicUsize,
    next_txn: AtomicU64,
    /// Live counters, shared so metrics-registry sources can hold them
    /// beyond the manager's borrow.
    pub stats: Arc<LockStats>,
    victim_policy: VictimPolicy,
    wait_timeout: Duration,
    obs: Arc<Obs>,
}

impl<S: ModeSource> LockManager<S> {
    /// Creates a manager with the default victim policy (requester dies)
    /// and a 10-second wait timeout.
    pub fn new(src: S) -> LockManager<S> {
        LockManager {
            src,
            shards: (0..SHARDS).map(|_| EntryShard::default()).collect(),
            txns: (0..SHARDS).map(|_| TxnShard::default()).collect(),
            waiting: AtomicUsize::new(0),
            victims: Mutex::new(HashSet::new()),
            victims_pending: AtomicUsize::new(0),
            next_txn: AtomicU64::new(1),
            stats: Arc::new(LockStats::default()),
            victim_policy: VictimPolicy::Requester,
            wait_timeout: Duration::from_secs(10),
            obs: Arc::new(Obs::disabled()),
        }
    }

    /// Sets the deadlock victim policy.
    pub fn with_victim_policy(mut self, p: VictimPolicy) -> Self {
        self.victim_policy = p;
        self
    }

    /// Sets the blocking-wait timeout.
    pub fn with_timeout(mut self, d: Duration) -> Self {
        self.wait_timeout = d;
        self
    }

    /// Attaches an observability handle: blocked requests are timed
    /// into [`Phase::LockWait`] and attributed to the blocking
    /// resource's object. Disabled handles cost one branch per block.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// Records a *granted* blocked wait into the [`Phase::LockWait`]
    /// histogram.
    fn note_granted_wait(&self, started: Instant) {
        if self.obs.is_enabled() {
            let ns = started.elapsed().as_nanos() as u64;
            self.obs.record_phase_ns(Phase::LockWait, ns);
        }
    }

    /// The mode source.
    pub fn source(&self) -> &S {
        &self.src
    }

    /// Starts a new transaction (monotonically increasing ids; the id
    /// doubles as the age for [`VictimPolicy::Youngest`]).
    pub fn begin(&self) -> TxnId {
        TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// Grants `(txn, mode)` on `res` if that needs no waiting; `None` if
    /// it conflicts with a granted mode or would overtake a waiter.
    /// `Some(first)`: `first` unless the transaction already held a
    /// mode on the resource (this one, or another — a conversion).
    fn grant_now(
        &self,
        table: &mut Table,
        txn: TxnId,
        res: ResourceId,
        mode: LockMode,
    ) -> Option<bool> {
        let entry = table.entry(res);
        if entry.holds(txn, mode) {
            return Some(false);
        }
        if !entry.can_grant(&self.src, &res, txn, mode) {
            return None;
        }
        let conversion = entry.holds_any(txn);
        entry.grant(txn, mode);
        if conversion {
            self.stats.upgrades.bump();
        }
        Some(!conversion)
    }

    /// Adds `res` to `txn`'s held list (no entry-shard latch held).
    fn note_held(&self, txn: TxnId, res: ResourceId) {
        let mut held = self.txns[shard_of(&txn)].held.lock();
        held.entry(txn).or_default().push(res);
    }

    /// Consumes `txn`'s victim flag, if another request's detector set
    /// one.
    fn take_victim(&self, txn: TxnId) -> bool {
        // Relaxed: a waiter reads this under the shard latch the
        // detector held while it flagged; a fresh request that misses
        // a concurrent flag is a request that came first.
        if self.victims_pending.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let hit = self.victims.lock().remove(&txn);
        if hit {
            self.victims_pending.fetch_sub(1, Ordering::Relaxed);
        }
        hit
    }

    /// Takes `(txn, mode)` out of `res`'s queue (under `shard`'s latch)
    /// and lets the waiters behind it look again.
    fn leave_queue(
        &self,
        shard: &EntryShard,
        table: &mut Table,
        txn: TxnId,
        res: ResourceId,
        mode: LockMode,
    ) {
        let Some(entry) = table.entries.get_mut(&res) else {
            return;
        };
        if entry.dequeue(txn, mode) {
            self.waiting.fetch_sub(1, Ordering::SeqCst);
        }
        shard.departed(table, &res);
    }

    /// Blocking acquisition under strict 2PL. Returns when granted, the
    /// transaction is chosen as a deadlock victim, or the wait times out.
    pub fn acquire(&self, txn: TxnId, res: ResourceId, mode: LockMode) -> Result<(), AcquireError> {
        // Chaos scheduling decision strictly before any latch (a parked
        // latch holder would deadlock the token scheduler).
        finecc_chaos::yield_point(finecc_chaos::Site::LockAcquire);
        if self.take_victim(txn) {
            self.stats.requests.bump();
            return Err(AcquireError::Deadlock);
        }
        let shard = &self.shards[shard_of(&res)];
        let mut table = shard.table.lock();
        if let Some(first) = self.grant_now(&mut table, txn, res, mode) {
            drop(table);
            if first {
                self.note_held(txn, res);
            }
            self.stats.count_immediate();
            return Ok(());
        }
        self.stats.requests.bump();
        self.stats.blocks.bump();
        let entry = table.entry(res);
        if entry.holds_any(txn) {
            self.stats.upgrades.bump();
        }
        entry.enqueue(txn, mode);
        self.waiting.fetch_add(1, Ordering::SeqCst);
        // Attribute exactly one contention event per bump of
        // `stats.blocks`, so the registry's lock_blocks total equals
        // the scheme-level blocks counter.
        self.obs.contend(obj_key(&res), ContentionKind::LockBlock);
        let blocked_at = Instant::now();
        // One deadline per request, however often it is woken.
        let deadline = blocked_at + self.wait_timeout;
        let chaos = finecc_chaos::scheduled_session();
        let mut chaos_waits = 0u32;
        let mut parked = false;

        loop {
            // Under the latch. The first pass matters too: a request
            // queued only so as not to overtake waiters it is
            // compatible with waits for nobody, and nobody would wake it.
            if self.take_victim(txn) {
                self.leave_queue(shard, &mut table, txn, res, mode);
                return Err(AcquireError::Deadlock);
            }
            let entry = table.entry(res);
            if entry.can_grant_queued(&self.src, &res, txn, mode) {
                let first = !entry.holds_any(txn);
                if entry.dequeue(txn, mode) {
                    self.waiting.fetch_sub(1, Ordering::SeqCst);
                }
                entry.grant(txn, mode);
                // Compatible waiters behind us may now also be grantable.
                if !entry.queue.is_empty() {
                    shard.wake(&table);
                }
                drop(table);
                if first {
                    self.note_held(txn, res);
                }
                self.note_granted_wait(blocked_at);
                return Ok(());
            }
            let timed_out = if chaos {
                chaos_waits >= CHAOS_WAIT_BUDGET
            } else {
                Instant::now() >= deadline
            };
            if timed_out {
                self.leave_queue(shard, &mut table, txn, res, mode);
                self.stats.timeouts.bump();
                return Err(AcquireError::Timeout);
            }
            let seen = shard.epoch.load(Ordering::Relaxed);
            drop(table);

            // A cycle through this request needs another queued one.
            // One that queues later finds this one counted and runs the
            // detector itself, so the racy read loses no cycle.
            if self.waiting.load(Ordering::SeqCst) > 1 && self.closes_cycle(txn, res, mode) {
                return Err(AcquireError::Deadlock);
            }

            // Wait, with no latch held, for the shard's epoch to move.
            if chaos {
                finecc_chaos::yield_point(finecc_chaos::Site::LockWait);
                chaos_waits += 1;
                table = shard.table.lock();
                continue;
            }
            let poll_until = deadline.min(Instant::now() + POLL_BOUND);
            while shard.epoch.load(Ordering::Acquire) == seen && Instant::now() < poll_until {
                std::hint::spin_loop();
            }
            table = shard.table.lock();
            // Every bump happens under the latch, so an unmoved epoch
            // here cannot move before the wait releases the latch.
            if shard.epoch.load(Ordering::Relaxed) == seen {
                if !parked {
                    parked = true;
                    self.stats.parks.bump();
                }
                table.parked += 1;
                let left = deadline.saturating_duration_since(Instant::now());
                shard.cv.wait_for(&mut table, left);
                table.parked -= 1;
            }
        }
    }

    /// Non-blocking acquisition: grants immediately or reports
    /// `WouldBlock` without queueing. Used by the deterministic simulator.
    pub fn try_acquire(&self, txn: TxnId, res: ResourceId, mode: LockMode) -> TryAcquire {
        let shard = &self.shards[shard_of(&res)];
        let granted = self.grant_now(&mut shard.table.lock(), txn, res, mode);
        let Some(first) = granted else {
            self.stats.requests.bump();
            self.stats.would_blocks.bump();
            return TryAcquire::WouldBlock;
        };
        if first {
            self.note_held(txn, res);
        }
        self.stats.count_immediate();
        TryAcquire::Granted
    }

    /// Strict-2PL release: drops every lock (granted and queued) of `txn`
    /// and wakes waiters. Called exactly once at commit/abort.
    pub fn release_all(&self, txn: TxnId) {
        self.stats.releases.bump();
        self.take_victim(txn);
        let held = self.txns[shard_of(&txn)].held.lock().remove(&txn);
        for res in held.into_iter().flatten() {
            let shard = &self.shards[shard_of(&res)];
            let mut table = shard.table.lock();
            let Some(entry) = table.entries.get_mut(&res) else {
                continue;
            };
            // Queued requests on held resources (a conversion blocked
            // in another thread) are purged too, so that waiter sees
            // itself gone and re-queues or errors; in practice
            // acquire() owns its queue entry, so this is only for
            // crashed callers.
            let queued = entry.queue.len();
            entry.purge(txn);
            let purged = queued - entry.queue.len();
            if purged > 0 {
                self.waiting.fetch_sub(purged, Ordering::SeqCst);
            }
            shard.departed(&mut table, &res);
        }
    }

    /// `true` if `txn` currently holds `mode` on `res`.
    pub fn holds(&self, txn: TxnId, res: ResourceId, mode: LockMode) -> bool {
        let table = self.shards[shard_of(&res)].table.lock();
        table.entries.get(&res).is_some_and(|e| e.holds(txn, mode))
    }

    /// The resources `txn` holds locks on.
    pub fn held_resources(&self, txn: TxnId) -> Vec<ResourceId> {
        let held = self.txns[shard_of(&txn)].held.lock();
        held.get(&txn).cloned().unwrap_or_default()
    }

    /// Number of resources with live lock state.
    pub fn entry_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.table.lock().entries.len())
            .sum()
    }

    /// The deadlock detector, run by a queued `(txn, mode)` request on
    /// `res` with no latch held: `true` when the request closed a
    /// waits-for cycle and `txn` is the one to die (its request is then
    /// already out of the queue). Any other victim is flagged and woken.
    ///
    /// The one place a thread holds more than one latch: every
    /// entry-shard latch, taken in index order, so the graph is the
    /// exact waits-for relation of one instant.
    fn closes_cycle(&self, txn: TxnId, res: ResourceId, mode: LockMode) -> bool {
        let mut tables: Vec<_> = self.shards.iter().map(|s| s.table.lock()).collect();
        let mut wf = WaitsFor::new();
        let mut queued_at = Vec::new();
        for (i, table) in tables.iter().enumerate() {
            for (r, entry) in &table.entries {
                for &(t, m) in &entry.queue {
                    wf.add_edges(t, entry.blockers(&self.src, r, t, m));
                    queued_at.push((t, i));
                }
            }
        }
        let Some(cycle) = wf.cycle_through(txn) else {
            return false;
        };
        let victim = match self.victim_policy {
            VictimPolicy::Requester => txn,
            VictimPolicy::Youngest => *cycle.iter().max().expect("cycle is non-empty"),
        };
        if victim == txn {
            self.stats.deadlocks.bump();
            let i = shard_of(&res);
            self.leave_queue(&self.shards[i], &mut tables[i], txn, res, mode);
            return true;
        }
        // A cycle seen again before its victim has left is not news:
        // waking the victim's shard once more would only make this
        // request (polling the same epoch, perhaps) look again at once.
        if self.victims.lock().insert(victim) {
            self.victims_pending.fetch_add(1, Ordering::Relaxed);
            self.stats.deadlocks.bump();
            for (t, i) in queued_at {
                if t == victim {
                    self.shards[i].wake(&tables[i]);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{RwSource, READ, WRITE};
    use finecc_model::{ClassId, Oid};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn res(i: u64) -> ResourceId {
        ResourceId::Instance(Oid(i), ClassId(0))
    }

    fn rd() -> LockMode {
        LockMode::plain(READ)
    }

    fn wr() -> LockMode {
        LockMode::plain(WRITE)
    }

    fn mk() -> Arc<LockManager<RwSource>> {
        Arc::new(LockManager::new(RwSource).with_timeout(Duration::from_secs(5)))
    }

    #[test]
    fn shared_reads_exclusive_writes() {
        let lm = mk();
        let (t1, t2) = (lm.begin(), lm.begin());
        lm.acquire(t1, res(1), rd()).unwrap();
        lm.acquire(t2, res(1), rd()).unwrap();
        assert_eq!(
            lm.try_acquire(lm.begin(), res(1), wr()),
            TryAcquire::WouldBlock
        );
        lm.release_all(t1);
        lm.release_all(t2);
        assert_eq!(
            lm.try_acquire(lm.begin(), res(1), wr()),
            TryAcquire::Granted
        );
    }

    #[test]
    fn reacquire_held_mode_is_noop() {
        let lm = mk();
        let t = lm.begin();
        lm.acquire(t, res(1), rd()).unwrap();
        lm.acquire(t, res(1), rd()).unwrap();
        assert!(lm.holds(t, res(1), rd()));
        assert_eq!(lm.held_resources(t), vec![res(1)]);
    }

    #[test]
    fn blocking_handoff_across_threads() {
        let lm = mk();
        let t1 = lm.begin();
        lm.acquire(t1, res(1), wr()).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || {
            let t2 = lm2.begin();
            lm2.acquire(t2, res(1), wr()).unwrap();
            lm2.release_all(t2);
            true
        });
        thread::sleep(Duration::from_millis(50));
        lm.release_all(t1);
        assert!(h.join().unwrap());
    }

    #[test]
    fn classic_two_resource_deadlock_detected() {
        let lm = mk();
        let t1 = lm.begin();
        let t2 = lm.begin();
        lm.acquire(t1, res(1), wr()).unwrap();
        lm.acquire(t2, res(2), wr()).unwrap();

        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || {
            // t2 waits for res 1 (held by t1).
            lm2.acquire(t2, res(1), wr())
        });
        thread::sleep(Duration::from_millis(50));
        // t1 now closes the cycle: waits for res 2 (held by t2) → victim.
        let r1 = lm.acquire(t1, res(2), wr());
        assert_eq!(r1, Err(AcquireError::Deadlock));
        lm.release_all(t1);
        // t2 proceeds once t1 released.
        assert_eq!(h.join().unwrap(), Ok(()));
        lm.release_all(t2);
        assert!(lm.stats.snapshot().deadlocks >= 1);
    }

    #[test]
    fn upgrade_deadlock_two_readers() {
        // The System R escalation scenario (problem P3): both read, both
        // try to upgrade — guaranteed deadlock; one must die.
        let lm = mk();
        let t1 = lm.begin();
        let t2 = lm.begin();
        lm.acquire(t1, res(1), rd()).unwrap();
        lm.acquire(t2, res(1), rd()).unwrap();

        let upgrade = |txn: TxnId| {
            let lm = Arc::clone(&lm);
            thread::spawn(move || {
                let r = lm.acquire(txn, res(1), wr());
                // Victim or winner, release immediately so the peer can
                // make progress (strict 2PL end-of-transaction).
                lm.release_all(txn);
                r
            })
        };
        let h1 = upgrade(t1);
        let h2 = upgrade(t2);
        let (r1, r2) = (h1.join().unwrap(), h2.join().unwrap());
        // No timeout allowed; at least one must be a deadlock victim, and
        // if exactly one dies the other must have won the write.
        match (r1, r2) {
            (Ok(()), Err(AcquireError::Deadlock)) => {}
            (Err(AcquireError::Deadlock), Ok(())) => {}
            // Both deadlocked is also a safe (if pessimistic) outcome
            // under the Requester policy if timing interleaves detection.
            (Err(AcquireError::Deadlock), Err(AcquireError::Deadlock)) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert!(lm.stats.snapshot().deadlocks >= 1);
    }

    #[test]
    fn youngest_victim_policy() {
        let lm = Arc::new(
            LockManager::new(RwSource)
                .with_victim_policy(VictimPolicy::Youngest)
                .with_timeout(Duration::from_secs(5)),
        );
        let t1 = lm.begin(); // older
        let t2 = lm.begin(); // younger
        lm.acquire(t1, res(1), wr()).unwrap();
        lm.acquire(t2, res(2), wr()).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || {
            let r = lm2.acquire(t2, res(1), wr());
            if r.is_err() {
                lm2.release_all(t2);
            }
            r
        });
        thread::sleep(Duration::from_millis(50));
        // t1 closes the cycle; youngest (t2) must die, t1 proceeds.
        let r1 = lm.acquire(t1, res(2), wr());
        assert_eq!(r1, Ok(()));
        assert_eq!(h.join().unwrap(), Err(AcquireError::Deadlock));
        lm.release_all(t1);
    }

    #[test]
    fn timeout_fires() {
        let lm = Arc::new(LockManager::new(RwSource).with_timeout(Duration::from_millis(100)));
        let t1 = lm.begin();
        let t2 = lm.begin();
        lm.acquire(t1, res(1), wr()).unwrap();
        let r = lm.acquire(t2, res(1), wr());
        assert_eq!(r, Err(AcquireError::Timeout));
        assert_eq!(lm.stats.snapshot().timeouts, 1);
        lm.release_all(t1);
        lm.release_all(t2);
    }

    #[test]
    fn timeout_fires_despite_unrelated_wakeups() {
        // One deadline per request: two threads handing a neighbouring
        // resource (same shard, so its queue's wake-ups reach the
        // waiter) back and forth must not keep restarting the clock.
        let budget = Duration::from_millis(100);
        let lm = Arc::new(LockManager::new(RwSource).with_timeout(budget));
        let holder = lm.begin();
        lm.acquire(holder, res(1), wr()).unwrap();
        let busy = (2..)
            .map(res)
            .find(|r| shard_of(r) == shard_of(&res(1)))
            .unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let traffic: Vec<_> = (0..2)
            .map(|_| {
                let (lm, stop) = (Arc::clone(&lm), Arc::clone(&stop));
                thread::spawn(move || {
                    let until = Instant::now() + Duration::from_secs(3);
                    while !stop.load(Ordering::Relaxed) && Instant::now() < until {
                        let t = lm.begin();
                        lm.acquire(t, busy, wr()).unwrap();
                        lm.release_all(t);
                    }
                })
            })
            .collect();
        let waiter = lm.begin();
        let t0 = Instant::now();
        let r = lm.acquire(waiter, res(1), wr());
        let waited = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        for t in traffic {
            t.join().unwrap();
        }
        assert_eq!(r, Err(AcquireError::Timeout));
        assert!(
            waited >= budget && waited < budget * 5 / 2,
            "a 100 ms budget fired after {waited:?}"
        );
        lm.release_all(holder);
        lm.release_all(waiter);
    }

    #[test]
    fn fifo_fairness_no_overtaking() {
        let lm = mk();
        let t1 = lm.begin();
        lm.acquire(t1, res(1), wr()).unwrap();
        // t2 queues a write.
        let lm2 = Arc::clone(&lm);
        let t2 = lm.begin();
        let h2 = thread::spawn(move || lm2.acquire(t2, res(1), wr()).map(|()| t2));
        thread::sleep(Duration::from_millis(30));
        // t3's read must not overtake t2.
        assert_eq!(
            lm.try_acquire(lm.begin(), res(1), rd()),
            TryAcquire::WouldBlock
        );
        lm.release_all(t1);
        let got = h2.join().unwrap().unwrap();
        assert_eq!(got, t2);
        lm.release_all(t2);
    }

    #[test]
    fn release_all_cleans_entries() {
        let lm = mk();
        let t = lm.begin();
        lm.acquire(t, res(1), rd()).unwrap();
        lm.acquire(t, res(2), rd()).unwrap();
        assert_eq!(lm.entry_count(), 2);
        lm.release_all(t);
        assert_eq!(lm.entry_count(), 0);
        assert!(lm.held_resources(t).is_empty());
    }

    #[test]
    fn stress_many_threads_no_lost_grants() {
        let lm = Arc::new(LockManager::new(RwSource).with_timeout(Duration::from_secs(30)));
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut hs = Vec::new();
        for _ in 0..8 {
            let lm = Arc::clone(&lm);
            let counter = Arc::clone(&counter);
            hs.push(thread::spawn(move || {
                for _ in 0..200 {
                    let t = lm.begin();
                    lm.acquire(t, res(42), wr()).unwrap();
                    // Critical section: non-atomic read-modify-write made
                    // safe by the lock.
                    let v = counter.load(Ordering::Relaxed);
                    thread::yield_now();
                    counter.store(v + 1, Ordering::Relaxed);
                    lm.release_all(t);
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1600);
    }

    #[test]
    fn concurrent_readers_dont_block_each_other() {
        let lm = mk();
        let mut hs = Vec::new();
        for _ in 0..4 {
            let lm = Arc::clone(&lm);
            hs.push(thread::spawn(move || {
                let t = lm.begin();
                lm.acquire(t, res(7), rd()).unwrap();
                thread::sleep(Duration::from_millis(20));
                lm.release_all(t);
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let s = lm.stats.snapshot();
        assert_eq!(s.blocks, 0, "readers must all be immediate");
    }
}
