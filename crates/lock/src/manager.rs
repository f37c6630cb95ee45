//! The lock manager: blocking acquisition, strict-2PL release, deadlock
//! detection, and a non-blocking mode for deterministic simulation.

use crate::deadlock::WaitsFor;
use crate::modes::{LockKind, LockMode, ModeSource};
use crate::resource::{Granule, ResourceId};
use crate::shard::{part_of, shard_of, txn_shard, EntryShard, Table, TxnShard, PARTS, SHARDS};
use crate::stats::LockStats;
use finecc_model::TxnId;
use finecc_obs::{ContentionKind, ObjKey, Obs, Phase, SlotIds};
use parking_lot::MutexGuard;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// The request closed a waits-for cycle; the request that closes a
    /// cycle is always its victim.
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

/// The granules one request occupies, each with its shard, in shard
/// order: one for an ordinary resource or an intentional class lock,
/// one per partition for any other class lock.
type Plan = Vec<(usize, Granule)>;

/// The latches of a [`Plan`]'s shards, in its order.
type Latches<'a> = Vec<MutexGuard<'a, Table>>;

/// The partitions of class-level resource `res`, in shard order.
fn partitions(res: ResourceId) -> Plan {
    let mut plan: Plan = (0..PARTS as u8)
        .map(|part| {
            let g = Granule { res, part };
            (shard_of(&g), g)
        })
        .collect();
    plan.sort_unstable_by_key(|&(shard, _)| shard);
    plan
}

/// Where `txn`'s view of a plan's resource lives: the granule of its own
/// partition (the only one of a one-granule plan).
fn own_index(plan: &[(usize, Granule)], txn: TxnId) -> usize {
    if plan.len() == 1 {
        0
    } else {
        let part = part_of(txn);
        plan.iter()
            .position(|&(_, g)| g.part == part)
            .expect("a class plan has every partition")
    }
}

/// The lock manager. `S` supplies per-resource mode compatibility.
///
/// Lock entries live in hash-sharded tables, each under its own short
/// latch. A conflict-free transaction writes only lines its own thread
/// owns, besides the entry shards of the objects it locks:
///
/// * its id comes from its thread slot's own counter ([`SlotIds`]), and
///   its held list lives in the shard of that slot (`txn % SHARDS`);
/// * its intentional lock on a class (or relation) — the one every
///   message of every client announces — goes to the partition of that
///   slot: a class-level resource is split into `PARTS` entries in as
///   many shards. Any other lock on it (hierarchical, or plain) takes
///   every partition's latch in shard order and is granted, queued or
///   withdrawn in all of them at once, so a partition sees every such
///   lock, and an intentional one sees all it can conflict with in its
///   own partition. [`LockManager::acquire`], `try_acquire`, `holds`,
///   `held_resources` and `entry_count` answer for the logical
///   resource. Compatibility, FIFO order and deadlock detection stay
///   [`crate::entry::LockEntry`]'s, per partition: a new intentional
///   request is not held back by an intentional waiter of another
///   partition, which it could never delay (intentional locks are
///   mutually compatible);
/// * the counters it bumps are striped by its thread slot.
///
/// A request that is granted at once takes one entry latch, then one
/// held-list latch, never two together. Only a request that must wait
/// looks further: it runs the deadlock detector if another request is
/// waiting too, polls the epoch word of a shard that blocks it for
/// `POLL_BOUND`, and parks on that shard's condvar after that.
pub struct LockManager<S> {
    src: S,
    /// Lock entries, sharded by resource (and partition).
    shards: Box<[EntryShard]>,
    /// Held lists, sharded by transaction.
    txns: Box<[TxnShard]>,
    /// Rows queued right now, over all shards (a request on every
    /// partition of a class queues one in each). A waits-for cycle
    /// needs two requests, so a request that blocks alone in one row
    /// skips the detector.
    waiting: AtomicUsize,
    ids: SlotIds,
    /// Live counters, shared so metrics-registry sources can hold them
    /// beyond the manager's borrow.
    pub stats: Arc<LockStats>,
    wait_timeout: Duration,
    obs: Arc<Obs>,
}

impl<S: ModeSource> LockManager<S> {
    /// Creates a manager with a 10-second wait timeout. A request that
    /// closes a waits-for cycle is refused with
    /// [`AcquireError::Deadlock`].
    pub fn new(src: S) -> LockManager<S> {
        LockManager {
            src,
            shards: (0..SHARDS).map(|_| EntryShard::default()).collect(),
            txns: (0..SHARDS).map(|_| TxnShard::default()).collect(),
            waiting: AtomicUsize::new(0),
            ids: SlotIds::new(),
            stats: Arc::new(LockStats::default()),
            wait_timeout: Duration::from_secs(10),
            obs: Arc::new(Obs::disabled()),
        }
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

    /// Starts a new transaction. Its id carries the calling thread's
    /// slot ([`SlotIds`]): ids are distinct and increase within a
    /// thread, not across threads.
    pub fn begin(&self) -> TxnId {
        TxnId(self.ids.next())
    }

    /// The granule `txn`'s view of `res` lives in: its own partition of
    /// a class-level resource, the resource itself otherwise.
    fn own(txn: TxnId, res: ResourceId) -> Granule {
        let part = if res.is_partitioned() {
            part_of(txn)
        } else {
            0
        };
        Granule { res, part }
    }

    /// The one granule a request occupies, or `None` for a class lock
    /// that is not intentional: that one takes every partition.
    fn granule(txn: TxnId, res: ResourceId, mode: LockMode) -> Option<Granule> {
        let alone = !res.is_partitioned() || mode.kind == LockKind::Intentional;
        alone.then(|| Self::own(txn, res))
    }

    /// Takes the latches of `plan`'s shards, in its (shard) order.
    fn latch<'a>(&'a self, plan: &[(usize, Granule)], into: &mut Latches<'a>) {
        into.extend(
            plan.iter()
                .map(|&(shard, _)| self.shards[shard].table.lock()),
        );
    }

    /// Grants `(txn, mode)` on the plan's resource if that needs no
    /// waiting; `None` if it conflicts with a granted mode or would
    /// overtake a waiter. `Some(first)`: `first` unless the transaction
    /// already held a mode on the resource (this one, or another — a
    /// conversion). Compatibility is checked, and the grant made, in
    /// every granule of the plan, under all their latches.
    fn grant_now(
        &self,
        plan: &[(usize, Granule)],
        tables: &mut [MutexGuard<'_, Table>],
        txn: TxnId,
        mode: LockMode,
    ) -> Option<bool> {
        let own = own_index(plan, txn);
        let res = plan[own].1.res;
        let mine = tables[own].entries.get(&plan[own].1);
        if mine.is_some_and(|e| e.holds(txn, mode)) {
            return Some(false);
        }
        let conversion = mine.is_some_and(|e| e.holds_any(txn));
        let free = plan.iter().zip(tables.iter()).all(|((_, g), table)| {
            table.entries.get(g).is_none_or(|e| {
                e.compatible_with_granted(&self.src, &res, txn, mode)
                    && (conversion || !e.stranger_queued(txn))
            })
        });
        if !free {
            return None;
        }
        for ((_, g), table) in plan.iter().zip(tables.iter_mut()) {
            table.entry(*g).grant(txn, mode);
        }
        if conversion {
            self.stats.upgrades.bump();
        }
        Some(!conversion)
    }

    /// Latches the request's granules and grants it if that needs no
    /// waiting: `Ok` once it is counted, its latches dropped and the
    /// resource on the held list; `Err` hands back the plan and its
    /// latches, still held.
    fn try_grant(
        &self,
        txn: TxnId,
        res: ResourceId,
        mode: LockMode,
    ) -> Result<(), (Plan, Latches<'_>)> {
        let first = match Self::granule(txn, res, mode) {
            // The common request: one latch, nothing allocated.
            Some(g) => {
                let plan = [(shard_of(&g), g)];
                let mut tables = [self.shards[plan[0].0].table.lock()];
                match self.grant_now(&plan, &mut tables, txn, mode) {
                    Some(first) => first,
                    None => return Err((plan.to_vec(), Vec::from(tables))),
                }
            }
            None => {
                let plan = partitions(res);
                let mut tables = Vec::with_capacity(PARTS);
                self.latch(&plan, &mut tables);
                match self.grant_now(&plan, &mut tables, txn, mode) {
                    Some(first) => first,
                    None => return Err((plan, tables)),
                }
            }
        };
        if first {
            self.note_held(txn, res);
        }
        self.stats.count_immediate();
        Ok(())
    }

    /// Adds `res` to `txn`'s held list (no entry-shard latch held).
    fn note_held(&self, txn: TxnId, res: ResourceId) {
        let mut held = self.txns[txn_shard(txn)].held.lock();
        held.entry(txn).or_default().push(res);
    }

    /// Takes `(txn, mode)` out of `g`'s queue (under `shard`'s latch)
    /// and lets the waiters behind it look again.
    fn leave_queue(
        &self,
        shard: &EntryShard,
        table: &mut Table,
        txn: TxnId,
        g: Granule,
        mode: LockMode,
    ) {
        let Some(entry) = table.entries.get_mut(&g) else {
            return;
        };
        if entry.dequeue(txn, mode) {
            self.waiting.fetch_sub(1, Ordering::SeqCst);
        }
        shard.departed(table, &g);
    }

    /// [`Self::leave_queue`] for every granule of `plan`.
    fn leave_queues(
        &self,
        plan: &[(usize, Granule)],
        tables: &mut [MutexGuard<'_, Table>],
        txn: TxnId,
        mode: LockMode,
    ) {
        for (&(shard, g), table) in plan.iter().zip(tables.iter_mut()) {
            self.leave_queue(&self.shards[shard], table, txn, g, mode);
        }
    }

    /// Blocking acquisition under strict 2PL. Returns when granted, when
    /// the request closes a waits-for cycle (it is the victim), or when
    /// the wait times out.
    pub fn acquire(&self, txn: TxnId, res: ResourceId, mode: LockMode) -> Result<(), AcquireError> {
        // Chaos scheduling decision strictly before any latch (a parked
        // latch holder would deadlock the token scheduler).
        finecc_chaos::yield_point(finecc_chaos::Site::LockAcquire);
        match self.try_grant(txn, res, mode) {
            Ok(()) => Ok(()),
            Err((plan, tables)) => self.wait(txn, mode, &plan, tables),
        }
    }

    /// The rest of [`Self::acquire`] for a request [`Self::try_grant`]
    /// could not grant: queues it in every granule of `plan` (whose
    /// latches `tables` holds) and waits until it is granted in all of
    /// them at once.
    fn wait<'a>(
        &'a self,
        txn: TxnId,
        mode: LockMode,
        plan: &[(usize, Granule)],
        mut tables: Latches<'a>,
    ) -> Result<(), AcquireError> {
        let own = own_index(plan, txn);
        let res = plan[own].1.res;
        let holds_any = |tables: &Latches<'_>| {
            let mine = tables[own].entries.get(&plan[own].1);
            mine.is_some_and(|e| e.holds_any(txn))
        };
        let conversion = holds_any(&tables);
        for ((_, g), table) in plan.iter().zip(tables.iter_mut()) {
            table.entry(*g).enqueue(txn, mode, conversion);
        }
        self.waiting.fetch_add(plan.len(), Ordering::SeqCst);
        // Counted as blocked once queued and counted as waiting, so
        // whoever sees `blocks` move finds the request in both.
        self.stats.blocks.bump();
        if conversion {
            self.stats.upgrades.bump();
        }
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
            // Under the latches. The first pass matters too: a request
            // queued only so as not to overtake waiters it is
            // compatible with waits for nobody, and nobody would wake it.
            let blocking = plan
                .iter()
                .zip(tables.iter_mut())
                .position(|((_, g), table)| {
                    !table.entry(*g).can_grant_queued(&self.src, &res, txn, mode)
                });
            let Some(blocking) = blocking else {
                let first = !holds_any(&tables);
                for (&(shard, g), table) in plan.iter().zip(tables.iter_mut()) {
                    let entry = table.entry(g);
                    if entry.dequeue(txn, mode) {
                        self.waiting.fetch_sub(1, Ordering::SeqCst);
                    }
                    entry.grant(txn, mode);
                    // Compatible waiters behind us may now also be
                    // grantable.
                    if !entry.queue.is_empty() {
                        self.shards[shard].wake(table);
                    }
                }
                drop(tables);
                if first {
                    self.note_held(txn, res);
                }
                self.note_granted_wait(blocked_at);
                return Ok(());
            };
            let timed_out = if chaos {
                chaos_waits >= CHAOS_WAIT_BUDGET
            } else {
                Instant::now() >= deadline
            };
            if timed_out {
                self.leave_queues(plan, &mut tables, txn, mode);
                self.stats.timeouts.bump();
                return Err(AcquireError::Timeout);
            }
            // Wait on the first shard that refuses the request: until
            // its epoch moves, looking again is pointless.
            let shard = &self.shards[plan[blocking].0];
            let seen = shard.epoch.load(Ordering::Relaxed);
            tables.clear();

            // A cycle through this request needs another queued one.
            // One that queues later finds this one counted and runs the
            // detector itself, so the racy read loses no cycle.
            if self.waiting.load(Ordering::SeqCst) > plan.len()
                && self.closes_cycle(txn, plan, mode)
            {
                return Err(AcquireError::Deadlock);
            }

            // Wait, with no latch held, for the shard's epoch to move.
            if chaos {
                finecc_chaos::yield_point(finecc_chaos::Site::LockWait);
                chaos_waits += 1;
            } else {
                let poll_until = deadline.min(Instant::now() + POLL_BOUND);
                while shard.epoch.load(Ordering::Acquire) == seen && Instant::now() < poll_until {
                    std::hint::spin_loop();
                }
                if shard.epoch.load(Ordering::Acquire) == seen {
                    let mut table = shard.table.lock();
                    // Every bump happens under the latch, so an unmoved
                    // epoch here cannot move before the wait releases it.
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
            self.latch(plan, &mut tables);
        }
    }

    /// Non-blocking acquisition: grants immediately or reports
    /// `WouldBlock` without queueing — how a test probes whether a mode
    /// conflicts with what is held.
    pub fn try_acquire(&self, txn: TxnId, res: ResourceId, mode: LockMode) -> TryAcquire {
        if self.try_grant(txn, res, mode).is_ok() {
            return TryAcquire::Granted;
        }
        self.stats.would_blocks.bump();
        TryAcquire::WouldBlock
    }

    /// Strict-2PL release: drops every lock (granted and queued) of `txn`
    /// and wakes waiters. Called exactly once at commit/abort.
    pub fn release_all(&self, txn: TxnId) {
        self.stats.releases.bump();
        let held = self.txns[txn_shard(txn)].held.lock().remove(&txn);
        for res in held.into_iter().flatten() {
            let own = Self::own(txn, res);
            // A lock on a class that is not intentional is in every
            // partition; the others are in `txn`'s own alone.
            if self.purge(txn, own) && res.is_partitioned() {
                for part in (0..PARTS as u8).filter(|&p| p != own.part) {
                    self.purge(txn, Granule { res, part });
                }
            }
        }
    }

    /// Drops every grant and queued request of `txn` on `g` (under its
    /// shard's latch) and wakes the shard if someone still queues there.
    /// `true` if one of them was not an intentional lock.
    fn purge(&self, txn: TxnId, g: Granule) -> bool {
        let shard = &self.shards[shard_of(&g)];
        let mut table = shard.table.lock();
        let Some(entry) = table.entries.get_mut(&g) else {
            return false;
        };
        let spans = entry
            .granted
            .iter()
            .chain(&entry.queue)
            .any(|&(t, m)| t == txn && m.kind != LockKind::Intentional);
        // Queued requests on held resources (a conversion blocked in
        // another thread) are purged too, so that waiter sees itself
        // gone and re-queues or errors; in practice acquire() owns its
        // queue entry, so this is only for crashed callers.
        let queued = entry.queue.len();
        entry.purge(txn);
        let purged = queued - entry.queue.len();
        if purged > 0 {
            self.waiting.fetch_sub(purged, Ordering::SeqCst);
        }
        shard.departed(&mut table, &g);
        spans
    }

    /// `true` if `txn` currently holds `mode` on `res`.
    pub fn holds(&self, txn: TxnId, res: ResourceId, mode: LockMode) -> bool {
        let g = Self::own(txn, res);
        let table = self.shards[shard_of(&g)].table.lock();
        table.entries.get(&g).is_some_and(|e| e.holds(txn, mode))
    }

    /// The resources `txn` holds locks on.
    pub fn held_resources(&self, txn: TxnId) -> Vec<ResourceId> {
        let held = self.txns[txn_shard(txn)].held.lock();
        held.get(&txn).cloned().unwrap_or_default()
    }

    /// Number of resources with live lock state (a class counts once,
    /// however many of its partitions are live).
    pub fn entry_count(&self) -> usize {
        let mut live = HashSet::new();
        for shard in self.shards.iter() {
            live.extend(shard.table.lock().entries.keys().map(|g| g.res));
        }
        live.len()
    }

    /// The deadlock detector, run by a queued `(txn, mode)` request on
    /// the granules of `plan` with no latch held: `true` when the
    /// request closed a waits-for cycle. The requester is the victim:
    /// its request is then already out of every queue, and the rest of
    /// the cycle waits on as before.
    ///
    /// The one place a thread holds every latch: every entry-shard
    /// latch, taken in index order, so the graph is the exact waits-for
    /// relation of one instant. A request queued in several partitions
    /// waits for the union of what blocks it in each.
    fn closes_cycle(&self, txn: TxnId, plan: &[(usize, Granule)], mode: LockMode) -> bool {
        let mut tables: Vec<_> = self.shards.iter().map(|s| s.table.lock()).collect();
        let mut wf = WaitsFor::new();
        for table in &tables {
            for (g, entry) in &table.entries {
                for &(t, m) in &entry.queue {
                    wf.add_edges(t, entry.blockers(&self.src, &g.res, t, m));
                }
            }
        }
        if !wf.on_cycle(txn) {
            return false;
        }
        self.stats.deadlocks.bump();
        for &(i, g) in plan {
            self.leave_queue(&self.shards[i], &mut tables[i], txn, g, mode);
        }
        true
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
        // No timeout allowed. Whichever upgrade finds the cycle dies and
        // leaves its queue inside the detector, so the cycle is gone and
        // the other wins the write.
        match (r1, r2) {
            (Ok(()), Err(AcquireError::Deadlock)) => {}
            (Err(AcquireError::Deadlock), Ok(())) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(lm.stats.snapshot().deadlocks, 1);
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
            .find(|&r| {
                shard_of(&Granule { res: r, part: 0 })
                    == shard_of(&Granule {
                        res: res(1),
                        part: 0,
                    })
            })
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
