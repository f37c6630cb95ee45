//! Property tests over the lock manager: random acquire/release
//! scripts must agree, verdict by verdict, with a single-`Vec`
//! reference table over an arbitrary symmetric compatibility matrix;
//! a threaded storm must never co-grant incompatible modes, lose a
//! wake-up or leave state behind; and release must free resources
//! completely.

use finecc_lock::{
    AcquireError, LockManager, LockMode, ModeSource, ResourceId, RwSource, TryAcquire,
    VictimPolicy, READ, WRITE,
};
use finecc_model::{ClassId, FieldId, Oid, TxnId};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// An arbitrary symmetric mode table — the shape of a generated
/// commutativity matrix — for every resource.
#[derive(Clone, Debug)]
struct MatrixSource {
    n: usize,
    compat: Vec<bool>,
}

impl MatrixSource {
    /// `n` modes; `bits` fills the upper triangle (diagonal included).
    fn new(n: usize, bits: &[bool]) -> MatrixSource {
        let mut compat = vec![false; n * n];
        let mut bits = bits.iter().cycle();
        for a in 0..n {
            for b in a..n {
                let c = *bits.next().expect("cycled");
                compat[a * n + b] = c;
                compat[b * n + a] = c;
            }
        }
        MatrixSource { n, compat }
    }

    /// The reference's own reading of §5.2: two intentional class locks
    /// never conflict, everything else asks the matrix.
    fn ref_compatible(&self, a: LockMode, b: LockMode) -> bool {
        use finecc_lock::LockKind::Intentional;
        (a.kind == Intentional && b.kind == Intentional)
            || self.compat[a.mode as usize * self.n + b.mode as usize]
    }
}

impl ModeSource for MatrixSource {
    fn modes_compatible(&self, _res: &ResourceId, a: u16, b: u16) -> bool {
        self.compat[a as usize * self.n + b as usize]
    }
}

/// Ten resources, two of each kind, scattered over the shards.
fn resource(i: usize) -> ResourceId {
    let (kind, id) = (i % 5, (i / 5) as u64 * 7919 + 1);
    match kind {
        0 => ResourceId::Instance(Oid(id), ClassId(3)),
        1 => ResourceId::Class(ClassId(id as u32)),
        2 => ResourceId::Field(Oid(id), FieldId(2)),
        3 => ResourceId::Relation(ClassId(id as u32)),
        _ => ResourceId::Tuple(ClassId(1), Oid(id)),
    }
}

/// Class resources take `(mode, hierarchical?)` class locks, the rest
/// plain ones.
fn lock_mode(res: ResourceId, mode: u16, hierarchical: bool) -> LockMode {
    if res.is_class() {
        LockMode::class(mode, hierarchical)
    } else {
        LockMode::plain(mode)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Row {
    res: ResourceId,
    txn: TxnId,
    mode: LockMode,
    queued: bool,
}

/// The reference lock table: one row per granted or queued request, in
/// arrival order (a conversion queues ahead of its resource's other
/// waiters). A request is granted when no stranger's granted row on
/// the resource conflicts with it and it overtakes no queued stranger
/// — conversions overtake all of them, a queued request only those
/// behind it.
#[derive(Default)]
struct RefTable {
    rows: Vec<Row>,
}

impl RefTable {
    fn holds(&self, res: ResourceId, txn: TxnId, mode: Option<LockMode>) -> bool {
        self.rows
            .iter()
            .any(|r| r.res == res && r.txn == txn && !r.queued && mode.is_none_or(|m| r.mode == m))
    }

    /// The strangers a request of `txn` for `mode` on `res` waits for:
    /// holders of conflicting modes, and conflicting waiters among the
    /// first `ahead` rows.
    fn blockers(
        &self,
        src: &MatrixSource,
        (res, txn, mode): (ResourceId, TxnId, LockMode),
        ahead: usize,
    ) -> Vec<TxnId> {
        let waits_for = |(i, r): (usize, &Row)| {
            r.res == res
                && r.txn != txn
                && (!r.queued || i < ahead)
                && !src.ref_compatible(mode, r.mode)
        };
        let rows = self.rows.iter().enumerate();
        rows.filter(|&x| waits_for(x)).map(|(_, r)| r.txn).collect()
    }

    /// Whether a request not yet queued can be granted at once.
    fn grantable(&self, src: &MatrixSource, req: (ResourceId, TxnId, LockMode)) -> bool {
        let stranger_queued = |r: &Row| r.res == req.0 && r.queued && r.txn != req.1;
        self.blockers(src, req, 0).is_empty()
            && (self.holds(req.0, req.1, None) || !self.rows.iter().any(stranger_queued))
    }

    fn push(&mut self, (res, txn, mode): (ResourceId, TxnId, LockMode), queued: bool) {
        let row = Row {
            res,
            txn,
            mode,
            queued,
        };
        let first_waiter = self.rows.iter().position(|r| r.res == res && r.queued);
        match first_waiter {
            Some(at) if queued && self.holds(res, txn, None) => self.rows.insert(at, row),
            _ => self.rows.push(row),
        }
    }

    /// Grants every queued request that waits for nobody any more;
    /// returns whose.
    fn settle(&mut self, src: &MatrixSource) -> Vec<TxnId> {
        let mut served = Vec::new();
        while let Some(i) = (0..self.rows.len()).find(|&i| {
            let r = self.rows[i];
            r.queued && self.blockers(src, (r.res, r.txn, r.mode), i).is_empty()
        }) {
            self.rows[i].queued = false;
            served.push(self.rows[i].txn);
        }
        served
    }

    /// Whether `txn`, just queued, waits for itself through others.
    fn deadlocked(&self, src: &MatrixSource, txn: TxnId) -> bool {
        let (mut reached, mut todo) = (Vec::new(), vec![txn]);
        while let Some(t) = todo.pop() {
            for (i, r) in self.rows.iter().enumerate() {
                if !(r.queued && r.txn == t) {
                    continue;
                }
                for b in self.blockers(src, (r.res, r.txn, r.mode), i) {
                    if b == txn {
                        return true;
                    }
                    if !reached.contains(&b) {
                        reached.push(b);
                        todo.push(b);
                    }
                }
            }
        }
        false
    }

    fn entry_count(&self) -> usize {
        let live: HashSet<ResourceId> = self.rows.iter().map(|r| r.res).collect();
        live.len()
    }
}

#[derive(Clone, Debug)]
enum Step {
    /// Request (txn slot, resource index, mode, hierarchical?); `wait`
    /// picks blocking `acquire` over `try_acquire`.
    Acquire(usize, usize, u16, bool, bool),
    /// End the slot's transaction.
    Release(usize),
}

const SLOTS: usize = 6;

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (
            0usize..SLOTS,
            0usize..10,
            0u16..6,
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(t, r, m, h, w)| Step::Acquire(t, r, m, h, w)),
        (0usize..SLOTS).prop_map(Step::Release),
    ]
}

type Waiter = JoinHandle<Result<(), AcquireError>>;

/// One script run: the manager, the reference, and per slot the live
/// transaction and, while its blocking request is queued, the thread
/// inside `acquire`.
struct Script {
    lm: Arc<LockManager<MatrixSource>>,
    src: MatrixSource,
    table: RefTable,
    slots: Vec<(TxnId, Option<Waiter>)>,
}

impl Script {
    fn slot_of(&self, txn: TxnId) -> usize {
        self.slots.iter().position(|s| s.0 == txn).expect("live")
    }

    /// Ends `slot`'s transaction and collects the waiters the reference
    /// says this serves; nobody else may have been served.
    fn release(&mut self, slot: usize) -> Result<(), TestCaseError> {
        let txn = self.slots[slot].0;
        self.lm.release_all(txn);
        prop_assert!(self.lm.held_resources(txn).is_empty());
        self.table.rows.retain(|r| r.txn != txn);
        self.slots[slot].0 = self.lm.begin();
        for served in self.table.settle(&self.src) {
            let at = self.slot_of(served);
            let waiter = self.slots[at]
                .1
                .take()
                .expect("a queued request has a thread");
            prop_assert_eq!(waiter.join().expect("no panic"), Ok(()));
        }
        self.check()
    }

    fn check(&self) -> Result<(), TestCaseError> {
        for (txn, waiter) in &self.slots {
            let overtook = waiter.as_ref().is_some_and(|w| w.is_finished());
            prop_assert!(!overtook, "{txn} was served before the reference allows");
        }
        prop_assert_eq!(self.lm.entry_count(), self.table.entry_count());
        Ok(())
    }

    fn acquire(
        &mut self,
        slot: usize,
        res: ResourceId,
        mode: LockMode,
        wait: bool,
    ) -> Result<(), TestCaseError> {
        let txn = self.slots[slot].0;
        let req = (res, txn, mode);
        if self.table.holds(res, txn, Some(mode)) || self.table.grantable(&self.src, req) {
            if wait {
                prop_assert_eq!(self.lm.acquire(txn, res, mode), Ok(()));
            } else {
                prop_assert_eq!(self.lm.try_acquire(txn, res, mode), TryAcquire::Granted);
            }
            if !self.table.holds(res, txn, Some(mode)) {
                self.table.push(req, false);
            }
            prop_assert!(self.lm.holds(txn, res, mode));
            return self.check();
        }
        if !wait {
            prop_assert_eq!(self.lm.try_acquire(txn, res, mode), TryAcquire::WouldBlock);
            return self.check();
        }
        self.table.push(req, true);
        if self.table.settle(&self.src) == [txn] {
            // Queued only so as not to overtake waiters it turns out to
            // be compatible with: counted as a block, served at once.
            prop_assert_eq!(self.lm.acquire(txn, res, mode), Ok(()));
            return self.check();
        }
        if self.table.deadlocked(&self.src, txn) {
            // The request closes a cycle and the requester dies: no
            // thread needed, `acquire` comes straight back.
            prop_assert_eq!(self.lm.acquire(txn, res, mode), Err(AcquireError::Deadlock));
            self.table.rows.retain(|r| !(r.queued && r.txn == txn));
            return self.release(slot);
        }
        let blocks = self.lm.stats.snapshot().blocks;
        let lm = Arc::clone(&self.lm);
        let waiter = thread::spawn(move || lm.acquire(txn, res, mode));
        // `blocks` is bumped under the shard latch the enqueue happens
        // under, so whoever sees it and then asks the table is behind it.
        let patience = Instant::now() + Duration::from_secs(30);
        while self.lm.stats.snapshot().blocks == blocks {
            prop_assert!(!waiter.is_finished(), "{txn} did not wait for {res}");
            prop_assert!(Instant::now() < patience, "{txn} never queued");
            thread::yield_now();
        }
        self.slots[slot].1 = Some(waiter);
        self.check()
    }
}

/// `threads` clients × `txns` transactions of up to four random
/// blocking requests over six resources, with a shadow holder table
/// checked inside every critical region.
fn storm(policy: VictimPolicy, threads: usize, txns: usize) {
    let src = MatrixSource::new(4, &[true, false, true, true, false, false, true]);
    let lm = Arc::new(
        LockManager::new(src.clone())
            .with_victim_policy(policy)
            .with_timeout(Duration::from_secs(30)),
    );
    let shadow: Arc<Mutex<Vec<Row>>> = Arc::default();
    let workers: Vec<_> = (0..threads as u64)
        .map(|id| {
            let (lm, src, shadow) = (Arc::clone(&lm), src.clone(), Arc::clone(&shadow));
            thread::spawn(move || {
                // xorshift64*: the storm needs spread, not quality.
                let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id + 1);
                let mut draw = move |n: u64| {
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
                };
                for _ in 0..txns {
                    let txn = lm.begin();
                    for _ in 0..=draw(4) {
                        let res = resource(draw(6) as usize);
                        let mode = lock_mode(res, draw(4) as u16, draw(2) == 0);
                        match lm.acquire(txn, res, mode) {
                            Ok(()) => {}
                            Err(AcquireError::Deadlock) => break,
                            Err(AcquireError::Timeout) => {
                                panic!("{txn} timed out on {res}: a lost wake-up")
                            }
                        }
                        let mut held = shadow.lock().unwrap();
                        for r in held.iter().filter(|r| r.res == res && r.txn != txn) {
                            assert!(
                                src.ref_compatible(mode, r.mode),
                                "{txn} holds {mode} on {res} beside {}'s {}",
                                r.txn,
                                r.mode
                            );
                        }
                        held.push(Row {
                            res,
                            txn,
                            mode,
                            queued: false,
                        });
                    }
                    shadow.lock().unwrap().retain(|r| r.txn != txn);
                    lm.release_all(txn);
                    assert!(lm.held_resources(txn).is_empty());
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("no worker panicked");
    }
    assert_eq!(lm.entry_count(), 0);
    let s = lm.stats.snapshot();
    assert_eq!(s.timeouts, 0);
    assert!(s.parks <= s.blocks);
    match policy {
        VictimPolicy::Requester => assert_eq!(s.requests, s.immediate + s.blocks),
        // A flagged victim's next request is refused uncounted.
        VictimPolicy::Youngest => assert!(s.requests >= s.immediate + s.blocks),
    }
}

fn storm_threads() -> usize {
    std::env::var("FINECC_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

#[test]
fn storm_requester_dies() {
    storm(VictimPolicy::Requester, storm_threads(), 400);
}

#[test]
fn storm_youngest_dies() {
    storm(VictimPolicy::Youngest, storm_threads(), 400);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Safety and fairness against the reference table: every verdict
    /// (granted, would block, queued, deadlock victim), every hand-over
    /// at release and the number of live entries agree, so no two
    /// transactions ever hold incompatible modes, no new request
    /// overtakes a queued stranger, and conversions jump the queue.
    #[test]
    fn granted_sets_stay_compatible(
        n in 2usize..7,
        bits in proptest::collection::vec(any::<bool>(), 21..22),
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        let src = MatrixSource::new(n, &bits);
        let lm = Arc::new(
            LockManager::new(src.clone()).with_timeout(Duration::from_secs(30)),
        );
        let slots = (0..SLOTS).map(|_| (lm.begin(), None)).collect();
        let mut s = Script { lm, src, table: RefTable::default(), slots };

        for step in steps {
            match step {
                Step::Acquire(slot, r, m, hier, wait) if s.slots[slot].1.is_none() => {
                    let res = resource(r);
                    s.acquire(slot, res, lock_mode(res, m % n as u16, hier), wait)?;
                }
                Step::Release(slot) if s.slots[slot].1.is_none() => s.release(slot)?,
                // The slot's thread is inside `acquire`.
                _ => {}
            }
        }
        // The waits-for relation is acyclic (cycles died as they
        // closed), so ending the running transactions serves everyone.
        while s.slots.iter().any(|slot| slot.1.is_some()) {
            for slot in 0..SLOTS {
                if s.slots[slot].1.is_none() {
                    s.release(slot)?;
                }
            }
        }
        for slot in 0..SLOTS {
            s.release(slot)?;
        }
        prop_assert_eq!(s.lm.entry_count(), 0);
        let stats = s.lm.stats.snapshot();
        prop_assert_eq!(stats.requests, stats.immediate + stats.blocks + stats.would_blocks);
        prop_assert_eq!(stats.timeouts, 0);
    }

    /// Liveness: after releasing everything, every resource is free.
    #[test]
    fn full_release_frees_everything(ops in proptest::collection::vec((0u64..8, any::<bool>()), 1..40)) {
        let lm = LockManager::new(RwSource);
        let txn = lm.begin();
        for (r, w) in &ops {
            let res = ResourceId::Instance(Oid(*r), ClassId(0));
            let mode = if *w { WRITE } else { READ };
            // Single txn: everything must be granted (self-compatible).
            prop_assert_eq!(
                lm.try_acquire(txn, res, LockMode::plain(mode)),
                TryAcquire::Granted
            );
        }
        lm.release_all(txn);
        prop_assert_eq!(lm.entry_count(), 0);
        let probe = lm.begin();
        for (r, _) in &ops {
            let res = ResourceId::Instance(Oid(*r), ClassId(0));
            prop_assert_eq!(
                lm.try_acquire(probe, res, LockMode::plain(WRITE)),
                TryAcquire::Granted
            );
            lm.release_all(probe);
        }
    }

    /// Class-lock kind semantics: intentional locks of any modes always
    /// co-exist; a hierarchical lock enforces the matrix.
    #[test]
    fn intentional_locks_always_coexist(modes in proptest::collection::vec(any::<bool>(), 2..12)) {
        let lm = LockManager::new(RwSource);
        let res = ResourceId::Class(ClassId(0));
        let mut txns = Vec::new();
        for w in &modes {
            let t = lm.begin();
            let m = if *w { WRITE } else { READ };
            prop_assert_eq!(
                lm.try_acquire(t, res, LockMode::class(m, false)),
                TryAcquire::Granted,
                "intentional locks are mutually compatible"
            );
            txns.push(t);
        }
        // A hierarchical write cannot join any non-empty intentional set.
        let h = lm.begin();
        prop_assert_eq!(
            lm.try_acquire(h, res, LockMode::class(WRITE, true)),
            TryAcquire::WouldBlock
        );
        for t in txns {
            lm.release_all(t);
        }
        prop_assert_eq!(
            lm.try_acquire(h, res, LockMode::class(WRITE, true)),
            TryAcquire::Granted
        );
    }
}
