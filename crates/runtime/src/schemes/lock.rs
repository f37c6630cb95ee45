//! The one strict-2PL skeleton behind the four lock schemes.
//!
//! The paper's claim (5) is that read/write instance locking and the
//! relational decomposition are *subsumed* by access-vector locking:
//! all of them are strict two-phase locking and differ only in **which
//! resource is locked in which mode when a message or a field access
//! happens**. [`LockScheme`] is everything they share — transaction
//! lifecycle, the interpreter's [`DataAccess`], extent operations,
//! commit/abort, statistics — and a [`LockPolicy`] is the difference:
//! `tav`, `rw`, `fieldlock` and `relational` are four implementations
//! of it, dispatched statically.

use crate::env::Env;
use crate::scheme::CcScheme;
use crate::schemes::{interpreter, send_each};
use crate::txn::Txn;
use finecc_core::{AccessMode, AccessVector};
use finecc_lang::{DataAccess, ExecError};
use finecc_lock::{LockKind, LockManager, LockMode, ModeSource, ResourceId, READ, WRITE};
use finecc_model::{ClassId, FieldId, MethodId, Oid, Value};
use std::fmt::Display;
use std::sync::Arc;

/// Where a policy's before-images come from.
pub enum UndoStyle {
    /// Paper claim (3): the policy projects the message's transitive
    /// access vector through its write fields once, at message entry
    /// ([`LockAccess::undo_projection`]); field writes then log nothing.
    TavProjection,
    /// No vector to project through: the skeleton logs a before-image
    /// at each field's first write.
    PerField,
}

/// What distinguishes one lock scheme from another: the compatibility
/// table its lock manager consults, and what it locks at each of the
/// five events of a transaction's execution. Locks are requested
/// through the [`LockAccess`] handed to each hook.
pub trait LockPolicy: Sized {
    /// The lock manager's compatibility table: generated commutativity
    /// matrices or the classical read/write table.
    type Source: ModeSource;
    /// Scheme name for reports.
    const NAME: &'static str;
    /// Where before-images come from.
    const UNDO: UndoStyle;

    /// Builds the compatibility table.
    fn source(env: &Env) -> Self::Source;

    /// A message reaches `oid` from the application or through a
    /// reference field; `mid` is the definition late binding resolved.
    fn on_message(
        cx: &mut LockAccess<'_, Self>,
        oid: Oid,
        class: ClassId,
        mid: MethodId,
    ) -> Result<(), ExecError>;

    /// A self-directed message (simple or prefixed) is about to run.
    fn on_self_message(
        _cx: &mut LockAccess<'_, Self>,
        _oid: Oid,
        _class: ClassId,
        _mid: MethodId,
    ) -> Result<(), ExecError> {
        Ok(())
    }

    /// A field is about to be read.
    fn on_field_read(
        _cx: &mut LockAccess<'_, Self>,
        _oid: Oid,
        _field: FieldId,
    ) -> Result<(), ExecError> {
        Ok(())
    }

    /// A field is about to be assigned.
    fn on_field_write(
        _cx: &mut LockAccess<'_, Self>,
        _oid: Oid,
        _field: FieldId,
    ) -> Result<(), ExecError> {
        Ok(())
    }

    /// `method` is about to be sent to all (`hierarchical`) or selected
    /// (intentional) instances of the domain rooted at `root`: announce
    /// it on every class or relation involved.
    fn on_extent(
        cx: &mut LockAccess<'_, Self>,
        root: ClassId,
        method: &str,
        hierarchical: bool,
    ) -> Result<(), ExecError>;
}

/// One transaction's view of the store under policy `P`: the
/// interpreter's [`DataAccess`], and the context the policy's hooks
/// request locks through.
pub struct LockAccess<'a, P: LockPolicy> {
    /// The scheme's environment.
    pub env: &'a Env,
    lm: &'a LockManager<P::Source>,
    txn: &'a mut Txn,
    /// Classes (relations, for the relational policy) this operation
    /// locked hierarchically: their instances need no finer lock. A
    /// list, not a set: empty outside extent operations, one domain's
    /// classes inside.
    covered: Vec<ClassId>,
}

impl<P: LockPolicy> LockAccess<'_, P> {
    /// Requests one lock; a refusal (deadlock victim, timeout) unwinds
    /// the executing method as a concurrency abort.
    pub fn lock(&mut self, res: ResourceId, mode: LockMode) -> Result<(), ExecError> {
        self.lm
            .acquire(self.txn.id, res, mode)
            .map_err(Env::lock_err)?;
        if self.txn.held.len() < Txn::HELD_LOCKS {
            self.txn.held.push((res, mode));
        }
        // A hierarchical lock implicitly locks every instance of its
        // class (every tuple of its relation).
        if let (LockKind::Hierarchical, ResourceId::Class(c) | ResourceId::Relation(c)) =
            (mode.kind, res)
        {
            if !self.covered.contains(&c) {
                self.covered.push(c);
            }
        }
        Ok(())
    }

    /// [`LockAccess::lock`] for a request that probably repeats one
    /// this transaction was already granted (a self-directed message
    /// controlling its receiver again): held in exactly this mode, it
    /// is counted and answered from the transaction's own list, not
    /// from the lock table every client contends for.
    pub fn relock(&mut self, res: ResourceId, mode: LockMode) -> Result<(), ExecError> {
        if self.txn.held.contains(&(res, mode)) {
            self.lm.stats.count_immediate();
            return Ok(());
        }
        self.lock(res, mode)
    }

    /// `true` when a hierarchical extent lock covers class/relation `c`.
    pub fn is_covered(&self, c: ClassId) -> bool {
        self.covered.contains(&c)
    }

    /// `true` when a hierarchical extent lock covers `oid`'s class (no
    /// store lookup outside extent operations).
    pub fn covers_instance(&self, oid: Oid) -> Result<bool, ExecError> {
        Ok(!self.covered.is_empty() && self.is_covered(self.class_of(oid)?))
    }

    /// The proper class of an instance.
    pub fn class_of(&self, oid: Oid) -> Result<ClassId, ExecError> {
        self.env.db.class_of(oid).map_err(Env::store_err)
    }

    /// Recovery by projection: before-images of `oid` through the write
    /// fields of `tav`.
    pub fn undo_projection(&mut self, oid: Oid, tav: &AccessVector) -> Result<(), ExecError> {
        self.txn
            .undo
            .record_projection(&self.env.db, oid, tav.write_fields())
            .map(drop)
            .map_err(Env::store_err)
    }
}

impl<P: LockPolicy> DataAccess for LockAccess<'_, P> {
    fn class_of(&mut self, oid: Oid) -> Result<ClassId, ExecError> {
        LockAccess::class_of(self, oid)
    }

    fn read_field(&mut self, oid: Oid, field: FieldId) -> Result<Value, ExecError> {
        P::on_field_read(self, oid, field)?;
        self.env.db.read(oid, field).map_err(Env::store_err)
    }

    fn write_field(&mut self, oid: Oid, field: FieldId, value: Value) -> Result<(), ExecError> {
        P::on_field_write(self, oid, field)?;
        let old = self
            .env
            .db
            .write(oid, field, value)
            .map_err(Env::store_err)?;
        if let UndoStyle::PerField = P::UNDO {
            self.txn.undo.record(oid, field, old);
        }
        Ok(())
    }

    fn on_message(&mut self, oid: Oid, class: ClassId, mid: MethodId) -> Result<(), ExecError> {
        P::on_message(self, oid, class, mid)
    }

    fn on_self_message(
        &mut self,
        oid: Oid,
        class: ClassId,
        mid: MethodId,
    ) -> Result<(), ExecError> {
        P::on_self_message(self, oid, class, mid)
    }
}

/// A strict two-phase-locking scheme under policy `P`.
pub struct LockScheme<P: LockPolicy> {
    pub(super) env: Env,
    pub(super) lm: LockManager<P::Source>,
}

impl<P: LockPolicy> LockScheme<P> {
    /// Builds the scheme (compiles nothing — the access vectors and
    /// matrices are already in `env.compiled`).
    pub fn new(env: Env) -> LockScheme<P> {
        LockScheme {
            lm: LockManager::new(P::source(&env))
                .with_timeout(env.lock_timeout)
                .with_obs(Arc::clone(&env.obs)),
            env,
        }
    }

    /// The underlying lock manager (for tests and experiments).
    pub fn lock_manager(&self) -> &LockManager<P::Source> {
        &self.lm
    }

    fn access<'a>(&'a self, txn: &'a mut Txn) -> LockAccess<'a, P> {
        LockAccess {
            env: &self.env,
            lm: &self.lm,
            txn,
            covered: Vec::new(),
        }
    }
}

impl<P: LockPolicy> CcScheme for LockScheme<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn env(&self) -> &Env {
        &self.env
    }

    fn begin(&self) -> Txn {
        Txn::new(self.lm.begin())
    }

    fn send(
        &self,
        txn: &mut Txn,
        oid: Oid,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        interpreter(&self.env).send(&mut self.access(txn), oid, method, args)
    }

    fn send_all(
        &self,
        txn: &mut Txn,
        root: ClassId,
        method: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ExecError> {
        let mut cx = self.access(txn);
        P::on_extent(&mut cx, root, method, true)?;
        // Read the extent only under the hierarchical locks.
        let extent = self.env.db.deep_extent(root);
        send_each(&self.env, &mut cx, extent, method, args)
    }

    fn send_some(
        &self,
        txn: &mut Txn,
        root: ClassId,
        oids: &[Oid],
        method: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ExecError> {
        let mut cx = self.access(txn);
        P::on_extent(&mut cx, root, method, false)?;
        send_each(&self.env, &mut cx, oids.iter().copied(), method, args)
    }

    fn commit(&self, mut txn: Txn) -> Result<u64, ExecError> {
        // Strict 2PL holds every lock to this point; nothing is left to
        // validate. The commit sequence is drawn and the redo images
        // are logged (write-ahead durability, when attached) in one
        // step while every lock is still held, so the log's order is a
        // valid serialization order and the after-images are exactly
        // what this transaction wrote. The one remaining failure is
        // the log refusing the redo append: the env then rolls the
        // transaction back under these same locks and the retryable
        // error surfaces after they are released.
        let logged = self.env.log_commit_redo(&mut txn);
        self.lm.release_all(txn.id);
        logged
    }

    fn abort(&self, mut txn: Txn) {
        txn.undo.rollback(&self.env.db);
        self.lm.release_all(txn.id);
    }

    fn register_metrics(&self, reg: &finecc_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        crate::metrics::register_env_metrics(reg, &self.env, labels);
        let stats = Arc::clone(&self.lm.stats);
        reg.register_fn(labels, move |c| stats.snapshot().collect_metrics(c));
    }
}

pub(super) fn not_understood(class: ClassId, method: impl Display) -> ExecError {
    ExecError::MessageNotUnderstood {
        class,
        method: method.to_string(),
    }
}

/// The access-mode index of `method` in `class`'s compiled table.
pub(super) fn mode_index(env: &Env, class: ClassId, method: &str) -> Result<usize, ExecError> {
    let table = env.compiled.class(class);
    table
        .index_of(method)
        .ok_or_else(|| not_understood(class, method))
}

/// An access mode collapsed onto the classical two.
pub(super) fn rw_mode(m: AccessMode) -> u16 {
    if m.is_write() {
        WRITE
    } else {
        READ
    }
}

/// The reader/writer classification of `method`'s **transitive** access
/// vector on `class`: what a read/write system announces for an extent
/// operation, where even it must consider the whole execution (any
/// planner of bulk operations knows it from the query).
pub(super) fn transitive_rw_mode(
    env: &Env,
    class: ClassId,
    method: &str,
) -> Result<u16, ExecError> {
    let idx = mode_index(env, class, method)?;
    Ok(rw_mode(env.compiled.class(class).tav(idx).collapse()))
}
