//! The scheme trait: one interface, six concurrency-control policies.

use crate::env::Env;
use crate::txn::Txn;
use finecc_lang::ExecError;
use finecc_model::{ClassId, Oid, Value};
use finecc_mvcc::IsolationLevel;
use finecc_wal::{DurabilityLevel, Wal, WalConfig};
use std::path::Path;
use std::sync::Arc;

/// A complete concurrency-control scheme, in ten methods:
///
/// * **lifecycle** — [`CcScheme::begin`], [`CcScheme::commit`],
///   [`CcScheme::abort`] (the begin / validate-and-log / end of a
///   concurrency manager), with [`CcScheme::name`] for reports;
/// * **the four §5.2 access patterns** —
///   [`CcScheme::send`], pattern (i): a message to **one instance**;
///   [`CcScheme::send_all`], patterns (ii)/(iv): a message to **all**
///   instances of the domain rooted at a class (the paper's T2 locks the
///   whole domain hierarchically even for "all instances of class c1",
///   because the deep extent spans the subclasses);
///   [`CcScheme::send_some`], pattern (iii): a message to **selected**
///   instances of a domain (intentional class locks + per-instance locks);
/// * [`CcScheme::env`] — the shared environment;
/// * **metrics** — [`CcScheme::register_metrics`]: the one way to a
///   scheme's counters for code that holds only the trait object
///   ([`crate::read_metrics`] reads them by dotted name; code that
///   holds the concrete scheme reads its owner's typed snapshot —
///   `lock_manager().stats`, `heap().stats`, `Wal::stats`);
/// * **maintenance** — [`CcScheme::checkpoint`].
///
/// The four lock schemes are strict 2PL: locks accumulate during the
/// transaction and are released only by [`CcScheme::commit`] /
/// [`CcScheme::abort`]. The two mvcc schemes take no locks at all —
/// their admission control is optimistic (versioned reads,
/// first-updater-wins writes; at [`IsolationLevel::Serializable`] also
/// commit-time SSI validation), so they have no lock manager, emit no
/// `finecc.lock.*` sample, and conflicts surface as retryable aborts
/// instead of blocking.
pub trait CcScheme: Send + Sync {
    /// Scheme name for reports ("tav", "rw", "fieldlock", "relational",
    /// "mvcc", "mvcc-ssi").
    fn name(&self) -> &'static str;

    /// The shared environment.
    fn env(&self) -> &Env;

    /// Starts a transaction.
    fn begin(&self) -> Txn;

    /// Pattern (i): sends `method(args)` to one instance under this
    /// scheme's locking policy, running the method to completion.
    fn send(
        &self,
        txn: &mut Txn,
        oid: Oid,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ExecError>;

    /// Patterns (ii)/(iv): sends `method(args)` to every instance of the
    /// domain rooted at `root` (deep extent), under hierarchical locks.
    /// Returns the per-instance results in OID order.
    fn send_all(
        &self,
        txn: &mut Txn,
        root: ClassId,
        method: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ExecError>;

    /// Pattern (iii): sends `method(args)` to the given instances of the
    /// domain rooted at `root`, under intentional class locks plus
    /// per-instance locks.
    fn send_some(
        &self,
        txn: &mut Txn,
        root: ClassId,
        oids: &[Oid],
        method: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ExecError>;

    /// Commits the transaction and returns a commit sequence number that
    /// serializes conflicting transactions. Lock schemes draw it while
    /// locks are still held (strict 2PL), then release all locks; the
    /// mvcc schemes return the commit timestamp that flipped their
    /// versions (read-only mvcc transactions serialize at — and return —
    /// their snapshot timestamp, which is unique only among writers).
    ///
    /// Commit can *fail*: `mvcc-ssi` runs dangerous-structure validation
    /// here and refuses serializability-violating transactions. On `Err`
    /// the transaction has already been fully rolled back — the caller
    /// must NOT call [`CcScheme::abort`]; when the error is retryable
    /// ([`ExecError::is_deadlock`]) the standard response is to re-run
    /// on a fresh snapshot, exactly like a deadlock victim (see
    /// [`crate::run_txn`]). The four lock schemes and plain `mvcc` are
    /// infallible here and always return `Ok`.
    fn commit(&self, txn: Txn) -> Result<u64, ExecError>;

    /// Aborts: rolls the undo log back, then releases all locks.
    fn abort(&self, txn: Txn);

    /// Registers this scheme's live metric sources on a
    /// [`finecc_obs::MetricsRegistry`] under `labels` (conventionally
    /// at least `scheme="<name>"`). The default wires the
    /// environment-level sources — the observability plane and, when
    /// durability is attached, the WAL counters. Schemes override to
    /// *add* their own (lock-manager stats, version-heap stats) on top
    /// of the same environment wiring.
    fn register_metrics(&self, reg: &finecc_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        crate::metrics::register_env_metrics(reg, self.env(), labels);
    }

    /// Takes a fuzzy checkpoint and runs the log-maintenance pipeline
    /// (checkpoint retention, log truncation), returning the checkpoint
    /// timestamp. `None` when the scheme has no online checkpoint
    /// support — the default for the lock schemes, whose genesis
    /// checkpoint is written at attach and whose stores only quiesce
    /// between transactions. The mvcc schemes checkpoint concurrently
    /// with live writers (the image pins a snapshot like any reader).
    fn checkpoint(&self) -> Option<Result<u64, ExecError>> {
        None
    }
}

/// The six schemes, for configuration surfaces (CLI flags, workload
/// matrices).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// The paper's TAV/commutativity scheme.
    Tav,
    /// Per-message read/write instance locking.
    Rw,
    /// Run-time field locking.
    FieldLock,
    /// Relational decomposition with tuple locking.
    Relational,
    /// Multi-version snapshot reads with optimistic write validation
    /// (snapshot isolation).
    Mvcc,
    /// [`SchemeKind::Mvcc`] plus commit-time SSI validation
    /// (serializable).
    MvccSsi,
}

impl SchemeKind {
    /// All kinds, in comparison order.
    pub const ALL: [SchemeKind; 6] = [
        SchemeKind::Tav,
        SchemeKind::Rw,
        SchemeKind::FieldLock,
        SchemeKind::Relational,
        SchemeKind::Mvcc,
        SchemeKind::MvccSsi,
    ];

    /// Constructs the scheme over an environment.
    pub fn build(self, env: Env) -> Box<dyn CcScheme> {
        match self {
            SchemeKind::Tav => Box::new(crate::schemes::tav::TavScheme::new(env)),
            SchemeKind::Rw => Box::new(crate::schemes::rw::RwScheme::new(env)),
            SchemeKind::FieldLock => Box::new(crate::schemes::fieldlock::FieldLockScheme::new(env)),
            SchemeKind::Relational => {
                Box::new(crate::schemes::relational::RelationalScheme::new(env))
            }
            SchemeKind::Mvcc | SchemeKind::MvccSsi => {
                Box::new(crate::schemes::mvcc::MvccScheme::with_isolation(
                    env,
                    self.isolation().expect("mvcc kinds have a level"),
                ))
            }
        }
    }

    /// Constructs the scheme over an environment with write-ahead
    /// durability at `level`, logging into `dir`
    /// ([`DurabilityLevel::None`] simply builds the plain scheme). The
    /// mvcc kinds wire the log into their heap's commit path (durable
    /// before visible, fuzzy checkpoints); the lock kinds log their
    /// undo-projection redo images at commit while still holding their
    /// 2PL locks, with a quiescent genesis checkpoint written at
    /// attach. Either way a fresh directory becomes recoverable
    /// (`finecc_wal::recover_database` / `MvccHeap::recover`) from the
    /// first commit on. For the lock kinds the directory must be
    /// fresh — a directory with history belongs to a previous
    /// incarnation of the store and is rejected (recover it into the
    /// environment and use [`Env::resume_wal`] instead); the mvcc
    /// kinds resume through [`finecc_mvcc::MvccHeap::recover`].
    pub fn build_durable(
        self,
        env: Env,
        level: DurabilityLevel,
        dir: impl AsRef<Path>,
    ) -> std::io::Result<Box<dyn CcScheme>> {
        if level == DurabilityLevel::None {
            return Ok(self.build(env));
        }
        match self {
            SchemeKind::Mvcc | SchemeKind::MvccSsi => {
                Ok(Box::new(crate::schemes::mvcc::MvccScheme::with_durability(
                    env,
                    self.isolation().expect("mvcc kinds have a level"),
                    level,
                    dir,
                )?))
            }
            _ => {
                let wal = Arc::new(Wal::open_with_obs(
                    dir,
                    WalConfig {
                        level,
                        ..WalConfig::default()
                    },
                    Arc::clone(&env.obs),
                )?);
                let mut env = env;
                env.attach_wal(wal)?;
                Ok(self.build(env))
            }
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Tav => "tav",
            SchemeKind::Rw => "rw",
            SchemeKind::FieldLock => "fieldlock",
            SchemeKind::Relational => "relational",
            SchemeKind::Mvcc => "mvcc",
            SchemeKind::MvccSsi => "mvcc-ssi",
        }
    }

    /// The isolation level of the multi-version kinds; `None` for the
    /// (serializable-by-locking) lock schemes.
    pub fn isolation(self) -> Option<IsolationLevel> {
        match self {
            SchemeKind::Mvcc => Some(IsolationLevel::Snapshot),
            SchemeKind::MvccSsi => Some(IsolationLevel::Serializable),
            _ => None,
        }
    }

    /// `true` when every admitted execution is serializable: the lock
    /// schemes by strict 2PL, `mvcc-ssi` by commit-time validation;
    /// plain `mvcc` gives snapshot isolation only.
    pub fn serializable(self) -> bool {
        self.isolation() != Some(IsolationLevel::Snapshot)
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_enumerate_and_name() {
        assert_eq!(SchemeKind::ALL.len(), 6);
        assert_eq!(SchemeKind::Tav.to_string(), "tav");
        assert_eq!(SchemeKind::Relational.name(), "relational");
        assert_eq!(SchemeKind::Mvcc.name(), "mvcc");
        assert_eq!(SchemeKind::MvccSsi.name(), "mvcc-ssi");
    }

    #[test]
    fn isolation_is_a_scheme_parameter() {
        assert_eq!(SchemeKind::Mvcc.isolation(), Some(IsolationLevel::Snapshot));
        assert_eq!(
            SchemeKind::MvccSsi.isolation(),
            Some(IsolationLevel::Serializable)
        );
        assert_eq!(SchemeKind::Tav.isolation(), None);
        // Serializability: everyone but plain mvcc.
        for kind in SchemeKind::ALL {
            assert_eq!(kind.serializable(), kind != SchemeKind::Mvcc, "{kind}");
        }
    }
}
