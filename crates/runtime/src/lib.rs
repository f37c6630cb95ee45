//! # finecc-runtime — executable concurrency-control schemes
//!
//! Glues the method interpreter (`finecc-lang`), the object store
//! (`finecc-store`), the lock manager (`finecc-lock`) and the version
//! heap (`finecc-mvcc`) into six complete, interchangeable
//! concurrency-control schemes behind one trait ([`CcScheme`]):
//!
//! * [`TavScheme`] — **the paper**: one lock per *top* message, mode =
//!   the method's access-mode index in the receiver class's generated
//!   commutativity matrix; class locks `(mode, hierarchical?)` per §5.2;
//!   undo logging by TAV write-projection.
//! * [`RwScheme`] — the read/write baseline the paper criticizes
//!   (ORION-style): every message (self-directed included) classifies its
//!   *own* code as reader or writer and acquires instance locks
//!   per message — exhibiting P2 (repeated controls), P3 (read→write
//!   escalation deadlocks) and P4 (pseudo-conflicts).
//! * [`FieldLockScheme`] — run-time field locking after Agrawal–El
//!   Abbadi \[1\]: locks individual `(instance, field)` resources at each
//!   access; less conservative than TAVs, much higher lock traffic (§6).
//! * [`RelationalScheme`] — the §3/§5.2 relational decomposition: each
//!   class's local fields form a relation, instances span tuples across
//!   the join; tuple RW locks with IS/IX-style relation intents and
//!   primary/foreign-key write propagation.
//! * [`MvccScheme`] — the optimistic/multi-version point of comparison
//!   (not in the paper): snapshot reads take no locks at all, writes are
//!   validated first-updater-wins against per-OID version chains, and
//!   superseded versions are garbage-collected by epoch. Its
//!   [`IsolationLevel`] is a first-class scheme parameter with one
//!   matrix entry per level: `mvcc` (snapshot isolation — write skew
//!   possible) and `mvcc-ssi` (serializable — commit-time
//!   rw-antidependency validation after Cahill et al., surfacing as a
//!   distinct validation-abort class in the statistics).
//!
//! The four lock schemes are **one** strict two-phase-locking skeleton
//! ([`LockScheme`]: deadlock-victim abort, undo-log rollback, extent
//! operations, commit) under four [`LockPolicy`]s — the paper's
//! claim (5) made structural: they differ only in *which resource is
//! locked in which mode when a message or a field access happens*, and
//! in whether undo is a TAV write-projection or a per-field
//! before-image (see [`schemes::lock`]). The MVCC schemes abort
//! and retry write-write conflicts (and, under `mvcc-ssi`, dangerous
//! structures at commit) instead. All expose lock-manager (and, where
//! applicable, version-heap) statistics so the experiments can compare
//! them mechanically.

#![forbid(unsafe_code)]

pub mod env;
pub mod metrics;
pub mod scheme;
pub mod schemes;
pub mod txn;

pub use env::Env;
pub use finecc_mvcc::IsolationLevel;
pub use finecc_wal::{DurabilityLevel, WalConfig};
pub use metrics::{read_metrics, register_env_metrics};
pub use scheme::{CcScheme, SchemeKind};
pub use schemes::fieldlock::FieldLockScheme;
pub use schemes::lock::{LockPolicy, LockScheme};
pub use schemes::mvcc::MvccScheme;
pub use schemes::relational::RelationalScheme;
pub use schemes::rw::RwScheme;
pub use schemes::tav::TavScheme;
pub use txn::{run_txn, Txn, TxnOutcome};
