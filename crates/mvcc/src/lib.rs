//! # finecc-mvcc — the multi-version object heap
//!
//! A multi-version concurrency layer over [`finecc_store::Database`],
//! giving the scheme matrix its optimistic/multi-version point of
//! comparison (after Larson et al., *High-Performance Concurrency Control
//! Mechanisms for Main-Memory Databases*, VLDB 2012):
//!
//! * **Version chains** ([`heap::MvccHeap`]) — per-OID chains of version
//!   records ordered newest-first by commit timestamp. The *current*
//!   value of every field stays materialized in the base
//!   [`finecc_store::Database`] (so non-MVCC consumers keep working);
//!   chain records hold the before-images needed to reconstruct any
//!   registered snapshot — the rollback-segment organization.
//! * **Timestamps** — an atomic commit-timestamp clock (one `fetch_add`
//!   per writer commit) decoupled from *visibility*: a **lock-free**
//!   ordered publication watermark (a CAS ring of in-flight commit
//!   slots) advances the snapshot source only across a contiguous
//!   prefix of completed commits. A version record points at its
//!   writer's status cell, so a commit is one store into that cell, and
//!   a snapshot never observes half a transaction (see the `heap`
//!   module's "Concurrency architecture" docs).
//! * **Snapshots** ([`snapshot::Snapshot`]) — first-class read-only
//!   views: no logical locks, stable for their whole lifetime, and
//!   registered with the GC so the versions they need stay alive. A
//!   snapshot read holds its object's chain shard *shared* — readers
//!   never wait for one another or for a committer, only for a
//!   writer editing a chain of the same shard — and a chain hit never
//!   touches the base store (records carry before- *and* after-images
//!   per field). Chains are plain vectors edited in place: there is no
//!   copy-on-write publication and no grace period.
//! * **Write conflicts** — first-updater-wins at **field granularity**
//!   (the paper's granularity): a write fails immediately with
//!   [`MvccConflict`] iff another live transaction holds a pending
//!   version of the *same field*, or a version of it committed after the
//!   writer's snapshot. Writers of disjoint fields of one object never
//!   conflict — the multi-version analogue of the paper's P4 fix. At
//!   [`IsolationLevel::Snapshot`] a transaction that never conflicts is
//!   guaranteed to commit — validation cannot fail later.
//! * **Garbage collection** — active snapshots pin a horizon; versions
//!   committed at or before the horizon can never be demanded again and
//!   are pruned from their chains — by the committing threads
//!   themselves, a small batch every few commits (the `heap` module's
//!   *Reclamation* section), or all at once by the explicit
//!   [`MvccHeap::gc`] sweep. A pruned record is freed on the spot.
//! * **Isolation levels** ([`IsolationLevel`]) — the heap runs at plain
//!   [`IsolationLevel::Snapshot`] (write skew possible, commit
//!   infallible) or at [`IsolationLevel::Serializable`], which layers
//!   SSI-style commit-time validation on top ([`ssi`]): field-granular
//!   rw-antidependency tracking à la Cahill, with transactions aborted
//!   ([`SsiConflict`]) when they sit in a dangerous structure.
//!
//! The executable scheme built on this heap lives in
//! `finecc_runtime::schemes::mvcc`, one scheme-matrix entry per
//! isolation level (`mvcc`, `mvcc-ssi`).

#![forbid(unsafe_code)]

pub mod heap;
pub mod snapshot;
pub mod ssi;
pub mod stats;
mod watermark;

pub use heap::{
    CommitError, MvccConflict, MvccHeap, MvccReadError, MvccTxn, MvccWriteError, WriteOutcome,
};
pub use snapshot::Snapshot;
pub use ssi::{IsolationLevel, SsiConflict};
pub use stats::{MvccStats, MvccStatsSnapshot};
// Durability is a scheme parameter like the isolation level; re-export
// the knobs so heap consumers configure both from one place.
pub use finecc_wal::{
    recover_database_with_window, DurabilityLevel, RecoveryInfo, Wal, WalConfig, WalStats,
    WalStatsSnapshot, DEFAULT_REORDER_WINDOW,
};

/// Commit timestamps. `0` is the genesis timestamp (before any commit).
pub type Ts = u64;
