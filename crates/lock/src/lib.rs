//! # finecc-lock — the generic lock manager
//!
//! A strict-2PL lock manager whose compatibility function is *pluggable*
//! per resource ([`ModeSource`]). This realizes the paper's claim (5):
//! classical read/write locking ([`RwSource`]) and the generated per-class
//! commutativity matrices ([`CommutSource`]) are two instances of the same
//! machinery — "relational and object-oriented concurrency control schemes
//! with read and write access modes are subsumed under this proposition."
//!
//! Features:
//!
//! * instance, class, field, relation and tuple resources ([`ResourceId`]),
//! * class locks as `(access mode, hierarchical?)` pairs with the §5.2
//!   semantics: intentional locks are mutually compatible, any
//!   hierarchical participant falls back to the mode matrix
//!   ([`LockKind`]),
//! * multiple modes per transaction per resource (lock conversion /
//!   upgrade, the mechanism behind the paper's problem P3),
//! * FIFO wait queues with upgrades served first,
//! * a hash-sharded table: a grant takes one short latch and touches no
//!   structure every client shares; a blocked request polls for about
//!   one context switch's worth of time before it parks,
//! * blocking acquisition with **waits-for-graph deadlock detection** and
//!   a configurable victim policy, plus a non-blocking `try_acquire` for
//!   deterministic simulation,
//! * full statistics (requests, blocks, deadlocks, upgrades, …).

#![forbid(unsafe_code)]

pub mod deadlock;
pub mod entry;
pub mod manager;
pub mod modes;
pub mod resource;
mod shard;
pub mod stats;

pub use manager::{AcquireError, LockManager, TryAcquire, VictimPolicy};
pub use modes::{CommutSource, LockKind, LockMode, ModeSource, RwSource, READ, WRITE};
pub use resource::ResourceId;
pub use stats::{LockStats, StatsSnapshot};
