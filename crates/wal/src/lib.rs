//! # finecc-wal — field-granular write-ahead logging
//!
//! The durability subsystem under the schemes: a binary **redo log**
//! whose record body is the access-vector *Write* projection per field
//! (the paper's recovery remark — before-images are projections through
//! access vectors — applied to the redo side: log records carry exactly
//! the `(oid, field, after-image)` triples a transaction's write
//! projection touched, shared with `finecc_store::UndoLog` through the
//! [`FieldImage`](finecc_store::FieldImage) type, so undo images and
//! log payloads come from one projection path).
//!
//! Three pieces:
//!
//! * **The append pipeline** ([`Wal`]) — writers encode their record
//!   straight into one latched staging buffer; a paced flusher swaps
//!   it out, writes and fsyncs once per batch, and releases commit
//!   acks by LSN (**group commit**). The [`DurabilityLevel`] is a
//!   scheme parameter like the isolation level: `none` (no log), `wal`
//!   (logged, async), and `wal-sync` (commit acks only after its
//!   record is fsynced).
//! * **Fuzzy checkpoints** ([`checkpoint`]) — a consistent cut of
//!   schema + base store + live chains at a watermark-consistent
//!   timestamp, produced through the MVCC read path without stopping
//!   writers, written atomically (temp + fsync + rename + directory
//!   fsync), every stage covered by a `finecc_chaos` fault probe.
//! * **Recovery** ([`recover_database`]) — newest checkpoint +
//!   **streaming** replay of the log's intact prefix in
//!   commit-timestamp order through a bounded reorder window (memory
//!   is O(window), not O(log)), restoring extents, field values, the
//!   OID allocator, and the clock/watermark restore point (skip
//!   records keep SSI-refused timestamp holes from being reused).
//!   Recovery is **restartable**: it never writes to the log
//!   directory, so a crash at any of its fault probes followed by a
//!   second recovery yields the same acked-prefix state. Failures are
//!   typed ([`RecoveryError`]) and carry the offending file and byte
//!   offset.
//! * **Truncation & retention** ([`Wal::truncate_below`],
//!   [`Wal::prune_checkpoints`]) — after a durable checkpoint at
//!   `ckpt_ts`, frames strictly below `ckpt_ts` are atomically
//!   rewritten out of the log and checkpoints beyond the newest
//!   [`WalConfig::retain_checkpoints`] (plus any stale `.tmp` files)
//!   are deleted — only ever *after* the newer checkpoint's rename is
//!   directory-fsynced, so log size stays bounded across
//!   checkpoint cycles without ever removing a frame at or above the
//!   recovery floor.
//!
//! The version heap wires this in *after* the commit timestamp is
//! drawn and *before* watermark publication, so the existing
//! read-your-own-commits guarantee also implies **durable before
//! visible**: no snapshot ever observes a commit the log could lose.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod error;
pub mod log;
pub mod record;
pub mod recover;
pub mod stats;

pub use checkpoint::{CheckpointData, CheckpointImage, InstanceImage};
pub use error::{as_recovery_error, RecoveryError};
pub use log::{DurabilityLevel, Wal, WalConfig};
pub use record::{FrameStream, LogReader, LogRecord};
pub use recover::{
    recover_database, recover_database_with_window, recover_schema, recovery_floor, RecoveryInfo,
    DEFAULT_REORDER_WINDOW,
};
pub use stats::{WalStats, WalStatsSnapshot};
