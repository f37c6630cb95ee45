//! Crash recovery: newest checkpoint + streaming log replay in
//! commit-timestamp order, restartable at any point.
//!
//! The protocol:
//!
//! 1. Load the newest checkpoint that validates; rebuild the schema
//!    (deterministic ids — see [`crate::checkpoint`]) and the base
//!    store image, and restore the OID allocator.
//! 2. **Stream** the log one frame at a time ([`FrameStream`]) up to
//!    the last intact frame (a torn final record — a crash mid-append —
//!    ends replay cleanly; nothing after it was acked as durable).
//! 3. Apply records in `(timestamp, log position)` order through a
//!    **bounded reorder window**: frames enter a min-heap keyed by
//!    `(order_ts, seq)`, and whenever the heap exceeds the window the
//!    smallest record is applied — resident memory is O(window), not
//!    O(log). What bounds how far a record can sit behind its
//!    timestamp order in the file is **how the writer draws its
//!    timestamps**, not the size of a group-commit batch (batches are
//!    written in the order records were staged):
//!    * the lock schemes draw their commit sequence *inside* the log's
//!      staging latch ([`Wal::append_commit_with`]), so their commit
//!      records are in strictly increasing order — lag 0 by
//!      construction, however long a client is preempted;
//!    * the version heap draws its commit timestamp before it appends,
//!      but a commit returns only once every earlier timestamp is
//!      published and a record is appended before its timestamp is
//!      published, so a record is overtaken by at most one in-flight
//!      commit per other session — sessions − 1 (the skip records of
//!      refused commits do not wait and can add a few; extent records
//!      carry an already-published watermark and trail by no more).
//!
//!    If the bound is ever violated (a log written by something that
//!    draws timestamps further ahead than the window), replay fails
//!    loudly with [`RecoveryError::ReorderWindowExceeded`] rather than
//!    applying records out of order. Commit records below the
//!    checkpoint's `replay_from` are skipped (already inside the
//!    image); creates and deletes replay unconditionally (both are
//!    idempotent — OIDs are never reused, so a create already in the
//!    checkpoint is skipped and a delete of an absent object is a
//!    no-op).
//! 4. The highest timestamp seen — commit or skip, checkpoint included
//!    — is the clock restore point: the recovered heap's clock and
//!    watermark both resume there, so post-recovery commits continue
//!    with no timestamp reuse and no watermark hole, exactly as if the
//!    skip-filled history had run in-process.
//!
//! **Restartability.** Recovery never writes to the log directory: the
//! checkpoint files and the log are read-only inputs, and all mutation
//! lands in the fresh in-memory [`Database`]. A crash at *any* point
//! during recovery — checkpoint decode, frame scan, record apply
//! (the [`Site::RECOVERY`](finecc_chaos::Site::RECOVERY) fault probes
//! land at each) — therefore leaves the directory byte-identical, and
//! a second recovery replays the same acked prefix to the same state.
//! The chaos harness proves this by crashing recovery at every probe
//! site and diffing the re-recovered state against an uncrashed run.

use crate::checkpoint;
use crate::error::RecoveryError;
use crate::log::Wal;
use crate::record::{FrameStream, LogRecord};
use finecc_model::Schema;
use finecc_store::Database;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::sync::Arc;

/// Default replay reorder window. It has to cover how far a record
/// can trail its timestamp order in the file (module docs, step 3):
/// nothing for the lock schemes, whose commit sequence is drawn inside
/// the staging latch, and one record per other concurrent session for
/// the version heap — so 1024 is room for a thousand sessions, not a
/// batch size.
pub const DEFAULT_REORDER_WINDOW: usize = 1024;

/// What recovery found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// The checkpoint the base image came from.
    pub checkpoint_ts: u64,
    /// First log timestamp that was eligible for replay.
    pub replay_from: u64,
    /// Log records applied (commit records replayed + creates/deletes
    /// that changed the store).
    pub replayed: u64,
    /// Skip records accounted (timestamp holes restored, nothing
    /// applied).
    pub skips: u64,
    /// The clock restore point: highest commit/skip timestamp seen
    /// (checkpoint included). The recovered clock and watermark resume
    /// here.
    pub max_ts: u64,
    /// `true` if the log ended in a torn record (crash mid-append);
    /// replay stopped at the last intact frame.
    pub tail_torn: bool,
    /// High-water mark of the replay reorder window: the most records
    /// streaming replay ever held in memory at once. Bounded by the
    /// window (+1 transiently), never by the log length — the
    /// log-growth test asserts exactly that.
    pub peak_reorder: u64,
    /// Log bytes the recovery scan walked (the offset just past the
    /// last intact frame; 0 when no log file existed).
    pub bytes_scanned: u64,
}

/// A frame parked in the reorder window: ordered by `(ts, seq)` so
/// equal timestamps apply in log order, exactly like the old
/// sort-everything replay.
struct Keyed {
    ts: u64,
    seq: u64,
    offset: u64,
    rec: LogRecord,
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Keyed) -> bool {
        (self.ts, self.seq) == (other.ts, other.seq)
    }
}
impl Eq for Keyed {}
impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Keyed) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Keyed {
    fn cmp(&self, other: &Keyed) -> std::cmp::Ordering {
        (self.ts, self.seq).cmp(&(other.ts, other.seq))
    }
}

/// Rebuilds a [`Database`] from a log directory: newest checkpoint +
/// streaming replay with the [`DEFAULT_REORDER_WINDOW`]. The returned
/// database holds the recovered schema, extents, instances and OID
/// allocator; the [`RecoveryInfo`] carries the clock restore point for
/// version-heap callers.
pub fn recover_database(dir: &Path) -> Result<(Database, RecoveryInfo), RecoveryError> {
    recover_database_with_window(dir, DEFAULT_REORDER_WINDOW)
}

/// [`recover_database`] with an explicit reorder window (tests size it
/// down to prove the memory bound; a heap serving more than a thousand
/// concurrent sessions sizes it up to match).
pub fn recover_database_with_window(
    dir: &Path,
    window: usize,
) -> Result<(Database, RecoveryInfo), RecoveryError> {
    use finecc_chaos::{FaultKind, Site};
    let window = window.max(1);
    let ckpt = checkpoint::read_latest(dir)?.ok_or_else(|| RecoveryError::NoCheckpoint {
        dir: dir.to_path_buf(),
    })?;
    let schema = Arc::new(ckpt.schema);
    let db = Database::new(Arc::clone(&schema));
    for inst in &ckpt.instances {
        db.insert_instance(inst.oid, inst.class, inst.values.clone());
    }
    db.set_next_oid(ckpt.next_oid);

    let mut info = RecoveryInfo {
        checkpoint_ts: ckpt.ckpt_ts,
        replay_from: ckpt.replay_from,
        max_ts: ckpt.ckpt_ts,
        ..RecoveryInfo::default()
    };

    let log_path = Wal::log_path(dir);
    if !log_path.exists() {
        return Ok((db, info));
    }
    let mut stream = FrameStream::open(&log_path)?;
    let mut pending: BinaryHeap<Reverse<Keyed>> = BinaryHeap::new();
    let mut seq = 0u64;
    // Tracks the highest order_ts already applied (None before the
    // first apply): the window-violation detector.
    let mut applied_ts: Option<u64> = None;

    let mut apply = |k: Keyed, info: &mut RecoveryInfo| -> Result<(), RecoveryError> {
        match finecc_chaos::fault_at(Site::RecoverApply) {
            Some(FaultKind::IoError) => {
                return Err(RecoveryError::Io {
                    file: log_path.clone(),
                    source: "injected: recovery apply error".into(),
                })
            }
            Some(FaultKind::Crash) => {
                finecc_chaos::note_crash();
                return Err(RecoveryError::Io {
                    file: log_path.clone(),
                    source: "injected: crash during recovery apply".into(),
                });
            }
            _ => {}
        }
        if applied_ts.is_some_and(|a| k.ts < a) {
            return Err(RecoveryError::ReorderWindowExceeded {
                file: log_path.clone(),
                offset: k.offset,
                window,
                ts: k.ts,
                applied: applied_ts.unwrap_or(0),
            });
        }
        applied_ts = Some(k.ts);
        match k.rec {
            LogRecord::Commit { ts, writes, .. } => {
                info.max_ts = info.max_ts.max(ts);
                if ts < info.replay_from {
                    return Ok(()); // already inside the checkpoint image
                }
                for w in writes {
                    // An image of a later-deleted object (or of a field
                    // the rebuilt class cannot see — impossible with a
                    // deterministic schema, but defended) is skipped,
                    // like undo rollback does.
                    let _ = db.write_unchecked(w.oid, w.field, w.value);
                }
                info.replayed += 1;
            }
            LogRecord::Skip { ts } => {
                info.max_ts = info.max_ts.max(ts);
                if ts >= info.replay_from {
                    info.skips += 1;
                }
            }
            LogRecord::Create { oid, class, .. } => {
                if (class.index()) < schema.class_count() {
                    let values: Vec<_> = schema
                        .class(class)
                        .all_fields
                        .iter()
                        .map(|&f| schema.field(f).ty.default_value())
                        .collect();
                    if db.insert_instance(oid, class, values) {
                        info.replayed += 1;
                    }
                }
            }
            LogRecord::Delete { oid, .. } => {
                if db.delete(oid).is_ok() {
                    info.replayed += 1;
                }
            }
        }
        Ok(())
    };

    loop {
        match finecc_chaos::fault_at(Site::RecoverScan) {
            Some(FaultKind::IoError) => {
                return Err(RecoveryError::Io {
                    file: log_path.clone(),
                    source: "injected: recovery scan error".into(),
                })
            }
            Some(FaultKind::Crash) => {
                finecc_chaos::note_crash();
                return Err(RecoveryError::Io {
                    file: log_path.clone(),
                    source: "injected: crash during recovery scan".into(),
                });
            }
            _ => {}
        }
        let Some((offset, rec)) = stream.next_record()? else {
            break;
        };
        info.bytes_scanned = info.bytes_scanned.max(offset);
        pending.push(Reverse(Keyed {
            ts: rec.order_ts(),
            seq,
            offset,
            rec,
        }));
        seq += 1;
        info.peak_reorder = info.peak_reorder.max(pending.len() as u64);
        while pending.len() > window {
            let Reverse(k) = pending.pop().expect("len > window > 0");
            apply(k, &mut info)?;
        }
    }
    info.tail_torn = stream.tail_torn();
    while let Some(Reverse(k)) = pending.pop() {
        apply(k, &mut info)?;
    }
    Ok((db, info))
}

/// The timestamp floor a writer resuming on `dir` must start above:
/// `max(newest checkpoint's replay_from, highest logged timestamp + 1)`.
/// Lock schemes bump their commit-sequence clock here when durability
/// is attached to a directory with history, so recovered and new
/// commits never share a timestamp. Streams the log — O(1) memory.
pub fn recovery_floor(dir: &Path) -> Result<u64, RecoveryError> {
    let mut floor = match checkpoint::read_latest(dir)? {
        Some(ckpt) => ckpt.replay_from,
        None => 0,
    };
    let log_path = Wal::log_path(dir);
    if log_path.exists() {
        let mut stream = FrameStream::open(&log_path)?;
        while let Some((_, rec)) = stream.next_record()? {
            if let LogRecord::Commit { ts, .. } | LogRecord::Skip { ts } = rec {
                floor = floor.max(ts + 1);
            }
        }
    }
    Ok(floor)
}

/// Rebuilds a schema-aware [`Schema`] handle from the newest checkpoint
/// without replaying the log (introspection/tooling).
pub fn recover_schema(dir: &Path) -> Result<Schema, RecoveryError> {
    Ok(checkpoint::read_latest(dir)?
        .ok_or_else(|| RecoveryError::NoCheckpoint {
            dir: dir.to_path_buf(),
        })?
        .schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointData, InstanceImage};
    use crate::log::WalConfig;
    use finecc_model::{FieldType, Oid, SchemaBuilder, TxnId, Value};
    use finecc_store::FieldImage;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("finecc-rec-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        b.class("a")
            .field("x", FieldType::Int)
            .field("y", FieldType::Str);
        b.finish().unwrap()
    }

    #[test]
    fn checkpoint_plus_replay_rebuilds_the_store() {
        let dir = tmpdir("basic");
        let schema = sample_schema();
        let a = schema.class_by_name("a").unwrap();
        let x = schema.resolve_field(a, "x").unwrap();
        let y = schema.resolve_field(a, "y").unwrap();
        {
            let wal = Wal::open(&dir, WalConfig::default()).unwrap();
            wal.write_checkpoint(&CheckpointData {
                ckpt_ts: 0,
                replay_from: 1,
                next_oid: 2,
                schema: &schema,
                instances: vec![InstanceImage {
                    oid: Oid(1),
                    class: a,
                    values: vec![Value::Int(10), Value::str("ten")],
                }],
            })
            .unwrap();
            // A commit below replay_from must NOT re-apply (already in
            // the checkpoint).
            wal.append_commit(
                1,
                TxnId(1),
                &[FieldImage {
                    oid: Oid(1),
                    field: x,
                    value: Value::Int(11),
                }],
            )
            .unwrap();
            wal.append_skip(2).unwrap();
            wal.append_create(2, Oid(2), a).unwrap();
            wal.append_commit(
                3,
                TxnId(2),
                &[
                    FieldImage {
                        oid: Oid(2),
                        field: y,
                        value: Value::str("two"),
                    },
                    FieldImage {
                        oid: Oid(1),
                        field: x,
                        value: Value::Int(12),
                    },
                ],
            )
            .unwrap();
        }
        let (db, info) = recover_database(&dir).unwrap();
        assert_eq!(info.checkpoint_ts, 0);
        assert_eq!(info.replayed, 3, "two commits + one create");
        assert_eq!(info.skips, 1);
        assert_eq!(info.max_ts, 3);
        assert!(!info.tail_torn);
        assert!(info.peak_reorder >= 1 && info.peak_reorder <= 4);
        assert_eq!(db.read(Oid(1), x), Ok(Value::Int(12)));
        assert_eq!(db.read(Oid(1), y), Ok(Value::str("ten")));
        assert_eq!(db.read(Oid(2), y), Ok(Value::str("two")));
        assert_eq!(db.read(Oid(2), x), Ok(Value::Int(0)), "created defaulted");
        assert_eq!(db.len(), 2);
        assert!(db.next_oid_hint() >= 3);
        assert_eq!(db.extent(a).len(), 2, "extents rebuilt");
        assert_eq!(recovery_floor(&dir).unwrap(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_replays_and_out_of_order_timestamps_sort() {
        let dir = tmpdir("delete");
        let schema = sample_schema();
        let a = schema.class_by_name("a").unwrap();
        let x = schema.resolve_field(a, "x").unwrap();
        {
            let wal = Wal::open(&dir, WalConfig::default()).unwrap();
            wal.write_checkpoint(&CheckpointData {
                ckpt_ts: 0,
                replay_from: 1,
                next_oid: 3,
                schema: &schema,
                instances: vec![
                    InstanceImage {
                        oid: Oid(1),
                        class: a,
                        values: vec![Value::Int(0), Value::str("")],
                    },
                    InstanceImage {
                        oid: Oid(2),
                        class: a,
                        values: vec![Value::Int(0), Value::str("")],
                    },
                ],
            })
            .unwrap();
            // Appended out of timestamp order (concurrent group
            // commit); replay must apply ts 1 before ts 2.
            wal.append_commit(
                2,
                TxnId(2),
                &[FieldImage {
                    oid: Oid(1),
                    field: x,
                    value: Value::Int(22),
                }],
            )
            .unwrap();
            wal.append_commit(
                1,
                TxnId(1),
                &[FieldImage {
                    oid: Oid(1),
                    field: x,
                    value: Value::Int(11),
                }],
            )
            .unwrap();
            wal.append_delete(2, Oid(2)).unwrap();
        }
        let (db, info) = recover_database(&dir).unwrap();
        assert_eq!(db.read(Oid(1), x), Ok(Value::Int(22)), "ts order wins");
        assert!(db.read(Oid(2), x).is_err(), "deleted object stays dead");
        assert_eq!(db.len(), 1);
        assert_eq!(info.replayed, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_window_still_orders_within_its_bound() {
        // The out-of-order pair above sits 1 frame apart; a window of 1
        // can still reorder it (one record parked while the next
        // streams in), and the violation detector stays quiet.
        let dir = tmpdir("tinywin");
        let schema = sample_schema();
        let a = schema.class_by_name("a").unwrap();
        let x = schema.resolve_field(a, "x").unwrap();
        {
            let wal = Wal::open(&dir, WalConfig::default()).unwrap();
            wal.write_checkpoint(&CheckpointData {
                ckpt_ts: 0,
                replay_from: 1,
                next_oid: 2,
                schema: &schema,
                instances: vec![InstanceImage {
                    oid: Oid(1),
                    class: a,
                    values: vec![Value::Int(0), Value::str("")],
                }],
            })
            .unwrap();
            for pair in 0..8u64 {
                let hi = 2 + pair * 2;
                let lo = 1 + pair * 2;
                wal.append_commit(hi, TxnId(hi), &[img(x, hi)]).unwrap();
                wal.append_commit(lo, TxnId(lo), &[img(x, lo)]).unwrap();
            }
        }
        let (db, info) = recover_database_with_window(&dir, 1).unwrap();
        assert_eq!(db.read(Oid(1), x), Ok(Value::Int(16)), "highest ts wins");
        assert_eq!(info.replayed, 16);
        assert!(
            info.peak_reorder <= 2,
            "window 1 holds at most window+1 transiently: {}",
            info.peak_reorder
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn img(field: finecc_model::FieldId, v: u64) -> FieldImage {
        FieldImage {
            oid: Oid(1),
            field,
            value: Value::Int(v as i64),
        }
    }

    #[test]
    fn exceeded_window_fails_loudly_not_silently() {
        // Three records, the *first* two frames hold the two highest
        // timestamps: a window of 1 must evict one of them before the
        // lowest arrives — out-of-order apply, detected and refused.
        let dir = tmpdir("exceed");
        let schema = sample_schema();
        let a = schema.class_by_name("a").unwrap();
        let x = schema.resolve_field(a, "x").unwrap();
        {
            let wal = Wal::open(&dir, WalConfig::default()).unwrap();
            wal.write_checkpoint(&CheckpointData {
                ckpt_ts: 0,
                replay_from: 1,
                next_oid: 2,
                schema: &schema,
                instances: vec![InstanceImage {
                    oid: Oid(1),
                    class: a,
                    values: vec![Value::Int(0), Value::str("")],
                }],
            })
            .unwrap();
            for ts in [3u64, 2, 1] {
                wal.append_commit(ts, TxnId(ts), &[img(x, ts)]).unwrap();
            }
        }
        let Err(err) = recover_database_with_window(&dir, 1) else {
            panic!("window 1 cannot order this log")
        };
        assert!(
            matches!(err, RecoveryError::ReorderWindowExceeded { window: 1, .. }),
            "got {err}"
        );
        // A window covering the distance succeeds.
        let (db, _) = recover_database_with_window(&dir, 2).unwrap();
        assert_eq!(db.read(Oid(1), x), Ok(Value::Int(3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_is_an_error() {
        let dir = tmpdir("nockpt");
        std::fs::create_dir_all(&dir).unwrap();
        let Err(err) = recover_database(&dir) else {
            panic!("recovered with no checkpoint")
        };
        assert!(matches!(err, RecoveryError::NoCheckpoint { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
