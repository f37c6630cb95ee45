//! The append pipeline: lock-free enqueue, dedicated flusher, group
//! commit.
//!
//! Writers serialize their record, push the frame onto a **lock-free
//! Treiber stack** (one CAS — no mutex anywhere on the enqueue path),
//! and, at [`DurabilityLevel::WalSync`], block until the flusher's ack.
//! A dedicated flusher thread swaps the whole stack out (another single
//! atomic op), restores FIFO order, writes the batch to the log file,
//! issues **one** `fsync` for the entire batch, and wakes every waiting
//! writer — the classic group commit: whatever accumulated while the
//! previous batch was syncing shares the next sync. Batch size is
//! capped by [`WalConfig::max_batch`].
//!
//! At [`DurabilityLevel::Wal`] nothing waits: records still reach the
//! OS promptly (the flusher writes every batch) but commits ack without
//! an fsync — durable on graceful shutdown ([`Wal`]'s drop drains and
//! syncs), best-effort on a crash.
//!
//! Failure model: a write or fsync error fails every record of the
//! affected batch — each waiter gets an error and its transaction
//! rolls back — and the flusher **rewinds** the log file to the
//! batch's start so the on-disk log stays exactly the acked prefix.
//! When the rewind succeeds the failure is transient: later batches
//! proceed normally (graceful, batch-granular degradation). When the
//! rewind itself fails (or a simulated crash fired) the log is
//! poisoned and every in-flight and future append fails. Either way
//! the file stays prefix-consistent: frames are written in order and a
//! torn tail is detected (checksums) and truncated on the next open.
//!
//! Deterministic testing: [`WalConfig::inline`] — forced on while a
//! `finecc_chaos` *scheduled* session is installed — bypasses the
//! flusher and performs the write and (at `WalSync`) the fsync on the
//! appending thread, with fault probes at
//! [`finecc_chaos::Site::WalAppend`] / [`finecc_chaos::Site::WalFsync`].
//! The flusher path probes `WalFlushWrite` / `WalFlushFsync` through a
//! [`finecc_chaos::FaultToken`] captured at open time, so injected
//! flusher faults fire deterministically even though the flusher is a
//! background thread.
//!
//! **Truncation & retention** ([`Wal::truncate_below`],
//! [`Wal::prune_checkpoints`]): after a durable checkpoint at
//! `ckpt_ts`, the heap truncates every log frame whose replay
//! timestamp is strictly below `ckpt_ts` — never at or above it, so no
//! frame a future recovery could replay is ever lost (`recovery_floor`
//! is always ≥ `ckpt_ts + 1`) — and deletes checkpoints beyond the
//! newest [`WalConfig::retain_checkpoints`], both strictly *after* the
//! new checkpoint's rename is directory-fsynced. The truncation itself
//! is atomic (rewrite the retained suffix to a temp file, fsync,
//! rename, directory fsync): a crash anywhere leaves either the old
//! log or the compacted one, both of which replay to the same state on
//! top of the new checkpoint. In flusher mode the truncation rides the
//! group-commit queue, so it serializes with in-flight batches.

use crate::checkpoint::{self, CheckpointData};
use crate::record::{encode_frame, LogRecord, LOG_MAGIC};
use crate::stats::WalStats;
use finecc_model::{ClassId, Oid, TxnId};
use finecc_obs::{EventKind, Obs, Phase};
use finecc_store::FieldImage;
use parking_lot::{Condvar, Mutex};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How durable a scheme's commits are — a first-class scheme parameter
/// like the isolation level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DurabilityLevel {
    /// No logging at all: committed state lives purely in memory (the
    /// pre-WAL behavior; zero overhead, nothing survives a crash).
    #[default]
    None,
    /// Redo logging without commit-time fsync: every commit is appended
    /// to the log and written out by the flusher, but `commit` returns
    /// without waiting for the disk. Survives a graceful shutdown;
    /// after a crash, recovery yields some prefix of the committed
    /// history.
    Wal,
    /// Full write-ahead durability: `commit` returns only after the
    /// flusher's group `fsync` covers its record — durable before
    /// visible.
    WalSync,
}

impl DurabilityLevel {
    /// Stable display name (`none`, `wal`, `wal-sync`).
    pub fn name(self) -> &'static str {
        match self {
            DurabilityLevel::None => "none",
            DurabilityLevel::Wal => "wal",
            DurabilityLevel::WalSync => "wal-sync",
        }
    }
}

impl std::fmt::Display for DurabilityLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a [`Wal`].
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// The durability level the log enforces on appends.
    /// [`DurabilityLevel::None`] is accepted (callers usually skip
    /// creating a `Wal` entirely at that level) and behaves like
    /// [`DurabilityLevel::Wal`]: records are logged, nothing waits.
    pub level: DurabilityLevel,
    /// Most records one group-commit round writes+syncs. Larger
    /// batches amortize the fsync over more commits at the price of ack
    /// latency.
    pub max_batch: usize,
    /// Write (and, at [`DurabilityLevel::WalSync`], fsync) every record
    /// inline on the appending thread instead of handing it to the
    /// flusher. No group commit, so it is slower — but fully
    /// deterministic, which is why a `finecc_chaos` scheduled session
    /// forces it on regardless of this flag: injected faults then land
    /// at exact points of the explored schedule.
    pub inline: bool,
    /// How many checkpoint files [`Wal::prune_checkpoints`] keeps (at
    /// least 1 is always kept). Two by default: the newest plus one
    /// fallback in case the newest is found corrupt at recovery.
    pub retain_checkpoints: usize,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            level: DurabilityLevel::WalSync,
            max_batch: 1024,
            inline: false,
            retain_checkpoints: 2,
        }
    }
}

const STATE_QUEUED: u8 = 0;
const STATE_WRITTEN: u8 = 1;
const STATE_SYNCED: u8 = 2;
const STATE_FAILED: u8 = 3;

/// One enqueued frame, shared between the appending writer (which may
/// wait on `state`) and the flusher (which drives it).
struct Node {
    /// The encoded frame; empty for a pure sync barrier.
    bytes: Vec<u8>,
    /// Forces an fsync for the batch containing this node even at
    /// non-sync levels ([`Wal::sync`]).
    force_sync: bool,
    /// `Some(floor)` for a truncation request riding the queue: the
    /// flusher rewrites the log keeping only frames with
    /// `order_ts >= floor`, serialized against batch writes.
    truncate_below: Option<u64>,
    state: AtomicU8,
    /// Intrusive Treiber-stack link (an `Arc::into_raw` pointer owned
    /// by the list until drained).
    next: AtomicPtr<Node>,
}

impl Node {
    fn new(bytes: Vec<u8>, force_sync: bool) -> Arc<Node> {
        Arc::new(Node {
            bytes,
            force_sync,
            truncate_below: None,
            state: AtomicU8::new(STATE_QUEUED),
            next: AtomicPtr::new(std::ptr::null_mut()),
        })
    }

    fn truncate(floor: u64) -> Arc<Node> {
        Arc::new(Node {
            bytes: Vec::new(),
            force_sync: false,
            truncate_below: Some(floor),
            state: AtomicU8::new(STATE_QUEUED),
            next: AtomicPtr::new(std::ptr::null_mut()),
        })
    }
}

struct Shared {
    /// Pending frames, newest first (drained and reversed by the
    /// flusher).
    head: AtomicPtr<Node>,
    /// Pairs both condvars; holds no data — the queue itself is
    /// lock-free.
    gate: Mutex<()>,
    /// Wakes the flusher when it parked on an empty queue.
    wake: Condvar,
    /// Wakes writers waiting for their ack.
    acked: Condvar,
    /// `true` while the flusher is parked (writers only touch the gate
    /// mutex to wake a parked flusher).
    sleeping: AtomicBool,
    shutdown: AtomicBool,
    /// Poisoned by a flusher I/O error.
    failed: AtomicBool,
    stats: WalStats,
}

impl Shared {
    fn push(&self, node: &Arc<Node>) {
        self.stats.queue_enter();
        let raw = Arc::into_raw(Arc::clone(node)) as *mut Node;
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // Not yet visible to the flusher: plain store is fine.
            unsafe { (*raw).next.store(head, Ordering::Relaxed) };
            match self
                .head
                .compare_exchange_weak(head, raw, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        if self.sleeping.load(Ordering::Acquire) {
            let _g = self.gate.lock();
            self.wake.notify_one();
        }
    }

    /// Pops everything at once and restores FIFO (push) order.
    fn drain(&self) -> Vec<Arc<Node>> {
        let mut raw = self.head.swap(std::ptr::null_mut(), Ordering::AcqRel);
        let mut out = Vec::new();
        while !raw.is_null() {
            let node = unsafe { Arc::from_raw(raw) };
            raw = node.next.load(Ordering::Relaxed);
            out.push(node);
        }
        if !out.is_empty() {
            self.stats.queue_exit(out.len() as u64);
        }
        out.reverse();
        out
    }
}

/// The write-ahead log: an append-only redo log under `<dir>/wal.log`
/// plus checkpoint files, with the group-commit pipeline of the module
/// docs. Opening an existing directory resumes the log — a torn tail
/// left by a crash is truncated to the last intact frame so new
/// appends stay readable.
pub struct Wal {
    shared: Arc<Shared>,
    dir: PathBuf,
    level: DurabilityLevel,
    /// Checkpoints the retention policy keeps (≥ 1).
    retain: usize,
    /// Highest commit/skip timestamp found in the log at open time.
    max_logged_ts: u64,
    /// Observability sink: group-commit ack waits go into
    /// [`Phase::GroupCommitAck`]; disabled by default.
    obs: Arc<Obs>,
    flusher: Option<std::thread::JoinHandle<()>>,
    /// `Some` in inline mode (no flusher): the log file, written and
    /// synced directly by appending threads.
    inline: Option<Mutex<File>>,
}

fn poisoned() -> io::Error {
    io::Error::other("write-ahead log poisoned by a flusher I/O error")
}

/// Persists a directory's entries (new files, renames). Data fsyncs
/// alone do not persist the *dirent* on ext4/XFS — without this, a
/// power loss after an acked commit could erase the log file or a
/// just-renamed checkpoint from the directory. The open is
/// best-effort (non-POSIX platforms cannot open directories); a
/// failed *sync* on an opened directory is a real error and
/// propagates.
pub(crate) fn fsync_dir(dir: &Path) -> io::Result<()> {
    match std::fs::File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

impl Wal {
    /// The log file path under a directory.
    pub fn log_path(dir: &Path) -> PathBuf {
        dir.join("wal.log")
    }

    /// Opens (or creates) the log under `dir` and starts the flusher.
    pub fn open(dir: impl AsRef<Path>, config: WalConfig) -> io::Result<Wal> {
        Wal::open_with_obs(dir, config, Arc::new(Obs::disabled()))
    }

    /// [`Wal::open`] with an observability sink: ack waits are recorded
    /// into [`Phase::GroupCommitAck`] and the flusher emits `fsync`
    /// trace spans. The handle must be supplied at open time because
    /// the flusher thread captures it.
    pub fn open_with_obs(
        dir: impl AsRef<Path>,
        config: WalConfig,
        obs: Arc<Obs>,
    ) -> io::Result<Wal> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // A crash between a checkpoint's temp-file create and its
        // rename leaves a stale `.tmp` behind; open is the natural
        // sweep point (nothing references temp files across a restart).
        checkpoint::remove_stale_tmp(&dir)?;
        // Ditto a truncation that crashed between temp-file create and
        // rename: the real log is untouched, the temp is garbage.
        let _ = std::fs::remove_file(dir.join("wal.log.tmp"));
        let path = Wal::log_path(&dir);
        let mut max_logged_ts = 0;
        let file = if path.exists() {
            // Resume: stream to the last intact frame (O(1) memory),
            // truncate any torn tail (appending after garbage would
            // hide every later record from replay).
            let end = {
                let mut stream = crate::record::FrameStream::open(&path)?;
                while let Some((_, rec)) = stream.next_record()? {
                    if let LogRecord::Commit { ts, .. } | LogRecord::Skip { ts } = rec {
                        max_logged_ts = max_logged_ts.max(ts);
                    }
                }
                stream.offset()
            };
            let mut f = OpenOptions::new().read(true).write(true).open(&path)?;
            f.set_len(end)?;
            f.seek(SeekFrom::Start(end))?;
            f
        } else {
            let mut f = OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(&path)?;
            f.write_all(LOG_MAGIC)?;
            f.sync_data()?;
            // Persist the new dirent too: otherwise a power loss could
            // drop the whole log file even after commits were fsynced.
            fsync_dir(&dir)?;
            f
        };
        let shared = Arc::new(Shared {
            head: AtomicPtr::new(std::ptr::null_mut()),
            gate: Mutex::new(()),
            wake: Condvar::new(),
            acked: Condvar::new(),
            sleeping: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            stats: WalStats::default(),
        });
        let (flusher, inline) = if config.inline || finecc_chaos::scheduled_session() {
            (None, Some(Mutex::new(file)))
        } else {
            // Captured here, on the opening (chaos-eligible) thread:
            // the flusher itself is a background thread the harness
            // knows nothing about.
            let token = finecc_chaos::fault_token();
            let shared = Arc::clone(&shared);
            let obs = Arc::clone(&obs);
            let sync_all = config.level == DurabilityLevel::WalSync;
            let max_batch = config.max_batch.max(1);
            let flusher_dir = dir.clone();
            let handle = std::thread::Builder::new()
                .name("finecc-wal-flusher".into())
                .spawn(move || {
                    flusher_loop(shared, file, sync_all, max_batch, flusher_dir, obs, token)
                })?;
            (Some(handle), None)
        };
        Ok(Wal {
            shared,
            dir,
            level: config.level,
            retain: config.retain_checkpoints.max(1),
            max_logged_ts,
            obs,
            flusher,
            inline,
        })
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The durability level appends enforce.
    pub fn level(&self) -> DurabilityLevel {
        self.level
    }

    /// Live counters.
    pub fn stats(&self) -> &WalStats {
        &self.shared.stats
    }

    /// Emits the current WAL counters into a metrics collector under
    /// `finecc.wal.*` names.
    pub fn collect_metrics(&self, c: &mut finecc_obs::Collector) {
        self.shared.stats.snapshot().collect_metrics(c);
    }

    /// Highest commit/skip timestamp that was already in the log when
    /// it was opened (0 for a fresh log). Callers resuming a clock on
    /// top of an existing directory start above this.
    pub fn max_logged_ts(&self) -> u64 {
        self.max_logged_ts
    }

    fn append(&self, rec: &LogRecord, wait_ack: bool) -> io::Result<()> {
        if self.inline.is_some() {
            return self.append_inline(rec, wait_ack);
        }
        if self.shared.failed.load(Ordering::Acquire) {
            return Err(poisoned());
        }
        let node = Node::new(encode_frame(rec), false);
        self.shared.push(&node);
        self.shared.stats.bump_appends();
        if wait_ack && self.level == DurabilityLevel::WalSync {
            self.shared.stats.bump_sync_waits();
            let wait_start = self.obs.clock();
            self.wait_ack(&node, STATE_SYNCED)?;
            self.obs.record_since(Phase::GroupCommitAck, wait_start);
        }
        Ok(())
    }

    /// Inline-mode append: write (and at `WalSync` fsync) directly on
    /// the appending thread. Chaos probes: `WalAppend` faults strike
    /// the frame write, `WalFsync` faults strike the commit fsync; an
    /// injected `Crash` leaves the on-disk log exactly as a real power
    /// cut would (torn tail mid-write, rewound frame at fsync) and
    /// poisons the log.
    fn append_inline(&self, rec: &LogRecord, wait_ack: bool) -> io::Result<()> {
        use finecc_chaos::{FaultKind, Site};
        // Scheduling decision *before* taking the file lock: a
        // scheduled worker must never be preempted while holding a
        // mutex another worker can block on.
        finecc_chaos::yield_point(Site::WalAppend);
        if self.shared.failed.load(Ordering::Acquire) {
            return Err(poisoned());
        }
        let frame = encode_frame(rec);
        let mut file = self.inline.as_ref().expect("inline mode").lock();
        self.shared.stats.bump_appends();
        let start_pos = file.stream_position()?;
        let rewind = |file: &mut File| {
            file.set_len(start_pos).is_ok()
                && file.seek(SeekFrom::Start(start_pos)).is_ok()
                && file.sync_data().is_ok()
        };
        match finecc_chaos::fault_at(Site::WalAppend) {
            Some(FaultKind::IoError) => {
                self.shared.stats.add_append_failures(1);
                return Err(io::Error::other("injected: wal append write error"));
            }
            Some(FaultKind::Crash) => {
                // A mid-append power cut: half the frame reaches disk,
                // the log is dead. Recovery truncates the torn tail.
                let _ = file.write_all(&frame[..frame.len() / 2]);
                let _ = file.sync_data();
                self.shared.failed.store(true, Ordering::Release);
                self.shared.stats.add_append_failures(1);
                finecc_chaos::note_crash();
                return Err(io::Error::other("injected: crash mid-append"));
            }
            _ => {}
        }
        if let Err(e) = file.write_all(&frame) {
            self.shared.stats.add_append_failures(1);
            if !rewind(&mut file) {
                self.shared.failed.store(true, Ordering::Release);
            }
            return Err(e);
        }
        if wait_ack && self.level == DurabilityLevel::WalSync {
            self.shared.stats.bump_sync_waits();
            match finecc_chaos::fault_at(Site::WalFsync) {
                Some(FaultKind::IoError) => {
                    // Transient: rewind the frame so the on-disk log
                    // stays exactly the acked prefix; later appends
                    // proceed.
                    self.shared.stats.add_append_failures(1);
                    if !rewind(&mut file) {
                        self.shared.failed.store(true, Ordering::Release);
                    }
                    return Err(io::Error::other("injected: wal fsync error"));
                }
                Some(FaultKind::Crash) => {
                    // Crash before the fsync: the record was never
                    // acked, so it must not survive into recovery.
                    self.shared.stats.add_append_failures(1);
                    let _ = rewind(&mut file);
                    self.shared.failed.store(true, Ordering::Release);
                    finecc_chaos::note_crash();
                    return Err(io::Error::other("injected: crash at commit fsync"));
                }
                _ => {}
            }
            let wait_start = self.obs.clock();
            if let Err(e) = file.sync_data() {
                self.shared.stats.add_append_failures(1);
                if !rewind(&mut file) {
                    self.shared.failed.store(true, Ordering::Release);
                }
                return Err(e);
            }
            self.shared.stats.bump_log_fsyncs();
            self.shared.stats.sample_batch(1);
            self.obs.record_since(Phase::GroupCommitAck, wait_start);
        }
        self.shared.stats.add_log_bytes(frame.len() as u64);
        Ok(())
    }

    fn wait_ack(&self, node: &Arc<Node>, target: u8) -> io::Result<()> {
        let mut g = self.shared.gate.lock();
        loop {
            match node.state.load(Ordering::Acquire) {
                STATE_FAILED => {
                    // Permanent poison and transient batch failure look
                    // the same to the node; the shared flag tells them
                    // apart.
                    return Err(if self.shared.failed.load(Ordering::Acquire) {
                        poisoned()
                    } else {
                        io::Error::other(
                            "write-ahead log batch failed and was rolled back (retryable)",
                        )
                    });
                }
                s if s >= target => return Ok(()),
                _ => {
                    // Timeout only as a safety net (the flusher
                    // notifies under the gate, so wakeups cannot be
                    // lost).
                    self.shared
                        .acked
                        .wait_for(&mut g, Duration::from_millis(50));
                }
            }
        }
    }

    /// Appends a commit record — the transaction's *Write*-projection
    /// after-images at its commit timestamp — and, at
    /// [`DurabilityLevel::WalSync`], returns only once the record is
    /// fsynced (the group-commit ack).
    pub fn append_commit(&self, ts: u64, txn: TxnId, writes: &[FieldImage]) -> io::Result<()> {
        self.append(
            &LogRecord::Commit {
                ts,
                txn,
                writes: writes.to_vec(),
            },
            true,
        )
    }

    /// Appends a skip record for a drawn-but-refused commit timestamp
    /// (SSI validation failure after the clock draw), so recovery
    /// restores the hole instead of reusing it. Never waits for the
    /// fsync, even at [`DurabilityLevel::WalSync`]: losing an unsynced
    /// skip is harmless — any later durable commit record's fsync
    /// covers the earlier skip frame anyway (frames are written in
    /// order), and if the skip was the highest drawn timestamp,
    /// re-drawing it after recovery reuses a timestamp at which
    /// nothing was ever flipped or logged.
    pub fn append_skip(&self, ts: u64) -> io::Result<()> {
        self.append(&LogRecord::Skip { ts }, false)
    }

    /// Appends an object-creation record.
    pub fn append_create(&self, as_of: u64, oid: Oid, class: ClassId) -> io::Result<()> {
        self.append(&LogRecord::Create { as_of, oid, class }, true)
    }

    /// Appends an object-deletion record.
    pub fn append_delete(&self, as_of: u64, oid: Oid) -> io::Result<()> {
        self.append(&LogRecord::Delete { as_of, oid }, true)
    }

    /// Drains the queue and fsyncs, regardless of level — the graceful
    /// flush (tests and shutdown paths call it; dropping the log does
    /// the same).
    pub fn sync(&self) -> io::Result<()> {
        if self.shared.failed.load(Ordering::Acquire) {
            return Err(poisoned());
        }
        if let Some(file) = &self.inline {
            // Inline mode: nothing is queued, the file is the truth.
            file.lock().sync_data()?;
            self.shared.stats.bump_log_fsyncs();
            return Ok(());
        }
        let node = Node::new(Vec::new(), true);
        self.shared.push(&node);
        self.wait_ack(&node, STATE_SYNCED)
    }

    /// Writes a checkpoint file into the log directory (atomically:
    /// temp file + rename). Returns its path.
    pub fn write_checkpoint(&self, data: &CheckpointData<'_>) -> io::Result<PathBuf> {
        checkpoint::write(&self.dir, data)
    }

    /// `true` if the directory holds at least one checkpoint file.
    pub fn has_checkpoint(&self) -> io::Result<bool> {
        Ok(!checkpoint::list(&self.dir)?.is_empty())
    }

    /// How many checkpoint files the retention policy keeps.
    pub fn retain_checkpoints(&self) -> usize {
        self.retain
    }

    /// Applies the retention policy: deletes all but the newest
    /// [`WalConfig::retain_checkpoints`] checkpoint files. Callers
    /// sequence this after [`Wal::write_checkpoint`] returned — the new
    /// checkpoint's rename is directory-fsynced by then, so a crash
    /// mid-prune still leaves a durable checkpoint. Returns how many
    /// files were removed.
    pub fn prune_checkpoints(&self) -> io::Result<u64> {
        let removed = checkpoint::retain(&self.dir, self.retain)?;
        if removed > 0 {
            self.shared.stats.add_checkpoints_removed(removed);
        }
        Ok(removed)
    }

    /// Truncates the log: atomically rewrites it keeping only frames
    /// whose replay timestamp (`order_ts`) is **at or above** `floor`.
    /// The heap calls this with `floor = ckpt_ts` after a durable
    /// checkpoint: frames *at* the checkpoint timestamp survive (an
    /// extent event racing the fuzzy scan can share it), and recovery's
    /// replay floor is `ckpt_ts + 1`, so truncation never removes a
    /// frame a future recovery could need — property-tested against
    /// [`crate::recovery_floor`] over arbitrary floors.
    ///
    /// Atomicity: the retained suffix is rewritten to `wal.log.tmp`,
    /// fsynced, renamed over the log, and the directory fsynced — a
    /// crash anywhere leaves either the old log or the compacted one,
    /// which replay identically on top of the checkpoint. A pre-rename
    /// failure is transient (log unchanged); a post-rename failure
    /// poisons the log (the open write handle no longer matches the
    /// directory entry). In flusher mode the request rides the
    /// group-commit queue and is serialized against batch writes.
    pub fn truncate_below(&self, floor: u64) -> io::Result<()> {
        if self.shared.failed.load(Ordering::Acquire) {
            return Err(poisoned());
        }
        if let Some(file) = &self.inline {
            let mut guard = file.lock();
            guard.sync_data()?;
            match rewrite_log(&self.dir, floor) {
                Ok(removed) => match reopen_log_end(&self.dir) {
                    Ok(f) => {
                        *guard = f;
                        self.shared.stats.sample_truncation(removed);
                        Ok(())
                    }
                    Err(e) => {
                        self.shared.failed.store(true, Ordering::Release);
                        Err(e)
                    }
                },
                Err((e, poison)) => {
                    if poison {
                        self.shared.failed.store(true, Ordering::Release);
                    }
                    Err(e)
                }
            }
        } else {
            let node = Node::truncate(floor);
            self.shared.push(&node);
            self.wait_ack(&node, STATE_SYNCED)
        }
    }
}

/// Atomically rewrites the log at `dir`, keeping only frames with
/// `order_ts >= floor` (canonical encoding round-trips byte-identically,
/// so re-encoding decoded frames preserves them exactly). Returns the
/// bytes removed. The `bool` in the error marks the point of no
/// return: `false` means the log file is untouched (transient failure),
/// `true` means the rename landed but a later step failed — callers
/// must poison, their write handle no longer matches the dirent.
fn rewrite_log(dir: &Path, floor: u64) -> Result<u64, (io::Error, bool)> {
    let path = Wal::log_path(dir);
    let tmp = dir.join("wal.log.tmp");
    let old_len = std::fs::metadata(&path).map_err(|e| (e, false))?.len();
    let built = (|| -> io::Result<u64> {
        let mut out = io::BufWriter::new(File::create(&tmp)?);
        out.write_all(LOG_MAGIC)?;
        let mut kept = 0u64;
        let mut stream = crate::record::FrameStream::open(&path).map_err(io::Error::from)?;
        while let Some((_, rec)) = stream.next_record().map_err(io::Error::from)? {
            if rec.order_ts() >= floor {
                let frame = encode_frame(&rec);
                kept += frame.len() as u64;
                out.write_all(&frame)?;
            }
        }
        out.flush()?;
        out.get_ref().sync_data()?;
        Ok(kept)
    })();
    let kept = match built {
        Ok(kept) => kept,
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            return Err((e, false));
        }
    };
    if let Err(e) = std::fs::rename(&tmp, &path) {
        let _ = std::fs::remove_file(&tmp);
        return Err((e, false));
    }
    fsync_dir(dir).map_err(|e| (e, true))?;
    Ok(old_len.saturating_sub(LOG_MAGIC.len() as u64 + kept))
}

/// Reopens the log for appending after a truncation swapped the file.
fn reopen_log_end(dir: &Path) -> io::Result<File> {
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(Wal::log_path(dir))?;
    f.seek(SeekFrom::End(0))?;
    Ok(f)
}

impl Drop for Wal {
    fn drop(&mut self) {
        if let Some(file) = &self.inline {
            // No flusher to drain; leave the file synced (best-effort
            // — the log may be poisoned by an injected crash).
            let _ = file.lock().sync_data();
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.gate.lock();
            self.shared.wake.notify_one();
        }
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
        // Free anything still on the stack (possible only if the
        // flusher died on an I/O error).
        for node in self.shared.drain() {
            node.state.store(STATE_FAILED, Ordering::Release);
        }
    }
}

fn flusher_loop(
    shared: Arc<Shared>,
    mut file: File,
    sync_all: bool,
    max_batch: usize,
    dir: PathBuf,
    obs: Arc<Obs>,
    token: Option<finecc_chaos::FaultToken>,
) {
    loop {
        let batch = shared.drain();
        if batch.is_empty() {
            if shared.shutdown.load(Ordering::Acquire) {
                // Graceful shutdown: everything drained and written;
                // leave the file synced even at async levels.
                let _ = file.sync_data();
                return;
            }
            shared.sleeping.store(true, Ordering::Release);
            {
                let mut g = shared.gate.lock();
                // Re-check under the gate: a pusher may have raced the
                // sleeping flag. The handshake (pushers notify under
                // the gate whenever `sleeping` is set) makes lost
                // wakeups impossible, so the timeout is only a safety
                // net — long enough that an idle log costs no
                // measurable CPU.
                if shared.head.load(Ordering::Acquire).is_null()
                    && !shared.shutdown.load(Ordering::Acquire)
                {
                    shared.wake.wait_for(&mut g, Duration::from_millis(50));
                }
            }
            shared.sleeping.store(false, Ordering::Release);
            continue;
        }
        // Truncation requests split the batch: the frames queued before
        // one are flushed first, then the log is rewritten, then the
        // rest proceeds — FIFO order keeps the on-disk log exactly the
        // acked prefix throughout.
        let mut start = 0;
        for idx in 0..=batch.len() {
            let floor = if idx < batch.len() {
                batch[idx].truncate_below
            } else {
                None
            };
            if idx < batch.len() && floor.is_none() {
                continue;
            }
            for chunk in batch[start..idx].chunks(max_batch) {
                flush_chunk(&shared, &mut file, chunk, sync_all, &obs, token.as_ref());
            }
            if let Some(floor) = floor {
                run_truncation(&shared, &mut file, &dir, floor, &batch[idx]);
            }
            start = idx + 1;
        }
    }
}

/// One group-commit round over `chunk`: write every frame, one fsync,
/// release the acks — or fail the whole chunk and rewind.
fn flush_chunk(
    shared: &Shared,
    file: &mut File,
    chunk: &[Arc<Node>],
    sync_all: bool,
    obs: &Obs,
    token: Option<&finecc_chaos::FaultToken>,
) {
    use finecc_chaos::{FaultKind, Site};
    if shared.failed.load(Ordering::Acquire) {
        fail_nodes(shared, chunk);
        return;
    }
    // The chunk's start offset: on failure the file is rewound
    // here so the on-disk log stays exactly the acked prefix.
    let start_pos = file.stream_position().unwrap_or(u64::MAX);
    let mut records = 0u64;
    let mut bytes_written = 0u64;
    let mut result: io::Result<()> = Ok(());
    let mut crash = false;
    let mut force_sync = false;
    match token.as_ref().and_then(|t| t.fault_at(Site::WalFlushWrite)) {
        Some(FaultKind::IoError) => {
            result = Err(io::Error::other("injected: flusher write error"));
        }
        Some(FaultKind::Crash) => {
            result = Err(io::Error::other("injected: crash in flusher write"));
            crash = true;
        }
        _ => {}
    }
    if result.is_ok() {
        for node in chunk {
            force_sync |= node.force_sync;
            if node.bytes.is_empty() {
                continue;
            }
            if let Err(e) = file.write_all(&node.bytes) {
                result = Err(e);
                break;
            }
            bytes_written += node.bytes.len() as u64;
            records += 1;
        }
    }
    if result.is_ok() && (sync_all || force_sync) {
        match token.as_ref().and_then(|t| t.fault_at(Site::WalFlushFsync)) {
            Some(FaultKind::IoError) => {
                result = Err(io::Error::other("injected: flusher fsync error"));
            }
            Some(FaultKind::Crash) => {
                result = Err(io::Error::other("injected: crash at flusher fsync"));
                crash = true;
            }
            _ => {
                let sync_start = obs.now_ns();
                result = file.sync_data();
                if result.is_ok() {
                    shared.stats.bump_log_fsyncs();
                }
                // Fsync spans are emitted unconditionally when
                // tracing is on (`txn 0` always passes the
                // sampler): there is one flusher, and the fsync
                // cadence is exactly what a group-commit trace
                // is read for. The `oid` slot carries the
                // batch's record count.
                if obs.trace_sampled(0) {
                    let dur = obs.now_ns().saturating_sub(sync_start);
                    obs.emit(EventKind::Fsync, sync_start, dur, 0, records);
                }
            }
        }
    }
    match result {
        Ok(()) => {
            shared.stats.add_log_bytes(bytes_written);
            if records > 0 {
                shared.stats.sample_batch(records);
            }
            let state = if sync_all || force_sync {
                STATE_SYNCED
            } else {
                STATE_WRITTEN
            };
            for node in chunk {
                node.state.store(state, Ordering::Release);
            }
        }
        Err(_) => {
            let failed_records = chunk.iter().filter(|n| !n.bytes.is_empty()).count() as u64;
            shared.stats.add_append_failures(failed_records);
            // Rewind the partially written batch: none of its
            // records was acked, so none may survive into
            // recovery. A clean rewind makes the failure
            // transient — the next batch proceeds normally; a
            // failed rewind (or a simulated crash) poisons the
            // log for good.
            let rolled_back = start_pos != u64::MAX
                && file.set_len(start_pos).is_ok()
                && file.seek(SeekFrom::Start(start_pos)).is_ok()
                && file.sync_data().is_ok();
            if crash || !rolled_back {
                shared.failed.store(true, Ordering::Release);
            }
            if crash {
                if let Some(t) = &token {
                    t.note_crash();
                }
            }
            fail_nodes(shared, chunk);
        }
    }
    let _g = shared.gate.lock();
    shared.acked.notify_all();
}

/// Executes a truncation request on the flusher: sync what is written,
/// rewrite the log atomically, swap the write handle to the new file.
fn run_truncation(shared: &Shared, file: &mut File, dir: &Path, floor: u64, node: &Arc<Node>) {
    if shared.failed.load(Ordering::Acquire) {
        fail_nodes(shared, std::slice::from_ref(node));
        return;
    }
    let result = file
        .sync_data()
        .map_err(|e| (e, false))
        .and_then(|()| rewrite_log(dir, floor));
    match result {
        Ok(removed) => match reopen_log_end(dir) {
            Ok(f) => {
                *file = f;
                shared.stats.sample_truncation(removed);
                node.state.store(STATE_SYNCED, Ordering::Release);
                let _g = shared.gate.lock();
                shared.acked.notify_all();
            }
            Err(_) => {
                // The compacted log landed but the handle swap failed:
                // the old handle points at the unlinked inode, so
                // nothing written through it would survive — poison.
                shared.failed.store(true, Ordering::Release);
                fail_nodes(shared, std::slice::from_ref(node));
            }
        },
        Err((_, poison)) => {
            if poison {
                shared.failed.store(true, Ordering::Release);
            }
            fail_nodes(shared, std::slice::from_ref(node));
        }
    }
}

fn fail_nodes(shared: &Shared, nodes: &[Arc<Node>]) {
    for node in nodes {
        node.state.store(STATE_FAILED, Ordering::Release);
    }
    let _g = shared.gate.lock();
    shared.acked.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogReader;
    use finecc_model::Value;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("finecc-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn image(oid: u64, field: u32, v: i64) -> FieldImage {
        FieldImage {
            oid: Oid(oid),
            field: finecc_model::FieldId(field),
            value: Value::Int(v),
        }
    }

    #[test]
    fn append_sync_reopen_roundtrip() {
        let dir = tmpdir("roundtrip");
        {
            let wal = Wal::open(&dir, WalConfig::default()).unwrap();
            wal.append_create(0, Oid(1), ClassId(0)).unwrap();
            wal.append_commit(1, TxnId(5), &[image(1, 0, 42)]).unwrap();
            wal.append_skip(2).unwrap();
            let s = wal.stats().snapshot();
            assert_eq!(s.appends, 3);
            assert!(s.log_fsyncs >= 1, "wal-sync appends were fsynced");
            assert!(s.log_bytes > 0);
            assert!(s.group_commit_batches >= 1);
        }
        // Reopen: records intact, max ts found.
        let wal = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(wal.max_logged_ts(), 2);
        drop(wal);
        let bytes = LogReader::read_file(&Wal::log_path(&dir)).unwrap();
        let records: Vec<LogRecord> = LogReader::new(&bytes).unwrap().map(|(_, r)| r).collect();
        assert_eq!(records.len(), 3);
        assert!(matches!(records[2], LogRecord::Skip { ts: 2 }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn async_level_flushes_on_drop_and_sync() {
        let dir = tmpdir("async");
        let wal = Wal::open(
            &dir,
            WalConfig {
                level: DurabilityLevel::Wal,
                max_batch: 4,
                ..WalConfig::default()
            },
        )
        .unwrap();
        for i in 0..10 {
            wal.append_commit(i + 1, TxnId(i), &[image(1, 0, i as i64)])
                .unwrap();
        }
        wal.sync().unwrap();
        let bytes = LogReader::read_file(&Wal::log_path(&dir)).unwrap();
        assert_eq!(LogReader::new(&bytes).unwrap().count(), 10);
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_truncates_torn_tail() {
        let dir = tmpdir("torn");
        {
            let wal = Wal::open(&dir, WalConfig::default()).unwrap();
            wal.append_commit(1, TxnId(1), &[image(1, 0, 7)]).unwrap();
            wal.append_commit(2, TxnId(2), &[image(1, 1, 8)]).unwrap();
        }
        let path = Wal::log_path(&dir);
        // Simulate a crash mid-append: garbage tail bytes.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xFF, 0x13, 0x37]).unwrap();
        }
        let wal = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(wal.max_logged_ts(), 2);
        wal.append_commit(3, TxnId(3), &[image(1, 0, 9)]).unwrap();
        drop(wal);
        let bytes = LogReader::read_file(&path).unwrap();
        let mut reader = LogReader::new(&bytes).unwrap();
        let records: Vec<LogRecord> = reader.by_ref().map(|(_, r)| r).collect();
        assert_eq!(records.len(), 3, "torn tail gone, new record readable");
        assert!(!reader.tail_torn());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inline_mode_roundtrip() {
        let dir = tmpdir("inline");
        {
            let wal = Wal::open(
                &dir,
                WalConfig {
                    inline: true,
                    ..WalConfig::default()
                },
            )
            .unwrap();
            wal.append_commit(1, TxnId(1), &[image(1, 0, 11)]).unwrap();
            wal.append_skip(2).unwrap();
            wal.append_commit(3, TxnId(2), &[image(1, 0, 12)]).unwrap();
            wal.sync().unwrap();
            let s = wal.stats().snapshot();
            assert_eq!(s.appends, 3);
            assert!(s.log_fsyncs >= 2, "one fsync per waited commit");
            assert_eq!(s.append_failures, 0);
            assert!(s.log_bytes > 0);
        }
        let wal = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(wal.max_logged_ts(), 3);
        drop(wal);
        let bytes = LogReader::read_file(&Wal::log_path(&dir)).unwrap();
        assert_eq!(LogReader::new(&bytes).unwrap().count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flusher_fault_fails_batch_then_recovers() {
        use finecc_chaos::{ChaosConfig, FaultKind, FaultPlan, FaultSpec, Site};
        let dir = tmpdir("flusher-fault");
        let handle = finecc_chaos::install(ChaosConfig {
            faults: FaultPlan::of([FaultSpec::once(Site::WalFlushFsync, 0, FaultKind::IoError)]),
            ..ChaosConfig::default()
        });
        {
            // Fault-only harness: no scheduling, so the flusher path
            // (not inline mode) is exercised through the token.
            let wal = Wal::open(&dir, WalConfig::default()).unwrap();
            let err = wal
                .append_commit(1, TxnId(1), &[image(1, 0, 1)])
                .expect_err("first batch hits the injected fsync error");
            assert!(err.to_string().contains("rolled back"), "transient: {err}");
            // The log degraded gracefully: the next append succeeds.
            wal.append_commit(2, TxnId(2), &[image(1, 0, 2)]).unwrap();
            let s = wal.stats().snapshot();
            assert_eq!(s.append_failures, 1);
        }
        drop(handle);
        // Only the acked record survived — the failed batch was rewound.
        let bytes = LogReader::read_file(&Wal::log_path(&dir)).unwrap();
        let records: Vec<LogRecord> = LogReader::new(&bytes).unwrap().map(|(_, r)| r).collect();
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0], LogRecord::Commit { ts: 2, .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inline_crash_mid_append_tears_and_poisons() {
        use finecc_chaos::{ChaosConfig, FaultKind, FaultPlan, FaultSpec, Site};
        let dir = tmpdir("inline-crash");
        let handle = finecc_chaos::install(ChaosConfig {
            faults: FaultPlan::of([FaultSpec::once(Site::WalAppend, 1, FaultKind::Crash)]),
            ..ChaosConfig::default()
        });
        {
            let wal = Wal::open(
                &dir,
                WalConfig {
                    inline: true,
                    ..WalConfig::default()
                },
            )
            .unwrap();
            wal.append_commit(1, TxnId(1), &[image(1, 0, 1)]).unwrap();
            wal.append_commit(2, TxnId(2), &[image(1, 0, 2)])
                .expect_err("second append crashes mid-frame");
            assert!(finecc_chaos::crashed());
            wal.append_commit(3, TxnId(3), &[image(1, 0, 3)])
                .expect_err("log poisoned after the crash");
            // Only the crashed append counts: the third was rejected
            // up front by the poison check, no I/O was attempted.
            assert_eq!(wal.stats().snapshot().append_failures, 1);
        }
        drop(handle);
        // Reopen: the torn half-frame is truncated, the acked prefix
        // survives.
        let wal = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(wal.max_logged_ts(), 1);
        drop(wal);
        let bytes = LogReader::read_file(&Wal::log_path(&dir)).unwrap();
        let mut reader = LogReader::new(&bytes).unwrap();
        assert_eq!(reader.by_ref().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn read_log_timestamps(dir: &Path) -> Vec<u64> {
        let bytes = LogReader::read_file(&Wal::log_path(dir)).unwrap();
        LogReader::new(&bytes)
            .unwrap()
            .map(|(_, r)| r.order_ts())
            .collect()
    }

    #[test]
    fn truncate_below_compacts_flusher_and_inline_modes() {
        for inline in [false, true] {
            let dir = tmpdir(if inline {
                "trunc-inline"
            } else {
                "trunc-flush"
            });
            {
                let wal = Wal::open(
                    &dir,
                    WalConfig {
                        inline,
                        ..WalConfig::default()
                    },
                )
                .unwrap();
                for ts in 1..=10u64 {
                    wal.append_commit(ts, TxnId(ts), &[image(1, 0, ts as i64)])
                        .unwrap();
                }
                wal.truncate_below(6).unwrap();
                // The log stays appendable after the handle swap.
                wal.append_commit(11, TxnId(11), &[image(1, 0, 11)])
                    .unwrap();
                let s = wal.stats().snapshot();
                assert_eq!(s.truncations, 1, "inline={inline}");
                assert!(s.truncated_bytes > 0, "inline={inline}");
            }
            assert_eq!(
                read_log_timestamps(&dir),
                vec![6, 7, 8, 9, 10, 11],
                "frames below the floor gone, floor frame kept, inline={inline}"
            );
            // Reopen resumes cleanly on the compacted log.
            let wal = Wal::open(&dir, WalConfig::default()).unwrap();
            assert_eq!(wal.max_logged_ts(), 11);
            drop(wal);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn prune_checkpoints_keeps_newest_and_open_sweeps_stale_tmps() {
        use finecc_model::{FieldType, SchemaBuilder};
        let dir = tmpdir("retain");
        let mut b = SchemaBuilder::new();
        b.class("a").field("x", FieldType::Int);
        let schema = b.finish().unwrap();
        {
            let wal = Wal::open(&dir, WalConfig::default()).unwrap();
            for ts in [1u64, 5, 9] {
                wal.write_checkpoint(&CheckpointData {
                    ckpt_ts: ts,
                    replay_from: ts + 1,
                    next_oid: 1,
                    schema: &schema,
                    instances: vec![],
                })
                .unwrap();
            }
            let removed = wal.prune_checkpoints().unwrap();
            assert_eq!(removed, 1, "3 written, retention keeps 2");
            assert_eq!(wal.stats().snapshot().checkpoints_removed, 1);
            let kept: Vec<u64> = checkpoint::list(&dir)
                .unwrap()
                .into_iter()
                .map(|(ts, _)| ts)
                .collect();
            assert_eq!(kept, vec![5, 9], "the newest two survive");
        }
        // A crash between temp-create and rename leaves a stale tmp;
        // the next open sweeps it (and a stale truncation tmp too).
        let stale = dir.join(format!("{}.tmp", checkpoint::file_name(13)));
        std::fs::write(&stale, b"half a checkpoint").unwrap();
        std::fs::write(dir.join("wal.log.tmp"), b"half a truncation").unwrap();
        let wal = Wal::open(&dir, WalConfig::default()).unwrap();
        assert!(!stale.exists(), "stale checkpoint tmp swept on open");
        assert!(!dir.join("wal.log.tmp").exists(), "stale log tmp swept");
        assert_eq!(
            checkpoint::list(&dir).unwrap().len(),
            2,
            "real checkpoints untouched"
        );
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_batches_concurrent_appends() {
        let dir = tmpdir("group");
        let wal = Arc::new(Wal::open(&dir, WalConfig::default()).unwrap());
        let threads = 8;
        let per = 25u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let wal = Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..per {
                        let ts = 1 + t * per + i;
                        wal.append_commit(ts, TxnId(t), &[image(t, 0, ts as i64)])
                            .unwrap();
                    }
                });
            }
        });
        let s = wal.stats().snapshot();
        assert_eq!(s.appends, threads * per);
        assert_eq!(s.group_commit_records, threads * per);
        assert!(
            s.log_fsyncs <= s.appends,
            "group commit never syncs more than once per record"
        );
        drop(wal);
        let bytes = LogReader::read_file(&Wal::log_path(&dir)).unwrap();
        assert_eq!(
            LogReader::new(&bytes).unwrap().count() as u64,
            threads * per
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
