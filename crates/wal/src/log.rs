//! The append pipeline: one staging buffer, a paced flusher, group
//! commit.
//!
//! An appender takes **one short latch**, encodes its frame straight
//! from the borrowed write projection into the **staging buffer**
//! (no owned record, no per-record allocation), and leaves: at
//! [`DurabilityLevel::Wal`] a commit is a memcpy and makes no syscall.
//! A record's **LSN** is the staging position just past it. The
//! flusher swaps the staging buffer for a spare (under the same
//! latch), issues **one** `write_all` and at most **one** `fsync` for
//! the whole batch, and publishes `written_lsn` / `synced_lsn` —
//! classic group commit: whatever accumulated while the previous batch
//! was on its way to the disk shares the next write and the next sync.
//!
//! The flusher is **paced, not poked**. With nobody waiting it lets a
//! [`FLUSH_TICK`] of records accumulate, so records reach the OS
//! within one tick or one full buffer, whichever comes first. An
//! appender wakes it only
//!
//! * when somebody will wait on the result — a commit at
//!   [`DurabilityLevel::WalSync`], [`Wal::sync`],
//!   [`Wal::truncate_below`] — which then blocks until `synced_lsn`
//!   reaches its LSN (the group-commit ack);
//! * when staging is full ([`STAGING_CAPACITY`]): the appender waits
//!   for the swap — back-pressure, and the bound on a batch;
//! * when the log was idle (the flusher sleeps untimed on an empty
//!   buffer and the first record after the lull arms the tick).
//!
//! [`WalStats`]'s `flusher_wakes` counts these; a per-record wake-up
//! would show there.
//!
//! Failure model: a write or fsync error fails every record of the
//! affected batch — each waiter whose LSN falls in the batch gets an
//! error and its transaction rolls back — and the file is **rewound**
//! to the batch's start so the on-disk log stays exactly the acked
//! prefix. When the rewind succeeds and nobody was told the batch's
//! records were logged, the failure is transient: later batches
//! proceed normally (graceful, batch-granular degradation). When the
//! batch held a commit, create or delete record that was acked without
//! a waiter (at [`DurabilityLevel::Wal`], acked once staged), later
//! batches would land behind a hole in the acked history, so the log
//! is poisoned instead — as it is when the rewind itself fails or a
//! simulated crash fired — and every in-flight and future append
//! fails. Either way the file stays prefix-consistent: batches are
//! written in LSN order and a torn tail is detected (checksums) and
//! truncated on the next open.
//!
//! Deterministic testing: [`WalConfig::inline`] — forced on while a
//! `finecc_chaos` *scheduled* session is installed — starts no flusher
//! thread; every append runs the **same** flush step itself, on the
//! appending thread, before it returns (and reports the step's outcome
//! even below `WalSync`). Fault probes go through a
//! [`finecc_chaos::FaultToken`] captured at open time, at
//! [`Site::WalAppend`] / [`Site::WalFsync`] inline and
//! [`Site::WalFlushWrite`] / [`Site::WalFlushFsync`] on the flusher,
//! so injected flusher faults fire deterministically even though the
//! flusher is a background thread.
//!
//! **Truncation & retention** ([`Wal::truncate_below`],
//! [`Wal::prune_checkpoints`]): after a durable checkpoint at
//! `ckpt_ts`, the heap truncates every log frame whose replay
//! timestamp is strictly below `ckpt_ts` — never at or above it, so no
//! frame a future recovery could replay is ever lost (`recovery_floor`
//! is always ≥ `ckpt_ts + 1`) — and deletes checkpoints beyond the
//! newest [`RETAIN_CHECKPOINTS`], both strictly *after* the
//! new checkpoint's rename is directory-fsynced. The truncation itself
//! is atomic (rewrite the retained suffix to a temp file, fsync,
//! rename, directory fsync): a crash anywhere leaves either the old
//! log or the compacted one, both of which replay to the same state on
//! top of the new checkpoint. It runs under the file latch every flush
//! step takes, so it serializes with in-flight batches.

use crate::checkpoint::{self, CheckpointData};
use crate::record::{self, LogRecord, LOG_MAGIC};
use crate::stats::WalStats;
use finecc_chaos::{FaultKind, FaultToken, Site};
use finecc_model::{ClassId, Oid, TxnId};
use finecc_obs::{Obs, Phase};
use finecc_store::FieldImage;
use parking_lot::{Condvar, Mutex};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// Run the flush step (write and, at [`DurabilityLevel::WalSync`],
    /// fsync) on the appending thread, once per append, instead of
    /// leaving it to the flusher. No group commit, so it is slower —
    /// but fully deterministic, which is why a `finecc_chaos` scheduled
    /// session forces it on regardless of this flag: injected faults
    /// then land at exact points of the explored schedule.
    pub inline: bool,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            level: DurabilityLevel::WalSync,
            inline: false,
        }
    }
}

/// How many checkpoint files [`Wal::prune_checkpoints`] keeps: the
/// newest plus one fallback in case the newest is found corrupt at
/// recovery.
pub const RETAIN_CHECKPOINTS: usize = 2;

/// Bytes the staging buffer holds before appenders wait for the
/// flusher to take it — the back-pressure bound, and so the bound on
/// one group-commit batch (a single larger frame is still accepted,
/// into an empty buffer). 1 MiB is some 16,000 single-field commit
/// records: twenty ticks of the fastest two-client run measured, so
/// back-pressure engages only when the disk falls behind.
pub const STAGING_CAPACITY: usize = 1 << 20;

/// How long the flusher lets records accumulate when nobody waits on
/// them. A constant, not an option, chosen from a measured sweep on
/// `durable-update` (`tps.tav`, three 18 s runs each; README,
/// *Write-ahead log*): 0.2 ms reads 671k — five times the wake-ups and
/// `write(2)`s on a box whose two cores the clients want — 1 ms 730k,
/// and 5 ms 736k, under 1 % more for five times the records a crash
/// at `wal` level would lose.
pub const FLUSH_TICK: Duration = Duration::from_millis(1);

/// Everything an append touches, behind one latch.
struct Staging {
    /// Encoded frames no flush step has taken yet.
    buf: Vec<u8>,
    /// LSN just past the last staged item. Every staged byte advances
    /// it by one and every byte-less barrier ([`Wal::sync`]) by one
    /// too, so each waiter's LSN lies strictly inside its batch.
    end_lsn: u64,
    /// Frames in `buf`.
    records: u64,
    /// Callers that will wait for the outcome of the batch being
    /// staged.
    waiters: u32,
    /// One of them needs the batch fsynced, not just written.
    sync: bool,
    /// A commit, create or delete record of the batch was acked
    /// without waiting for it: losing the batch poisons the log.
    unwaited: bool,
    /// The flusher must not sleep out its tick: somebody waits, or
    /// staging is full.
    urgent: bool,
    /// The flusher sleeps untimed on an empty buffer; the next appender
    /// wakes it.
    idle: bool,
    /// The log is shutting down: nothing staged from here on would
    /// ever be written.
    closed: bool,
}

/// What a flush step took out of [`Staging`] (the bytes travel in
/// [`LogFile::spare`]).
struct Batch {
    /// The batch covers LSNs `(start_lsn, end_lsn]`.
    start_lsn: u64,
    end_lsn: u64,
    records: u64,
    waiters: u32,
    sync: bool,
    unwaited: bool,
}

/// The log file and what only the holder of its latch touches: flush
/// steps and truncations serialize here.
struct LogFile {
    file: File,
    /// The buffer swapped against [`Staging::buf`]; empty between
    /// steps.
    spare: Vec<u8>,
    /// End LSN of the last batch taken.
    taken_lsn: u64,
}

/// What waiters read — the gate.
#[derive(Default)]
struct Progress {
    /// Every batch up to here was written to the file, or failed.
    written_lsn: u64,
    /// Every batch up to here was fsynced, or failed.
    synced_lsn: u64,
    /// Failed batches some waiter has not yet been told about. A
    /// thread waits on one LSN at a time, so this never outgrows the
    /// number of threads.
    failed: Vec<FailedBatch>,
}

struct FailedBatch {
    start_lsn: u64,
    end_lsn: u64,
    /// Waiters still to collect this failure.
    waiters: u32,
}

struct Shared {
    staging: Mutex<Staging>,
    /// Parks the flusher (with the staging latch).
    wake: Condvar,
    /// Parks appenders that found staging full (same latch).
    room: Condvar,
    file: Mutex<LogFile>,
    progress: Mutex<Progress>,
    /// Parks waiters until `progress` moves.
    acked: Condvar,
    /// Poisoned: a failed batch could not be rewound, or a simulated
    /// crash fired.
    failed: AtomicBool,
    stats: WalStats,
    obs: Arc<Obs>,
    /// Captured at open, on the opening (chaos-eligible) thread: the
    /// flusher is a background thread the harness knows nothing about.
    token: Option<FaultToken>,
    /// The fault sites the flush step probes before its write and its
    /// fsync.
    sites: (Site, Site),
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
    /// Highest commit/skip timestamp found in the log at open time.
    max_logged_ts: u64,
    /// `None` in inline mode: appends run the flush step themselves.
    flusher: Option<std::thread::JoinHandle<()>>,
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

impl Shared {
    fn poisoned(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Wakes the flusher if it would otherwise sleep through what was
    /// just staged: always out of its idle sleep, and — when `urgent`
    /// — out of its tick. Called with the staging latch held, so the
    /// flusher cannot miss it; at most one wake-up per batch.
    fn wake_flusher(&self, st: &mut Staging, urgent: bool) {
        if st.idle || (urgent && !st.urgent) {
            st.idle = false;
            st.urgent |= urgent;
            self.wake.notify_one();
            self.stats.flusher_wakes.bump();
        }
    }

    /// One group-commit round: takes whatever is staged, writes it with
    /// one `write_all`, fsyncs at most once, publishes the outcome.
    /// Runs on the flusher thread — in inline mode, on the appending
    /// thread. Taking the file latch *before* the swap keeps concurrent
    /// steps (inline mode) in LSN order.
    fn flush(&self) {
        let mut log = self.file.lock();
        let batch = {
            let mut st = self.staging.lock();
            st.urgent = false;
            if st.buf.is_empty() && st.waiters == 0 {
                return;
            }
            std::mem::swap(&mut st.buf, &mut log.spare);
            self.stats.queue_depth.set(0);
            self.room.notify_all();
            Batch {
                start_lsn: std::mem::replace(&mut log.taken_lsn, st.end_lsn),
                end_lsn: st.end_lsn,
                records: std::mem::take(&mut st.records),
                waiters: std::mem::take(&mut st.waiters),
                sync: std::mem::take(&mut st.sync),
                unwaited: std::mem::take(&mut st.unwaited),
            }
        };
        let LogFile { file, spare, .. } = &mut *log;
        let ok = self.write_batch(file, spare, &batch);
        spare.clear();
        let mut p = self.progress.lock();
        p.written_lsn = batch.end_lsn;
        if batch.sync || !ok {
            p.synced_lsn = batch.end_lsn;
        }
        if !ok && batch.waiters > 0 {
            p.failed.push(FailedBatch {
                start_lsn: batch.start_lsn,
                end_lsn: batch.end_lsn,
                waiters: batch.waiters,
            });
        }
        self.acked.notify_all();
    }

    /// Writes (and, if asked, fsyncs) one batch. On failure the file is
    /// rewound to the batch's start, so none of its records survives
    /// into recovery. A clean rewind of a batch none of whose records
    /// was acked makes the failure transient — the next batch proceeds
    /// normally; a failed rewind, a simulated crash, or a batch holding
    /// a record acked without a waiter poisons the log for good (later
    /// batches would otherwise land behind a hole in what was acked).
    /// An injected crash before the write leaves what a power cut
    /// would: half of the batch's first frame, a torn tail the next
    /// open truncates.
    fn write_batch(&self, file: &mut File, bytes: &[u8], batch: &Batch) -> bool {
        if self.poisoned() {
            return false;
        }
        let probe = |site| self.token.as_ref().and_then(|t| t.fault_at(site));
        let start_pos = file.stream_position().unwrap_or(u64::MAX);
        let mut crash = false;
        let mut torn = false;
        let mut ok = true;
        if !bytes.is_empty() {
            ok = match probe(self.sites.0) {
                Some(FaultKind::IoError) => false,
                Some(FaultKind::Crash) => {
                    let body_len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
                    let _ = file.write_all(&bytes[..(8 + body_len as usize) / 2]);
                    let _ = file.sync_data();
                    crash = true;
                    torn = true;
                    false
                }
                _ => file.write_all(bytes).is_ok(),
            };
        }
        if ok && batch.sync {
            ok = match probe(self.sites.1) {
                Some(FaultKind::IoError) => false,
                Some(FaultKind::Crash) => {
                    crash = true;
                    false
                }
                _ => {
                    let synced = file.sync_data().is_ok();
                    if synced {
                        self.stats.log_fsyncs.bump();
                    }
                    synced
                }
            };
        }
        if ok {
            self.stats.log_bytes.add(bytes.len() as u64);
            if batch.records > 0 {
                self.stats.batch_hist.record(batch.records);
            }
            return true;
        }
        self.stats.append_failures.add(batch.records);
        let rolled_back = !torn
            && start_pos != u64::MAX
            && file.set_len(start_pos).is_ok()
            && file.seek(SeekFrom::Start(start_pos)).is_ok()
            && file.sync_data().is_ok();
        if crash || !rolled_back || batch.unwaited {
            self.failed.store(true, Ordering::Release);
        }
        false
    }

    /// Blocks until the batch holding `lsn` has an outcome: written —
    /// or, for a `durable` waiter, fsynced — or failed. No timed wait:
    /// every flush step publishes under the gate and notifies.
    fn wait_outcome(&self, lsn: u64, durable: bool) -> io::Result<()> {
        let mut p = self.progress.lock();
        loop {
            let hit = p
                .failed
                .iter()
                .position(|f| f.start_lsn < lsn && lsn <= f.end_lsn);
            if let Some(i) = hit {
                p.failed[i].waiters -= 1;
                if p.failed[i].waiters == 0 {
                    p.failed.swap_remove(i);
                }
                // Permanent poison and a transient batch failure look
                // the same from here; the shared flag tells them apart.
                return Err(if self.poisoned() {
                    poisoned()
                } else {
                    io::Error::other("write-ahead log batch failed and was rolled back (retryable)")
                });
            }
            let reached = if durable { p.synced_lsn } else { p.written_lsn };
            if reached >= lsn {
                return Ok(());
            }
            self.acked.wait(&mut p);
        }
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
    /// into [`Phase::GroupCommitAck`] and the flush step emits `fsync`
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
                let mut stream = record::FrameStream::open(&path)?;
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
        let inline = config.inline || finecc_chaos::scheduled_session();
        let shared = Arc::new(Shared {
            staging: Mutex::new(Staging {
                buf: Vec::new(),
                end_lsn: 0,
                records: 0,
                waiters: 0,
                sync: false,
                unwaited: false,
                urgent: false,
                idle: false,
                closed: false,
            }),
            wake: Condvar::new(),
            room: Condvar::new(),
            file: Mutex::new(LogFile {
                file,
                spare: Vec::new(),
                taken_lsn: 0,
            }),
            progress: Mutex::new(Progress::default()),
            acked: Condvar::new(),
            failed: AtomicBool::new(false),
            stats: WalStats::default(),
            obs,
            token: finecc_chaos::fault_token(),
            sites: if inline {
                (Site::WalAppend, Site::WalFsync)
            } else {
                (Site::WalFlushWrite, Site::WalFlushFsync)
            },
        });
        let flusher = if inline {
            None
        } else {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("finecc-wal-flusher".into())
                    .spawn(move || flusher_loop(&shared))?,
            )
        };
        Ok(Wal {
            shared,
            dir,
            level: config.level,
            max_logged_ts,
            flusher,
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

    /// Stages one item — a frame of exactly `len` bytes that `encode`
    /// appends, or with `len == 0` a byte-less barrier — and, when the
    /// caller must learn the outcome, waits for it: a `durable` item at
    /// [`DurabilityLevel::WalSync`] (and any barrier) until it is
    /// fsynced; in inline mode every item, until the flush step this
    /// call runs itself is through. `encode` runs under the staging
    /// latch, after room is assured, so whatever it draws (a commit
    /// sequence) is in staging order. A `durable` frame nobody waits
    /// for is acked once staged: the batch it lands in must not fail
    /// quietly.
    fn append(
        &self,
        len: usize,
        durable: bool,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> io::Result<()> {
        let shared = &*self.shared;
        let inline = self.flusher.is_none();
        if inline && len > 0 {
            // A scheduling decision *before* taking the latch: a
            // scheduled worker must never be preempted while holding a
            // mutex another worker can block on.
            finecc_chaos::yield_point(Site::WalAppend);
        }
        let record = durable && len > 0;
        let durable = durable && (len == 0 || self.level == DurabilityLevel::WalSync);
        let waits = durable || inline;
        let lsn = {
            let mut st = shared.staging.lock();
            loop {
                if st.closed || shared.poisoned() {
                    return Err(poisoned());
                }
                if st.buf.is_empty() || st.buf.len() + len <= STAGING_CAPACITY {
                    break;
                }
                shared.wake_flusher(&mut st, true);
                shared.room.wait(&mut st);
            }
            let start = st.buf.len();
            encode(&mut st.buf);
            debug_assert_eq!(
                st.buf.len() - start,
                len,
                "frame length precomputed exactly"
            );
            st.end_lsn += len.max(1) as u64;
            if len > 0 {
                st.records += 1;
                shared.stats.note_staged(st.records, durable);
            }
            if waits {
                st.waiters += 1;
                st.sync |= durable;
            }
            st.unwaited |= record && !waits;
            shared.wake_flusher(&mut st, waits && !inline);
            st.end_lsn
        };
        if !waits {
            return Ok(());
        }
        // The group-commit ack is a commit's wait, not a barrier's.
        let wait_start = if durable && len > 0 {
            shared.obs.clock()
        } else {
            None
        };
        if inline {
            shared.flush();
        }
        shared.wait_outcome(lsn, durable)?;
        shared.obs.record_since(Phase::GroupCommitAck, wait_start);
        Ok(())
    }

    fn append_record(&self, rec: &LogRecord, durable: bool) -> io::Result<()> {
        self.append(record::frame_len(rec), durable, |out| {
            record::put_frame(out, rec)
        })
    }

    /// Appends a commit record — the transaction's *Write*-projection
    /// after-images at its commit timestamp — and, at
    /// [`DurabilityLevel::WalSync`], returns only once the record is
    /// fsynced (the group-commit ack).
    pub fn append_commit(&self, ts: u64, txn: TxnId, writes: &[FieldImage]) -> io::Result<()> {
        self.append_commit_with(|| ts, txn, writes).map(drop)
    }

    /// [`Wal::append_commit`] with the commit timestamp drawn by `draw`
    /// **inside the staging latch**, at the moment the record takes its
    /// place in the log; returns what was drawn. A scheme whose commit
    /// order is the draw order (the lock schemes' commit sequence) gets
    /// a log in strictly increasing timestamp order this way, however
    /// long a client is preempted around the call. `draw` is not called
    /// when the log refuses the record up front (poisoned).
    pub fn append_commit_with(
        &self,
        draw: impl FnOnce() -> u64,
        txn: TxnId,
        writes: &[FieldImage],
    ) -> io::Result<u64> {
        let mut drawn = 0;
        self.append(record::commit_frame_len(writes), true, |out| {
            drawn = draw();
            record::put_commit_frame(out, drawn, txn, writes);
        })?;
        Ok(drawn)
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
        self.append_record(&LogRecord::Skip { ts }, false)
    }

    /// Appends an object-creation record.
    pub fn append_create(&self, as_of: u64, oid: Oid, class: ClassId) -> io::Result<()> {
        self.append_record(&LogRecord::Create { as_of, oid, class }, true)
    }

    /// Appends an object-deletion record.
    pub fn append_delete(&self, as_of: u64, oid: Oid) -> io::Result<()> {
        self.append_record(&LogRecord::Delete { as_of, oid }, true)
    }

    /// Drains staging and fsyncs, regardless of level — the graceful
    /// flush (tests and shutdown paths call it; dropping the log does
    /// the same). A barrier in the LSN order: it returns once
    /// everything staged before it is on disk.
    pub fn sync(&self) -> io::Result<()> {
        self.append(0, true, |_| {})
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

    /// Refuses, with [`io::ErrorKind::InvalidInput`], a directory with
    /// history — a commit or skip logged before this open, or a checkpoint. A
    /// store that was not recovered from that history must not append
    /// to it: the two incarnations would interleave (colliding OIDs, a
    /// checkpoint that contradicts the live state, new commits replayed
    /// onto the old base). The one check every scheme's fresh attach
    /// makes; a directory with history is resumed through recovery
    /// instead.
    pub fn ensure_fresh(&self) -> io::Result<()> {
        if self.max_logged_ts > 0 || self.has_checkpoint()? {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "log directory has prior history; recover it (finecc_wal::recover_database \
                 + Env::resume_wal, or MvccHeap::recover) or use a fresh directory",
            ));
        }
        Ok(())
    }

    /// Applies the retention policy: deletes all but the newest
    /// [`RETAIN_CHECKPOINTS`] checkpoint files. Callers
    /// sequence this after [`Wal::write_checkpoint`] returned — the new
    /// checkpoint's rename is directory-fsynced by then, so a crash
    /// mid-prune still leaves a durable checkpoint. Returns how many
    /// files were removed.
    pub fn prune_checkpoints(&self) -> io::Result<u64> {
        let removed = checkpoint::retain(&self.dir, RETAIN_CHECKPOINTS)?;
        if removed > 0 {
            self.shared.stats.checkpoints_removed.add(removed);
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
    /// directory entry). Everything staged before the call is synced
    /// into the file first ([`Wal::sync`]); the rewrite then holds the
    /// file latch, so it is serialized against batch writes.
    pub fn truncate_below(&self, floor: u64) -> io::Result<()> {
        self.sync()?;
        let mut log = self.shared.file.lock();
        if self.shared.poisoned() {
            return Err(poisoned());
        }
        rewrite_log(&self.dir, floor)
            .and_then(|removed| {
                // The compacted log landed; if the handle swap fails the
                // old handle points at the unlinked inode, and nothing
                // written through it would survive.
                log.file = reopen_log_end(&self.dir).map_err(|e| (e, true))?;
                self.shared.stats.sample_truncation(removed);
                Ok(())
            })
            .map_err(|(e, poison)| {
                if poison {
                    self.shared.failed.store(true, Ordering::Release);
                }
                e
            })
    }

    /// Stops accepting appends and tells the flusher to drain and
    /// exit ([`Drop`]'s first half).
    fn close(&self) {
        let mut st = self.shared.staging.lock();
        st.closed = true;
        st.idle = false;
        self.shared.wake.notify_one();
        self.shared.room.notify_all();
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
        let mut frame = Vec::new();
        let mut stream = record::FrameStream::open(&path).map_err(io::Error::from)?;
        while let Some((_, rec)) = stream.next_record().map_err(io::Error::from)? {
            if rec.order_ts() >= floor {
                frame.clear();
                record::put_frame(&mut frame, &rec);
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
        self.close();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
        // Graceful shutdown: everything staged was written; leave the
        // file synced even at async levels (best-effort — the log may
        // be poisoned by an injected crash).
        let _ = self.shared.file.lock().file.sync_data();
    }
}

/// The flusher thread: flush when somebody waits or staging is full,
/// otherwise once a [`FLUSH_TICK`]; sleep untimed while nothing is
/// staged.
fn flusher_loop(shared: &Shared) {
    let mut st = shared.staging.lock();
    loop {
        if st.buf.is_empty() && !st.urgent && !st.closed {
            st.idle = true;
            shared.wake.wait(&mut st);
            st.idle = false;
        }
        if !st.urgent && !st.closed {
            shared.wake.wait_for(&mut st, FLUSH_TICK);
        }
        let closed = st.closed;
        drop(st);
        shared.flush();
        if closed {
            // `close` ran before this step's swap and nothing is staged
            // after it: the log is drained.
            return;
        }
        st = shared.staging.lock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FrameStream;
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
        let (records, _) = read_log(&dir);
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
                ..WalConfig::default()
            },
        )
        .unwrap();
        // Three staging buffers' worth of records, eight to a buffer:
        // the capacity — not a knob — bounds the batch, so nothing
        // waits on a commit and yet no batch outgrows it.
        let per_buffer = 8;
        let text = "x".repeat(STAGING_CAPACITY / per_buffer - 64);
        let writes = [FieldImage {
            oid: Oid(1),
            field: finecc_model::FieldId(0),
            value: Value::str(&text),
        }];
        let total = 3 * per_buffer as u64;
        for i in 0..total {
            wal.append_commit(i + 1, TxnId(i), &writes).unwrap();
        }
        wal.sync().unwrap();
        let s = wal.stats().snapshot();
        assert!(s.group_commit_batches >= 3, "{s:?}");
        assert!(s.group_commit_max <= per_buffer as u64, "{s:?}");
        assert_eq!(s.queue_depth, 0);
        assert_eq!(read_log_timestamps(&dir).len() as u64, total);
        // Nobody syncs the last two: dropping the log does.
        wal.append_commit(total + 1, TxnId(0), &writes).unwrap();
        wal.append_skip(total + 2).unwrap();
        drop(wal);
        assert_eq!(read_log_timestamps(&dir).len() as u64, total + 2);
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
        let (records, torn) = read_log(&dir);
        assert_eq!(records.len(), 3, "torn tail gone, new record readable");
        assert!(!torn);
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
        assert_eq!(read_log(&dir).0.len(), 3);
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
        let (records, _) = read_log(&dir);
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0], LogRecord::Commit { ts: 2, .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_batch_of_unwaited_commits_leaves_no_hole_behind_later_ones() {
        use finecc_chaos::{ChaosConfig, FaultKind, FaultPlan, FaultSpec, Site};
        let dir = tmpdir("wal-hole");
        let handle = finecc_chaos::install(ChaosConfig {
            faults: FaultPlan::of([FaultSpec::once(Site::WalFlushWrite, 0, FaultKind::IoError)]),
            ..ChaosConfig::default()
        });
        {
            // At `wal` level a commit is acked once staged, so the
            // write fault at the flusher's first batch fails a record
            // its committer was already told is logged.
            let wal = Wal::open(
                &dir,
                WalConfig {
                    level: DurabilityLevel::Wal,
                    ..WalConfig::default()
                },
            )
            .unwrap();
            wal.append_commit(1, TxnId(1), &[image(1, 0, 1)]).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            let second = wal.append_commit(2, TxnId(2), &[image(1, 0, 2)]);
            let synced = wal.sync();
            assert!(
                second.is_err() || synced.is_err(),
                "the log carried on past a lost acked commit"
            );
        }
        drop(handle);
        let logged = read_log_timestamps(&dir);
        assert!([1, 2].starts_with(&logged), "not a prefix: {logged:?}");
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
        assert_eq!(read_log(&dir).0.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The log's intact records in file order, and whether its tail is
    /// torn.
    fn read_log(dir: &Path) -> (Vec<LogRecord>, bool) {
        let mut stream = FrameStream::open(&Wal::log_path(dir)).unwrap();
        let records = stream.by_ref().map(|frame| frame.unwrap().1).collect();
        (records, stream.tail_torn())
    }

    fn read_log_timestamps(dir: &Path) -> Vec<u64> {
        read_log(dir).0.iter().map(LogRecord::order_ts).collect()
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
        assert_eq!(read_log(&dir).0.len() as u64, threads * per);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_and_appends_on_a_poisoned_log_fail_fast() {
        use finecc_chaos::{ChaosConfig, FaultPlan, FaultSpec};
        let dir = tmpdir("poisoned");
        let handle = finecc_chaos::install(ChaosConfig {
            faults: FaultPlan::of([FaultSpec::once(Site::WalFlushFsync, 0, FaultKind::Crash)]),
            ..ChaosConfig::default()
        });
        let wal = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append_commit(1, TxnId(1), &[image(1, 0, 1)])
            .expect_err("the crash at the first fsync fails the batch");
        for err in [
            wal.sync().expect_err("sync on a poisoned log"),
            wal.truncate_below(0).expect_err("truncation too"),
            wal.append_commit(2, TxnId(2), &[image(1, 0, 2)])
                .expect_err("and every later append"),
        ] {
            assert!(err.to_string().contains("poisoned"), "{err}");
        }
        drop(wal);
        drop(handle);
        // The crashed batch was rewound: nothing unacked survives.
        assert!(read_log_timestamps(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_after_shutdown_began_are_refused_not_parked() {
        for level in [DurabilityLevel::Wal, DurabilityLevel::WalSync] {
            let dir = tmpdir(&format!("closed-{}", level.name()));
            let wal = Wal::open(
                &dir,
                WalConfig {
                    level,
                    ..WalConfig::default()
                },
            )
            .unwrap();
            wal.append_commit(1, TxnId(1), &[image(1, 0, 1)]).unwrap();
            // What `Drop` does first; the flusher is gone after it, so a
            // record staged now would never be written and a waiter on
            // it would never wake.
            wal.close();
            wal.append_commit(2, TxnId(2), &[image(1, 0, 2)])
                .expect_err("append after close");
            wal.append_skip(3).expect_err("skip after close");
            wal.sync().expect_err("sync after close");
            drop(wal);
            assert_eq!(read_log_timestamps(&dir), vec![1], "{level}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// `FINECC_TEST_THREADS` appenders against one async log, with
    /// records big enough that staging fills many times over: staged
    /// bytes never exceed the capacity (sampled under the latch all
    /// along), every record lands exactly once, and the queue drains.
    #[test]
    fn staging_storm_respects_capacity_and_drains() {
        let threads = finecc_obs::test_threads() as u64;
        let per = 400u64;
        let dir = tmpdir("storm");
        let wal = Wal::open(
            &dir,
            WalConfig {
                level: DurabilityLevel::Wal,
                ..WalConfig::default()
            },
        )
        .unwrap();
        let text = "y".repeat(4000);
        let done = AtomicBool::new(false);
        let mut peak = 0;
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (wal, text) = (&wal, &text);
                    s.spawn(move || {
                        let writes = [FieldImage {
                            oid: Oid(t),
                            field: finecc_model::FieldId(0),
                            value: Value::str(text),
                        }];
                        for i in 0..per {
                            wal.append_commit(1 + t * per + i, TxnId(t), &writes)
                                .unwrap();
                        }
                    })
                })
                .collect();
            let sampler = s.spawn(|| {
                let mut peak = 0;
                while !done.load(Ordering::Acquire) {
                    peak = peak.max(wal.shared.staging.lock().buf.len());
                    std::thread::yield_now();
                }
                peak
            });
            for w in workers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Release);
            peak = sampler.join().unwrap();
        });
        assert!(peak <= STAGING_CAPACITY, "staged {peak} bytes");
        assert!(
            threads * per * 4000 > 2 * STAGING_CAPACITY as u64,
            "the storm must overflow staging to mean anything"
        );
        wal.sync().unwrap();
        let s = wal.stats().snapshot();
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.appends, threads * per);
        assert_eq!(s.group_commit_records, threads * per);
        let file_len = std::fs::metadata(Wal::log_path(&dir)).unwrap().len();
        assert_eq!(s.log_bytes, file_len - LOG_MAGIC.len() as u64);
        drop(wal);
        let mut seen = read_log_timestamps(&dir);
        seen.sort_unstable();
        assert_eq!(seen, (1..=threads * per).collect::<Vec<u64>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log the parent commit (PR 18, the Treiber-stack pipeline)
    /// wrote: `create 1, create 2, commit 1 (int, string, bool), skip
    /// 2, commit 3 (float, nil, ref), commit 4 (no writes), delete 2`
    /// at `wal-sync`.
    const PR18_LOG: &[u8] = include_bytes!("../tests/fixtures/pr18-wal.log");

    #[test]
    fn logs_are_byte_compatible_with_the_parent_pipeline() {
        // Frame by frame, the encoder reproduces the fixture …
        let resume = tmpdir("compat-resume");
        std::fs::create_dir_all(&resume).unwrap();
        std::fs::write(Wal::log_path(&resume), PR18_LOG).unwrap();
        let old: Vec<(u64, LogRecord)> = FrameStream::open(&Wal::log_path(&resume))
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(old.len(), 7);
        let mut start = LOG_MAGIC.len();
        for (end, rec) in &old {
            let end = *end as usize;
            assert_eq!(record::encode_frame(rec), PR18_LOG[start..end], "{rec:?}");
            assert_eq!(record::frame_len(rec), end - start, "{rec:?}");
            start = end;
        }
        assert_eq!(start, PR18_LOG.len(), "no torn tail in the fixture");
        // … the same appends through the new pipeline write the same
        // file, at either level, flusher or inline …
        for (level, inline) in [
            (DurabilityLevel::WalSync, false),
            (DurabilityLevel::Wal, false),
            (DurabilityLevel::WalSync, true),
        ] {
            let dir = tmpdir("compat-fresh");
            let wal = Wal::open(&dir, WalConfig { level, inline }).unwrap();
            for (_, rec) in &old {
                match rec {
                    LogRecord::Commit { ts, txn, writes } => wal.append_commit(*ts, *txn, writes),
                    LogRecord::Skip { ts } => wal.append_skip(*ts),
                    LogRecord::Create { as_of, oid, class } => {
                        wal.append_create(*as_of, *oid, *class)
                    }
                    LogRecord::Delete { as_of, oid } => wal.append_delete(*as_of, *oid),
                }
                .unwrap();
            }
            drop(wal);
            let written = std::fs::read(Wal::log_path(&dir)).unwrap();
            assert_eq!(written, PR18_LOG, "{level} inline={inline}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        // … and the parent's file itself resumes under the new code:
        // appended to, truncated (a rewrite of every kept frame), and
        // still byte-identical in what it kept.
        let dir = resume;
        let wal = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(wal.max_logged_ts(), 4);
        wal.append_commit(5, TxnId(11), &[image(1, 0, 5)]).unwrap();
        wal.truncate_below(0).unwrap();
        drop(wal);
        let resumed = std::fs::read(Wal::log_path(&dir)).unwrap();
        assert_eq!(resumed[..PR18_LOG.len()], *PR18_LOG);
        let (records, _) = read_log(&dir);
        assert_eq!(records.len(), 8);
        assert!(matches!(records[7], LogRecord::Commit { ts: 5, .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
