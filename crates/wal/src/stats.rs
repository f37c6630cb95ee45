//! Write-ahead-log statistics: the durability counterpart of
//! `MvccStats`/`LockStats` — experiments report all three side by side.
//!
//! Group-commit batch sizes are kept as a full log-bucketed
//! [`Histogram`] rather than a running mean: a cumulative average hides
//! exactly the tail behavior group commit exists to shape (a flood of
//! 1-record batches under low concurrency, rare huge batches under
//! contention). The legacy `group_commit_batches` / `group_commit_records`
//! / `mean_group_commit` snapshot fields are *derived* from the
//! histogram (count / sum), bit-exact with what the old counters held,
//! so bench JSON written against them is unchanged.

use finecc_obs::{Collector, HistSnapshot, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters of a [`crate::Wal`].
#[derive(Debug, Default)]
pub struct WalStats {
    appends: AtomicU64,
    log_bytes: AtomicU64,
    log_fsyncs: AtomicU64,
    /// Records per group-commit round, full distribution.
    batch_hist: Histogram,
    /// Records staged but not yet taken by a flush step — the live
    /// flusher queue depth.
    queue_depth: AtomicU64,
    sync_waits: AtomicU64,
    flusher_wakes: AtomicU64,
    append_failures: AtomicU64,
    recovery_replayed: AtomicU64,
    recovery_bytes: AtomicU64,
    recovery_peak_reorder: AtomicU64,
    truncations: AtomicU64,
    truncated_bytes: AtomicU64,
    checkpoints_removed: AtomicU64,
}

impl WalStats {
    /// Counts one staged record; `queue_depth` is the staging buffer's
    /// record count. Called **under the staging latch**, which makes
    /// the caller the only writer of these three: plain load + store,
    /// no locked read-modify-write on the append path.
    pub(crate) fn note_staged(&self, queue_depth: u64, waits_for_sync: bool) {
        let bump = |c: &AtomicU64| c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        bump(&self.appends);
        if waits_for_sync {
            bump(&self.sync_waits);
        }
        self.queue_depth.store(queue_depth, Ordering::Relaxed);
    }

    /// Sets the queue-depth gauge (under the staging latch, see
    /// [`WalStats::note_staged`]).
    pub(crate) fn set_queue_depth(&self, n: u64) {
        self.queue_depth.store(n, Ordering::Relaxed);
    }

    pub(crate) fn bump_flusher_wakes(&self) {
        self.flusher_wakes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_log_bytes(&self, n: u64) {
        self.log_bytes.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn bump_log_fsyncs(&self) {
        self.log_fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn sample_batch(&self, records: u64) {
        self.batch_hist.record(records);
    }

    pub(crate) fn add_append_failures(&self, n: u64) {
        self.append_failures.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn sample_truncation(&self, bytes_removed: u64) {
        self.truncations.fetch_add(1, Ordering::Relaxed);
        self.truncated_bytes
            .fetch_add(bytes_removed, Ordering::Relaxed);
    }

    pub(crate) fn add_checkpoints_removed(&self, n: u64) {
        self.checkpoints_removed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records how many log records the recovery that produced this
    /// log's owner replayed (set once by `MvccHeap::recover` and the
    /// scheme-level recovery paths).
    pub fn set_recovery_replayed(&self, n: u64) {
        self.recovery_replayed.store(n, Ordering::Relaxed);
    }

    /// Records the full recovery progress facts: frames replayed, log
    /// bytes scanned, and the peak occupancy of the streaming replay's
    /// reorder window.
    pub fn set_recovery_progress(&self, frames: u64, bytes_scanned: u64, peak_reorder: u64) {
        self.recovery_replayed.store(frames, Ordering::Relaxed);
        self.recovery_bytes.store(bytes_scanned, Ordering::Relaxed);
        self.recovery_peak_reorder
            .store(peak_reorder, Ordering::Relaxed);
    }

    /// The full group-commit batch-size distribution (the snapshot's
    /// quantile fields are derived from this).
    pub fn batch_snapshot(&self) -> HistSnapshot {
        self.batch_hist.snapshot()
    }

    /// Snapshots all counters.
    pub fn snapshot(&self) -> WalStatsSnapshot {
        let batches = self.batch_hist.snapshot();
        WalStatsSnapshot {
            appends: self.appends.load(Ordering::Relaxed),
            log_bytes: self.log_bytes.load(Ordering::Relaxed),
            log_fsyncs: self.log_fsyncs.load(Ordering::Relaxed),
            group_commit_batches: batches.count(),
            group_commit_records: batches.sum(),
            group_commit_max: batches.max(),
            group_commit_p50: batches.value_at_quantile(0.50),
            group_commit_p90: batches.value_at_quantile(0.90),
            group_commit_p99: batches.value_at_quantile(0.99),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            sync_waits: self.sync_waits.load(Ordering::Relaxed),
            flusher_wakes: self.flusher_wakes.load(Ordering::Relaxed),
            append_failures: self.append_failures.load(Ordering::Relaxed),
            recovery_replayed: self.recovery_replayed.load(Ordering::Relaxed),
            recovery_bytes: self.recovery_bytes.load(Ordering::Relaxed),
            recovery_peak_reorder: self.recovery_peak_reorder.load(Ordering::Relaxed),
            truncations: self.truncations.load(Ordering::Relaxed),
            truncated_bytes: self.truncated_bytes.load(Ordering::Relaxed),
            checkpoints_removed: self.checkpoints_removed.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.appends.store(0, Ordering::Relaxed);
        self.log_bytes.store(0, Ordering::Relaxed);
        self.log_fsyncs.store(0, Ordering::Relaxed);
        self.batch_hist.reset();
        // queue_depth deliberately survives: it tracks records in
        // flight, which a stats reset does not drain.
        self.sync_waits.store(0, Ordering::Relaxed);
        self.flusher_wakes.store(0, Ordering::Relaxed);
        self.append_failures.store(0, Ordering::Relaxed);
        self.recovery_replayed.store(0, Ordering::Relaxed);
        self.recovery_bytes.store(0, Ordering::Relaxed);
        self.recovery_peak_reorder.store(0, Ordering::Relaxed);
        self.truncations.store(0, Ordering::Relaxed);
        self.truncated_bytes.store(0, Ordering::Relaxed);
        self.checkpoints_removed.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`WalStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStatsSnapshot {
    /// Records enqueued (commit + skip + extent records).
    pub appends: u64,
    /// Bytes written to the log file (frame headers included).
    pub log_bytes: u64,
    /// `fsync` calls issued by the flusher.
    pub log_fsyncs: u64,
    /// Group-commit rounds the flusher ran (one write+optional-fsync
    /// cycle each) — the batch histogram's count.
    pub group_commit_batches: u64,
    /// Records drained across all group-commit rounds — the batch
    /// histogram's sum; divided by `group_commit_batches` this is the
    /// mean group-commit size.
    pub group_commit_records: u64,
    /// Largest single group-commit batch (exact).
    pub group_commit_max: u64,
    /// Median group-commit batch size (log-bucketed, never an
    /// overestimate).
    pub group_commit_p50: u64,
    /// 90th-percentile batch size.
    pub group_commit_p90: u64,
    /// 99th-percentile batch size — the tail the mean hides.
    pub group_commit_p99: u64,
    /// Records staged but not yet taken by a flush step at snapshot
    /// time (a gauge, not a counter).
    pub queue_depth: u64,
    /// Appends that blocked waiting for their durability ack
    /// (`WalSync` only).
    pub sync_waits: u64,
    /// Times an appender woke the flusher instead of leaving the batch
    /// to its tick: somebody waits on the result, staging was full, or
    /// the log had been idle. A count near `appends` means the
    /// per-record wake-up is back.
    pub flusher_wakes: u64,
    /// Records whose append or fsync failed (real I/O errors and
    /// injected faults). The waiters saw a retryable error; the log
    /// rewound the failed batch and kept going unless the rewind
    /// itself failed (permanent poison).
    pub append_failures: u64,
    /// Log records replayed by the recovery that produced this log's
    /// heap (0 on a fresh database).
    pub recovery_replayed: u64,
    /// Log bytes the recovery scan walked (tail included).
    pub recovery_bytes: u64,
    /// Peak occupancy of streaming recovery's reorder window.
    pub recovery_peak_reorder: u64,
    /// Log truncations performed (one per post-checkpoint compaction).
    pub truncations: u64,
    /// Bytes the truncations removed from the log file.
    pub truncated_bytes: u64,
    /// Old checkpoint files deleted by the retention policy.
    pub checkpoints_removed: u64,
}

impl WalStatsSnapshot {
    /// Mean records per group-commit round (derived, for bench JSON
    /// compatibility with the pre-histogram counter pair).
    pub fn mean_group_commit(&self) -> f64 {
        if self.group_commit_batches == 0 {
            0.0
        } else {
            self.group_commit_records as f64 / self.group_commit_batches as f64
        }
    }

    /// The difference `self - earlier`, counter-wise (saturating;
    /// `recovery_*`, `queue_depth`, the batch maximum and quantiles
    /// are kept, not differenced — recovery facts, a gauge, and
    /// distribution shapes that cannot be windowed after the fact).
    pub fn since(&self, earlier: &WalStatsSnapshot) -> WalStatsSnapshot {
        WalStatsSnapshot {
            appends: self.appends.saturating_sub(earlier.appends),
            log_bytes: self.log_bytes.saturating_sub(earlier.log_bytes),
            log_fsyncs: self.log_fsyncs.saturating_sub(earlier.log_fsyncs),
            group_commit_batches: self
                .group_commit_batches
                .saturating_sub(earlier.group_commit_batches),
            group_commit_records: self
                .group_commit_records
                .saturating_sub(earlier.group_commit_records),
            group_commit_max: self.group_commit_max,
            group_commit_p50: self.group_commit_p50,
            group_commit_p90: self.group_commit_p90,
            group_commit_p99: self.group_commit_p99,
            queue_depth: self.queue_depth,
            sync_waits: self.sync_waits.saturating_sub(earlier.sync_waits),
            flusher_wakes: self.flusher_wakes.saturating_sub(earlier.flusher_wakes),
            append_failures: self.append_failures.saturating_sub(earlier.append_failures),
            recovery_replayed: self.recovery_replayed,
            recovery_bytes: self.recovery_bytes,
            recovery_peak_reorder: self.recovery_peak_reorder,
            truncations: self.truncations.saturating_sub(earlier.truncations),
            truncated_bytes: self.truncated_bytes.saturating_sub(earlier.truncated_bytes),
            checkpoints_removed: self
                .checkpoints_removed
                .saturating_sub(earlier.checkpoints_removed),
        }
    }

    /// Emits every field under stable `finecc.wal.*` names.
    pub fn collect_metrics(&self, c: &mut Collector) {
        c.counter("finecc.wal.appends", self.appends);
        c.counter("finecc.wal.log_bytes", self.log_bytes);
        c.counter("finecc.wal.log_fsyncs", self.log_fsyncs);
        c.counter("finecc.wal.group_commit.batches", self.group_commit_batches);
        c.counter("finecc.wal.group_commit.records", self.group_commit_records);
        c.gauge("finecc.wal.group_commit.max", self.group_commit_max as f64);
        c.gauge("finecc.wal.group_commit.p50", self.group_commit_p50 as f64);
        c.gauge("finecc.wal.group_commit.p90", self.group_commit_p90 as f64);
        c.gauge("finecc.wal.group_commit.p99", self.group_commit_p99 as f64);
        c.gauge("finecc.wal.group_commit.mean", self.mean_group_commit());
        c.gauge("finecc.wal.queue_depth", self.queue_depth as f64);
        c.counter("finecc.wal.sync_waits", self.sync_waits);
        c.counter("finecc.wal.flusher_wakes", self.flusher_wakes);
        c.counter("finecc.wal.append_failures", self.append_failures);
        c.counter(
            "finecc.wal.recovery.frames_replayed",
            self.recovery_replayed,
        );
        c.counter("finecc.wal.recovery.bytes_scanned", self.recovery_bytes);
        c.gauge(
            "finecc.wal.recovery.peak_reorder",
            self.recovery_peak_reorder as f64,
        );
        c.counter("finecc.wal.truncations", self.truncations);
        c.counter("finecc.wal.truncated_bytes", self.truncated_bytes);
        c.counter("finecc.wal.checkpoints_removed", self.checkpoints_removed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_mean_and_reset() {
        let s = WalStats::default();
        s.note_staged(1, false);
        s.set_queue_depth(0);
        s.sample_batch(3);
        s.sample_batch(5);
        let snap = s.snapshot();
        assert_eq!(snap.appends, 1);
        assert_eq!(snap.mean_group_commit(), 4.0);
        assert_eq!(snap.group_commit_max, 5);
        s.reset();
        assert_eq!(s.snapshot(), WalStatsSnapshot::default());
        assert_eq!(s.snapshot().mean_group_commit(), 0.0);
    }

    #[test]
    fn since_diffs() {
        let a = WalStatsSnapshot {
            appends: 2,
            log_bytes: 100,
            ..Default::default()
        };
        let b = WalStatsSnapshot {
            appends: 5,
            log_bytes: 350,
            group_commit_max: 9,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.appends, 3);
        assert_eq!(d.log_bytes, 250);
        assert_eq!(d.group_commit_max, 9);
    }

    #[test]
    fn batch_histogram_derives_legacy_fields_and_quantiles() {
        let s = WalStats::default();
        // 99 singleton batches and one of 64: the mean hides the tail,
        // the p99 does not.
        for _ in 0..99 {
            s.sample_batch(1);
        }
        s.sample_batch(64);
        let snap = s.snapshot();
        assert_eq!(snap.group_commit_batches, 100);
        assert_eq!(snap.group_commit_records, 99 + 64);
        assert_eq!(snap.group_commit_max, 64);
        assert_eq!(snap.mean_group_commit(), 1.63);
        assert_eq!(snap.group_commit_p50, 1);
        assert_eq!(snap.group_commit_p99, 1);
        // The full distribution is available behind the snapshot.
        let hist = s.batch_snapshot();
        assert_eq!(hist.count(), 100);
        assert_eq!(hist.value_at_quantile(1.0), 64);
    }

    #[test]
    fn queue_depth_tracks_enter_exit() {
        let s = WalStats::default();
        s.note_staged(1, false);
        s.note_staged(2, true);
        s.note_staged(3, true);
        let snap = s.snapshot();
        assert_eq!((snap.queue_depth, snap.appends, snap.sync_waits), (3, 3, 2));
        s.set_queue_depth(0);
        assert_eq!(s.snapshot().queue_depth, 0);
    }

    #[test]
    fn recovery_progress_is_a_fact_not_a_counter() {
        let s = WalStats::default();
        s.set_recovery_progress(10, 2048, 4);
        let snap = s.snapshot();
        assert_eq!(snap.recovery_replayed, 10);
        assert_eq!(snap.recovery_bytes, 2048);
        assert_eq!(snap.recovery_peak_reorder, 4);
        // since() keeps recovery facts rather than differencing them.
        let kept = snap.since(&snap);
        assert_eq!(kept.recovery_replayed, 10);
        assert_eq!(kept.recovery_bytes, 2048);
    }
}
