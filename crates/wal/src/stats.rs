//! Write-ahead-log statistics, declared once (`finecc_obs::counters!`):
//! the durability counterpart of `MvccStats`/`LockStats` — experiments
//! report all three side by side.
//!
//! Group-commit batch sizes are kept as a full log-bucketed
//! [`Histogram`] rather than a running mean: a cumulative average hides
//! exactly the tail behavior group commit exists to shape (a flood of
//! 1-record batches under low concurrency, rare huge batches under
//! contention). The `group_commit_*` snapshot fields are *derived* from
//! the histogram (count, sum, max, quantiles).

use finecc_obs::Histogram;

finecc_obs::counters! {
    /// Live counters of a [`crate::Wal`].
    pub struct WalStats {
        /// Records per group-commit round, full distribution.
        pub(crate) batch_hist: Histogram,
    }
    /// A point-in-time copy of [`WalStats`].
    pub struct WalStatsSnapshot;
    pub(crate) cells {
        /// Records enqueued (commit + skip + extent records).
        appends: Counter "finecc.wal.appends",
        /// Bytes written to the log file (frame headers included).
        log_bytes: Counter "finecc.wal.log_bytes",
        /// `fsync` calls issued by the flusher.
        log_fsyncs: Counter "finecc.wal.log_fsyncs",
        /// Records staged but not yet taken by a flush step at snapshot
        /// time — the live flusher queue depth.
        queue_depth: Gauge "finecc.wal.queue_depth",
        /// Appends that blocked waiting for their durability ack
        /// (`WalSync` only).
        sync_waits: Counter "finecc.wal.sync_waits",
        /// Times an appender woke the flusher instead of leaving the batch
        /// to its tick: somebody waits on the result, staging was full, or
        /// the log had been idle. A count near `appends` means the
        /// per-record wake-up is back.
        flusher_wakes: Counter "finecc.wal.flusher_wakes",
        /// Records whose append or fsync failed (real I/O errors and
        /// injected faults). The waiters saw a retryable error; the log
        /// rewound the failed batch and kept going unless the rewind
        /// itself failed (permanent poison).
        append_failures: Counter "finecc.wal.append_failures",
        /// Log records replayed by the recovery that produced this log's
        /// heap (0 on a fresh database) — a fact set once, like the two
        /// below, not a running count.
        recovery_replayed: Gauge "finecc.wal.recovery.frames_replayed",
        /// Log bytes the recovery scan walked (tail included).
        recovery_bytes: Gauge "finecc.wal.recovery.bytes_scanned",
        /// Peak occupancy of streaming recovery's reorder window.
        recovery_peak_reorder: Gauge "finecc.wal.recovery.peak_reorder",
        /// Log truncations performed (one per post-checkpoint compaction).
        truncations: Counter "finecc.wal.truncations",
        /// Bytes the truncations removed from the log file.
        truncated_bytes: Counter "finecc.wal.truncated_bytes",
        /// Old checkpoint files deleted by the retention policy.
        checkpoints_removed: Counter "finecc.wal.checkpoints_removed",
    }
    derived by fill_batches {
        /// Group-commit rounds the flusher ran (one write+optional-fsync
        /// cycle each) — the batch histogram's count.
        group_commit_batches: Counter "finecc.wal.group_commit.batches",
        /// Records drained across all group-commit rounds — the batch
        /// histogram's sum.
        group_commit_records: Counter "finecc.wal.group_commit.records",
        /// Largest single group-commit batch (exact).
        group_commit_max: Gauge "finecc.wal.group_commit.max",
        /// Median group-commit batch size (log-bucketed, never an
        /// overestimate).
        group_commit_p50: Gauge "finecc.wal.group_commit.p50",
        /// 90th-percentile batch size.
        group_commit_p90: Gauge "finecc.wal.group_commit.p90",
        /// 99th-percentile batch size — the tail the mean hides.
        group_commit_p99: Gauge "finecc.wal.group_commit.p99",
    }
    ratios {
        /// Mean records per group-commit round.
        mean_group_commit: group_commit_records / group_commit_batches "finecc.wal.group_commit.mean",
    }
}

impl WalStats {
    /// Counts one staged record; `queue_depth` is the staging buffer's
    /// record count. Called under the staging latch; the two counts
    /// land on the appending thread's own stripes.
    pub(crate) fn note_staged(&self, queue_depth: u64, waits_for_sync: bool) {
        self.appends.bump();
        if waits_for_sync {
            self.sync_waits.bump();
        }
        self.queue_depth.set(queue_depth);
    }

    pub(crate) fn sample_truncation(&self, bytes_removed: u64) {
        self.truncations.bump();
        self.truncated_bytes.add(bytes_removed);
    }

    /// Records the recovery progress facts: frames replayed, log bytes
    /// scanned, and the peak occupancy of the streaming replay's
    /// reorder window (set once by whoever recovered this log's owner).
    pub fn set_recovery_progress(&self, frames: u64, bytes_scanned: u64, peak_reorder: u64) {
        self.recovery_replayed.set(frames);
        self.recovery_bytes.set(bytes_scanned);
        self.recovery_peak_reorder.set(peak_reorder);
    }

    fn fill_batches(&self, s: &mut WalStatsSnapshot) {
        let batches = self.batch_hist.snapshot();
        s.group_commit_batches = batches.count();
        s.group_commit_records = batches.sum();
        s.group_commit_max = batches.max();
        s.group_commit_p50 = batches.value_at_quantile(0.50);
        s.group_commit_p90 = batches.value_at_quantile(0.90);
        s.group_commit_p99 = batches.value_at_quantile(0.99);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_mean_and_reset() {
        let s = WalStats::default();
        s.note_staged(1, false);
        s.queue_depth.set(0);
        s.batch_hist.record(3);
        s.batch_hist.record(5);
        let snap = s.snapshot();
        assert_eq!(snap.appends, 1);
        assert_eq!(snap.mean_group_commit(), 4.0);
        assert_eq!(snap.group_commit_max, 5);
        // There is no `reset`: a baseline snapshot and `since` play it
        // (the batch maximum is a distribution shape, kept).
        let fresh = s.snapshot().since(&snap);
        assert_eq!((fresh.appends, fresh.group_commit_max), (0, 5));
        assert_eq!(fresh.mean_group_commit(), 0.0);
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
            s.batch_hist.record(1);
        }
        s.batch_hist.record(64);
        let snap = s.snapshot();
        assert_eq!(snap.group_commit_batches, 100);
        assert_eq!(snap.group_commit_records, 99 + 64);
        assert_eq!(snap.group_commit_max, 64);
        assert_eq!(snap.mean_group_commit(), 1.63);
        assert_eq!(snap.group_commit_p50, 1);
        assert_eq!(snap.group_commit_p99, 1);
        assert_eq!(snap.group_commit_p90, 1);
    }

    #[test]
    fn queue_depth_tracks_enter_exit() {
        let s = WalStats::default();
        s.note_staged(1, false);
        s.note_staged(2, true);
        s.note_staged(3, true);
        let snap = s.snapshot();
        assert_eq!((snap.queue_depth, snap.appends, snap.sync_waits), (3, 3, 2));
        s.queue_depth.set(0);
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
