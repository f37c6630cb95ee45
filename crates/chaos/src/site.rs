//! Named yield-point and fault-injection sites.

/// A named point in the engine where the deterministic scheduler may
/// preempt the running thread ([`crate::yield_point`]) or the fault
/// plane may fire ([`crate::fault_at`] / [`crate::disabled_at`]).
///
/// Sites are the harness's vocabulary: schedules are sequences of
/// decisions taken *at* sites, fault specs name the site they arm, and
/// trace events record which site each decision was taken at. Every
/// site sits outside the mvcc heap's chain-shard latches (a thread
/// parked while holding one would stall the token scheduler), and the
/// mvcc **read path deliberately has no site** — reads must stay
/// probe-free even with the harness compiled in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Site {
    /// Executor: before a worker starts its next transaction.
    TxnStart = 0,
    /// Retry loop: one unit of deterministic backoff after an abort.
    TxnBackoff = 1,
    /// Lock manager: entry to `acquire` (latch-acquisition stalls).
    LockAcquire = 2,
    /// Lock manager: one pass of the blocked-waiter loop.
    LockWait = 3,
    /// Mvcc heap: before installing a pending version (write path,
    /// ahead of every latch).
    WriteInstall = 4,
    /// Mvcc commit: before the commit timestamp is drawn.
    CommitTsDraw = 5,
    /// Mvcc commit: after the draw, before the write-ahead-log append.
    CommitWalAppend = 6,
    /// Mvcc commit: before the watermark publication.
    CommitPublish = 7,
    /// Mvcc commit: the read-your-own-commits publication barrier,
    /// which a refused commit's skip also waits behind
    /// (`FaultKind::Disable` here skips the barrier — the known-bug
    /// regression lever).
    CommitPublishWait = 8,
    /// Watermark: one spin of `wait_published`.
    WatermarkWait = 9,
    /// Watermark: one spin of the publication ring's overflow wait.
    WatermarkPublish = 10,
    /// Mvcc heap: before a reclamation batch or a full GC sweep prunes
    /// version chains.
    Reclaim = 11,
    /// WAL: before an inline-mode append claims the file.
    WalAppend = 12,
    /// WAL: before an inline-mode fsync.
    WalFsync = 13,
    /// WAL: group-commit flusher, before writing a batch.
    WalFlushWrite = 14,
    /// WAL: group-commit flusher, before syncing a batch.
    WalFlushFsync = 15,
    /// Checkpoint writer: before the image is encoded.
    CkptEncode = 16,
    /// Checkpoint writer: before the temp file is written.
    CkptTmpWrite = 17,
    /// Checkpoint writer: before the temp file's fsync.
    CkptFsync = 18,
    /// Checkpoint writer: before the rename into place.
    CkptRename = 19,
    /// Checkpoint writer: before the directory fsync that persists the
    /// rename (a crash here may lose the just-renamed dirent).
    CkptDirFsync = 20,
    /// Recovery: before a checkpoint file is read and decoded.
    RecoverCkptDecode = 21,
    /// Recovery: before each log frame is read during replay.
    RecoverScan = 22,
    /// Recovery: before each decoded record is applied to the store.
    RecoverApply = 23,
}

/// Number of distinct sites (sizes the per-site hit counters).
pub const SITE_COUNT: usize = 24;

impl Site {
    /// Every site, indexable by discriminant.
    pub const ALL: [Site; SITE_COUNT] = [
        Site::TxnStart,
        Site::TxnBackoff,
        Site::LockAcquire,
        Site::LockWait,
        Site::WriteInstall,
        Site::CommitTsDraw,
        Site::CommitWalAppend,
        Site::CommitPublish,
        Site::CommitPublishWait,
        Site::WatermarkWait,
        Site::WatermarkPublish,
        Site::Reclaim,
        Site::WalAppend,
        Site::WalFsync,
        Site::WalFlushWrite,
        Site::WalFlushFsync,
        Site::CkptEncode,
        Site::CkptTmpWrite,
        Site::CkptFsync,
        Site::CkptRename,
        Site::CkptDirFsync,
        Site::RecoverCkptDecode,
        Site::RecoverScan,
        Site::RecoverApply,
    ];

    /// The checkpoint-writer fault sites, in pipeline order (encode,
    /// temp write, temp fsync, rename, directory fsync) — the sweep
    /// vocabulary for crash-during-checkpoint exploration.
    pub const CHECKPOINT: [Site; 5] = [
        Site::CkptEncode,
        Site::CkptTmpWrite,
        Site::CkptFsync,
        Site::CkptRename,
        Site::CkptDirFsync,
    ];

    /// The recovery-replay fault sites, in pipeline order (checkpoint
    /// decode, frame scan, record apply) — the sweep vocabulary for
    /// crash-during-recovery exploration.
    pub const RECOVERY: [Site; 3] = [
        Site::RecoverCkptDecode,
        Site::RecoverScan,
        Site::RecoverApply,
    ];

    /// Stable name, used by repro files and traces.
    pub fn name(self) -> &'static str {
        match self {
            Site::TxnStart => "txn_start",
            Site::TxnBackoff => "txn_backoff",
            Site::LockAcquire => "lock_acquire",
            Site::LockWait => "lock_wait",
            Site::WriteInstall => "write_install",
            Site::CommitTsDraw => "commit_ts_draw",
            Site::CommitWalAppend => "commit_wal_append",
            Site::CommitPublish => "commit_publish",
            Site::CommitPublishWait => "commit_publish_wait",
            Site::WatermarkWait => "watermark_wait",
            Site::WatermarkPublish => "watermark_publish",
            Site::Reclaim => "reclaim",
            Site::WalAppend => "wal_append",
            Site::WalFsync => "wal_fsync",
            Site::WalFlushWrite => "wal_flush_write",
            Site::WalFlushFsync => "wal_flush_fsync",
            Site::CkptEncode => "ckpt_encode",
            Site::CkptTmpWrite => "ckpt_tmp_write",
            Site::CkptFsync => "ckpt_fsync",
            Site::CkptRename => "ckpt_rename",
            Site::CkptDirFsync => "ckpt_dir_fsync",
            Site::RecoverCkptDecode => "recover_ckpt_decode",
            Site::RecoverScan => "recover_scan",
            Site::RecoverApply => "recover_apply",
        }
    }

    /// Parses a [`Site::name`] back (repro-file loading).
    pub fn from_name(name: &str) -> Option<Site> {
        Site::ALL.into_iter().find(|s| s.name() == name)
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_indices_are_dense() {
        for (i, site) in Site::ALL.into_iter().enumerate() {
            assert_eq!(site.index(), i);
            assert_eq!(Site::from_name(site.name()), Some(site));
        }
        assert_eq!(Site::from_name("nope"), None);
    }
}
