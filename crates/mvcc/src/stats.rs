//! MVCC statistics, declared once (`finecc_obs::counters!`): the
//! optimistic-scheme counterpart of `finecc_lock::LockStats` —
//! experiments report the two side by side.

finecc_obs::counters! {
    /// Live counters of an [`crate::MvccHeap`].
    pub struct MvccStats {}
    /// A point-in-time copy of [`MvccStats`].
    pub struct MvccStatsSnapshot;
    pub(crate) cells {
        /// Transactions begun.
        begins: Counter "finecc.mvcc.begins",
        /// Transactions committed.
        commits: Counter "finecc.mvcc.commits",
        /// Transactions aborted (all causes).
        aborts: Counter "finecc.mvcc.aborts",
        /// Writes refused by first-updater-wins validation.
        write_conflicts: Counter "finecc.mvcc.write_conflicts",
        /// Commits refused by SSI dangerous-structure validation (zero at
        /// [`crate::IsolationLevel::Snapshot`]).
        ssi_aborts: Counter "finecc.mvcc.ssi_aborts",
        /// rw-antidependency edges observed by the SSI tracker (zero at
        /// [`crate::IsolationLevel::Snapshot`]).
        ssi_edges: Counter "finecc.mvcc.ssi_edges",
        /// Commit timestamps drawn from the clock but published as *skips*
        /// because SSI validation refused the transaction after the draw.
        /// The watermark prefix stays contiguous: `current_ts` equals
        /// writer commits + skips once all transactions have finished.
        ts_skips: Counter "finecc.mvcc.ts_skips",
        /// Snapshot field reads served.
        snapshot_reads: Counter "finecc.mvcc.snapshot_reads",
        /// Snapshot reads answered entirely from a version chain: no
        /// base-store access.
        read_chain_hits: Counter "finecc.mvcc.read_chain_hits",
        /// Snapshot reads that missed the chains (no record covers the
        /// field) and paid exactly one base-store `RwLock::read`.
        read_base_loads: Counter "finecc.mvcc.read_base_loads",
        /// Commit publications that hit the watermark ring's overflow
        /// fallback (more in-flight commits than ring slots).
        watermark_waits: Counter "finecc.mvcc.watermark_waits",
        /// Version records installed.
        versions_created: Counter "finecc.mvcc.versions_created",
        /// Version records reclaimed — by epoch GC or discarded by abort
        /// rollback. After a full GC with no live transactions this equals
        /// [`MvccStatsSnapshot::versions_created`].
        versions_reclaimed: Counter "finecc.mvcc.versions_reclaimed",
        /// Sum of chain lengths sampled at each write.
        chain_len_sum: Counter,
        /// Number of chain-length samples.
        chain_len_samples: Counter,
        /// Longest chain observed at a write.
        chain_len_max: Gauge "finecc.mvcc.chain_len_max",
    }
    ratios {
        /// Mean version-chain length observed at writes.
        mean_chain_len: chain_len_sum / chain_len_samples "finecc.mvcc.chain_len_mean",
    }
}

impl MvccStats {
    pub(crate) fn sample_chain_len(&self, len: u64) {
        self.chain_len_sum.add(len);
        self.chain_len_samples.bump();
        self.chain_len_max.max(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reset_and_mean() {
        let s = MvccStats::default();
        s.commits.bump();
        s.sample_chain_len(2);
        s.sample_chain_len(4);
        let snap = s.snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.mean_chain_len(), 3.0);
        assert_eq!(snap.chain_len_max, 4);
        // There is no `reset`: a baseline snapshot and `since` play it
        // (a maximum is kept, not differenced).
        let fresh = s.snapshot().since(&snap);
        assert_eq!((fresh.commits, fresh.chain_len_max), (0, 4));
        assert_eq!(fresh.mean_chain_len(), 0.0);
    }

    #[test]
    fn since_diffs() {
        let a = MvccStatsSnapshot {
            commits: 5,
            write_conflicts: 1,
            ..Default::default()
        };
        let b = MvccStatsSnapshot {
            commits: 9,
            write_conflicts: 4,
            chain_len_max: 7,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.commits, 4);
        assert_eq!(d.write_conflicts, 3);
        assert_eq!(d.chain_len_max, 7);
    }
}
