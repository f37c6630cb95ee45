//! Concurrent and sequential workload execution.

use crate::workload::TxnOp;
use finecc_runtime::{run_txn, CcScheme, TxnOutcome};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Worker threads.
    pub threads: usize,
    /// Deadlock retries per transaction before giving up.
    pub max_retries: u32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 4,
            max_retries: 10,
        }
    }
}

/// Aggregate result of an execution run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecReport {
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that exhausted their deadlock retries.
    pub exhausted: u64,
    /// Transactions that failed with a non-retryable error.
    pub failed: u64,
    /// Total deadlock retries across all transactions.
    pub retries: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Lock-manager statistics accumulated during the run.
    pub lock: finecc_lock::StatsSnapshot,
    /// Version-heap statistics accumulated during the run (`None` for
    /// the pure locking schemes).
    pub mvcc: Option<finecc_mvcc::MvccStatsSnapshot>,
    /// Write-ahead-log statistics accumulated during the run (`None`
    /// at `DurabilityLevel::None`).
    pub wal: Option<finecc_wal::WalStatsSnapshot>,
    /// Observability report for the run: latency histograms by phase,
    /// hottest objects, and contention-class totals. All zero (and
    /// `enabled == false`) unless the scheme's environment carries an
    /// enabled `finecc_obs::Obs`.
    pub obs: finecc_obs::ObsReport,
}

impl ExecReport {
    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            0.0
        } else {
            self.committed as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// First-updater-wins write-write conflicts during the run (0 for
    /// lock schemes).
    pub fn ww_conflicts(&self) -> u64 {
        self.mvcc.map_or(0, |m| m.write_conflicts)
    }

    /// Commits refused by SSI dangerous-structure validation during the
    /// run — the distinct abort class of the `mvcc-ssi` scheme (0 for
    /// every other scheme).
    pub fn ssi_aborts(&self) -> u64 {
        self.mvcc.map_or(0, |m| m.ssi_aborts)
    }

    /// Latch-free-read miss-revalidation retries during the run (0 for
    /// lock schemes) — one of the mvcc read path's contention
    /// counters.
    pub fn read_retries(&self) -> u64 {
        self.mvcc.map_or(0, |m| m.read_retries)
    }

    /// Registers a **frozen** metric source over this finished run:
    /// run-level outcome counters (`finecc.run.*`) plus everything the
    /// report carries — the observability phases (cumulative and
    /// windowed), contention totals, decayed hot scores, lock-manager
    /// counters, and the mvcc / WAL blocks when the scheme has them —
    /// under the same dotted names the live sources use, so a scrape of
    /// a finished run reads exactly like a scrape of a live one. The
    /// report is `Copy` and the closure owns it, so the run's scheme and
    /// environment can be dropped.
    pub fn register_metrics(&self, reg: &finecc_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        let r = *self;
        reg.register_fn(labels, move |c: &mut finecc_obs::Collector| {
            c.counter("finecc.run.committed", r.committed);
            c.counter("finecc.run.exhausted", r.exhausted);
            c.counter("finecc.run.failed", r.failed);
            c.counter("finecc.run.retries", r.retries);
            c.gauge("finecc.run.elapsed_ms", r.elapsed.as_secs_f64() * 1e3);
            c.gauge("finecc.run.txns_per_sec", r.throughput());
            r.obs.collect_metrics(c);
            r.lock.collect_metrics(c);
            if let Some(m) = &r.mvcc {
                m.collect_metrics(c);
            }
            if let Some(w) = &r.wal {
                w.collect_metrics(c);
            }
        });
    }
}

/// Runs the workload across `cfg.threads` workers (ops are dealt
/// round-robin), with per-transaction deadlock retry. Lock statistics are
/// measured relative to the scheme's counters at entry.
pub fn run_concurrent(scheme: &dyn CcScheme, ops: &[TxnOp], cfg: ExecConfig) -> ExecReport {
    let before = scheme.stats();
    let mvcc_before = scheme.mvcc_stats();
    let wal_before = scheme.env().wal_stats();
    let obs_before = scheme.env().obs.snapshot();
    let committed = AtomicU64::new(0);
    let exhausted = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..cfg.threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ops.len() {
                    break;
                }
                let op = &ops[i];
                match run_txn(scheme, cfg.max_retries, |txn| op.run(scheme, txn)) {
                    TxnOutcome::Committed { retries: r, .. } => {
                        committed.fetch_add(1, Ordering::Relaxed);
                        retries.fetch_add(u64::from(r), Ordering::Relaxed);
                    }
                    TxnOutcome::Exhausted { retries: r } => {
                        exhausted.fetch_add(1, Ordering::Relaxed);
                        retries.fetch_add(u64::from(r), Ordering::Relaxed);
                    }
                    TxnOutcome::Failed(_) => {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let elapsed = start.elapsed();
    // Drain the group-commit flusher before the WAL snapshot: at the
    // async level acked commits may still be in flight, and a report
    // claiming "nothing logged" for a committed workload would be a
    // timing artifact. The drain sits outside the timed window — async
    // ack latency is the point of that level. Best-effort: a poisoned
    // log keeps whatever counters it reached.
    if let Some(w) = &scheme.env().wal {
        let _ = w.sync();
    }

    ExecReport {
        committed: committed.into_inner(),
        exhausted: exhausted.into_inner(),
        failed: failed.into_inner(),
        retries: retries.into_inner(),
        elapsed,
        lock: scheme.stats().since(&before),
        mvcc: scheme
            .mvcc_stats()
            .map(|after| after.since(&mvcc_before.unwrap_or_default())),
        wal: scheme
            .env()
            .wal_stats()
            .map(|after| after.since(&wal_before.unwrap_or_default())),
        obs: scheme.env().obs.report_since(&obs_before),
    }
}

/// Deterministic single-threaded execution (ops in order).
pub fn run_sequential(scheme: &dyn CcScheme, ops: &[TxnOp], max_retries: u32) -> ExecReport {
    run_concurrent(
        scheme,
        ops,
        ExecConfig {
            threads: 1,
            max_retries,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{
        generate_env, generate_workload, populate_random, SchemaGenConfig, WorkloadConfig,
    };
    use finecc_runtime::SchemeKind;

    fn workload_env() -> finecc_runtime::Env {
        let env = generate_env(&SchemaGenConfig {
            classes: 6,
            seed: 17,
            ..SchemaGenConfig::default()
        });
        populate_random(&env, 4);
        env
    }

    #[test]
    fn sequential_commits_everything() {
        let env = workload_env();
        let wl = generate_workload(
            &env,
            &WorkloadConfig {
                txns: 100,
                seed: 1,
                ..WorkloadConfig::default()
            },
        );
        let scheme = SchemeKind::Tav.build(env);
        let r = run_sequential(scheme.as_ref(), &wl.ops, 5);
        assert_eq!(r.committed, 100);
        assert_eq!(r.failed, 0);
        assert_eq!(r.exhausted, 0);
        assert!(r.lock.requests > 0);
    }

    #[test]
    fn concurrent_all_schemes_complete() {
        for kind in SchemeKind::ALL {
            let env = workload_env();
            let wl = generate_workload(
                &env,
                &WorkloadConfig {
                    txns: 200,
                    seed: 2,
                    ..WorkloadConfig::default()
                },
            );
            let scheme = kind.build(env);
            let r = run_concurrent(
                scheme.as_ref(),
                &wl.ops,
                ExecConfig {
                    threads: 4,
                    max_retries: 20,
                },
            );
            assert_eq!(r.failed, 0, "{kind}: non-retryable failures");
            assert_eq!(
                r.committed + r.exhausted,
                200,
                "{kind}: every txn accounted for"
            );
            assert!(
                r.committed >= 190,
                "{kind}: unexpectedly many exhausted txns ({r:?})"
            );
        }
    }

    #[test]
    fn mvcc_reports_version_stats_and_lock_schemes_dont() {
        let env = workload_env();
        let wl = generate_workload(
            &env,
            &WorkloadConfig {
                txns: 100,
                seed: 4,
                ..WorkloadConfig::default()
            },
        );
        let scheme = SchemeKind::Mvcc.build(env);
        let r = run_concurrent(scheme.as_ref(), &wl.ops, ExecConfig::default());
        let m = r.mvcc.expect("mvcc scheme reports heap stats");
        assert_eq!(m.commits, r.committed, "every commit is a heap commit");
        assert!(m.versions_created > 0);
        assert_eq!(
            r.lock,
            finecc_lock::StatsSnapshot::default(),
            "snapshot reads and optimistic writes take no locks"
        );

        let env = workload_env();
        let scheme = SchemeKind::Tav.build(env);
        let r = run_sequential(scheme.as_ref(), &wl.ops, 5);
        assert!(r.mvcc.is_none(), "lock schemes have no version heap");
    }

    #[test]
    fn throughput_is_positive() {
        let env = workload_env();
        let wl = generate_workload(
            &env,
            &WorkloadConfig {
                txns: 50,
                seed: 3,
                ..WorkloadConfig::default()
            },
        );
        let scheme = SchemeKind::Rw.build(env);
        let r = run_concurrent(scheme.as_ref(), &wl.ops, ExecConfig::default());
        assert!(r.throughput() > 0.0);
        assert!(r.elapsed > Duration::ZERO);
    }
}
