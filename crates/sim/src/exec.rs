//! Concurrent and sequential workload execution.

use crate::workload::TxnOp;
use finecc_obs::MetricSet;
use finecc_runtime::{read_metrics, run_txn, CcScheme, TxnOutcome};
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
#[derive(Clone, Debug, Default)]
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
    /// What the scheme's counters — lock manager, version heap and
    /// log, whichever it has — did during the run, by the dotted names
    /// its live sources emit ([`read_metrics`] at exit since entry). A
    /// scheme with no lock manager has no `finecc.lock.*` entry, one
    /// with no log no `finecc.wal.*`.
    pub counters: MetricSet,
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

    /// Registers a **frozen** metric source over this finished run:
    /// run-level outcome counters (`finecc.run.*`) plus everything the
    /// report carries — the observability phase quantiles, contention
    /// totals, the hottest objects' event totals, and the scheme's own
    /// counters — under the same dotted names the live
    /// sources use, so a scrape of a finished run reads exactly like a
    /// scrape of a live one. The closure owns a copy of the report, so
    /// the run's scheme and environment can be dropped.
    pub fn register_metrics(&self, reg: &finecc_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        let r = self.clone();
        reg.register_fn(labels, move |c: &mut finecc_obs::Collector| {
            c.counter("finecc.run.committed", r.committed);
            c.counter("finecc.run.exhausted", r.exhausted);
            c.counter("finecc.run.failed", r.failed);
            c.counter("finecc.run.retries", r.retries);
            c.gauge("finecc.run.elapsed_ms", r.elapsed.as_secs_f64() * 1e3);
            c.gauge("finecc.run.txns_per_sec", r.throughput());
            r.obs.collect_metrics(c);
            r.counters.collect_metrics(c);
        });
    }
}

/// Runs the workload across `cfg.threads` workers (ops are dealt
/// round-robin), with per-transaction deadlock retry. Counters are
/// measured relative to the scheme's at entry.
pub fn run_concurrent(scheme: &dyn CcScheme, ops: &[TxnOp], cfg: ExecConfig) -> ExecReport {
    let before = read_metrics(scheme);
    let obs_before = scheme.env().obs.snapshot();
    let committed = AtomicU64::new(0);
    let exhausted = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    // The workers start together: a workload short enough for the first
    // thread to drain before the OS has started the second would run
    // without the concurrency it was dealt out for.
    let threads = cfg.threads.max(1);
    let start_line = std::sync::Barrier::new(threads);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                start_line.wait();
                loop {
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
        counters: read_metrics(scheme).since(&before),
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
        assert!(r.counters.get("finecc.lock.requests").expect("tav locks") > 0.0);
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
        let commits = r.counters.get("finecc.mvcc.commits");
        assert_eq!(
            commits.expect("mvcc scheme reports heap counters"),
            r.committed as f64,
            "every commit is a heap commit"
        );
        assert!(r.counters.get("finecc.mvcc.versions_created").unwrap() > 0.0);
        assert_eq!(
            r.counters.get("finecc.lock.requests"),
            None,
            "snapshot reads and optimistic writes take no locks"
        );

        let env = workload_env();
        let scheme = SchemeKind::Tav.build(env);
        let r = run_sequential(scheme.as_ref(), &wl.ops, 5);
        assert_eq!(
            r.counters.get("finecc.mvcc.commits"),
            None,
            "lock schemes have no version heap"
        );
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
