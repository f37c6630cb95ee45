//! Concurrent workload execution.

use crate::workload::TxnOp;
use finecc_runtime::{run_txn, CcScheme, TxnOutcome};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Outcome counts of an execution run. What the scheme did during the
/// run is read where it ran: its counters by name
/// (`finecc_runtime::read_metrics`) and its environment's `Obs`.
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
}

/// Runs the workload across `threads` workers (ops are dealt
/// round-robin), retrying each transaction up to `max_retries` times.
pub fn run_concurrent(
    scheme: &dyn CcScheme,
    ops: &[TxnOp],
    threads: usize,
    max_retries: u32,
) -> ExecReport {
    let committed = AtomicU64::new(0);
    let exhausted = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    // The workers start together: a workload short enough for the first
    // thread to drain before the OS has started the second would run
    // without the concurrency it was dealt out for.
    let threads = threads.max(1);
    let start_line = std::sync::Barrier::new(threads);

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
                    match run_txn(scheme, max_retries, |txn| op.run(scheme, txn)) {
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

    ExecReport {
        committed: committed.into_inner(),
        exhausted: exhausted.into_inner(),
        failed: failed.into_inner(),
        retries: retries.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{
        generate_env, generate_workload, populate_random, SchemaGenConfig, WorkloadConfig,
    };
    use finecc_runtime::SchemeKind;

    #[test]
    fn concurrent_all_schemes_complete() {
        for kind in SchemeKind::ALL {
            let env = generate_env(&SchemaGenConfig {
                classes: 6,
                seed: 17,
                ..SchemaGenConfig::default()
            });
            populate_random(&env, 4);
            let wl = generate_workload(
                &env,
                &WorkloadConfig {
                    txns: 200,
                    seed: 2,
                    ..WorkloadConfig::default()
                },
            );
            let scheme = kind.build(env);
            let r = run_concurrent(scheme.as_ref(), &wl.ops, 4, 20);
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
}
