//! End-to-end tests of the deterministic fault-injection harness: same
//! seed ⇒ byte-identical runs across all six schemes, graceful
//! write-ahead log degradation, crash-recovery prefix consistency, and
//! the known-bug regression — disabling the mvcc commit barrier loses
//! an own write, which the explorer finds, minimizes, and replays from
//! a repro file.
//!
//! The harness is process-global (one installation at a time), so
//! these tests run the chaos scenarios; the serial order among them is
//! handled by the harness's own installation lock.

use finecc::chaos::{FaultKind, FaultPlan, FaultSpec, Site};
use finecc::runtime::{DurabilityLevel, SchemeKind};
use finecc::sim::chaos::{
    explore, pinned, read_repro, replay_repro, run_chaos, run_upgrade_deadlock, write_repro,
    Anomaly, ChaosScenario,
};

/// Same seed, same scheme ⇒ byte-identical reports (decisions, trace,
/// counters, anomalies) — for every scheme, twice each.
#[test]
fn same_seed_is_byte_identical_across_all_schemes() {
    for kind in SchemeKind::ALL {
        let sc = ChaosScenario::new(kind, 42);
        let a = run_chaos(&sc).unwrap();
        let b = run_chaos(&sc).unwrap();
        assert_eq!(a, b, "{kind}: two runs of seed 42 must be identical");
        assert_eq!(
            a.outcome.decisions, b.outcome.decisions,
            "{kind}: decision sequences must match"
        );
        assert_eq!(
            a.outcome.trace, b.outcome.trace,
            "{kind}: traces must match"
        );
        assert!(a.commits > 0, "{kind}: the workload commits");
        assert!(
            a.anomalies.is_empty(),
            "{kind}: clean run: {:?}",
            a.anomalies
        );
    }
}

/// Determinism holds with the write-ahead log in the loop too: the
/// scheduled session forces the log inline, so append order, fsyncs
/// and the recovery check are all under virtual time.
#[test]
fn durable_runs_are_deterministic_and_recover_cleanly() {
    for level in [DurabilityLevel::Wal, DurabilityLevel::WalSync] {
        for kind in [SchemeKind::Tav, SchemeKind::MvccSsi] {
            let sc = ChaosScenario::new(kind, 7).durable(level);
            let a = run_chaos(&sc).unwrap();
            let b = run_chaos(&sc).unwrap();
            assert_eq!(a, b, "{kind}/{}: durable determinism", level.name());
            assert!(
                a.anomalies.is_empty(),
                "{kind}/{}: recovery must match an acked prefix: {:?}",
                level.name(),
                a.anomalies
            );
        }
    }
}

/// A transient fsync failure on the inline commit path must surface as
/// a retryable refusal — absorbed by the retry loop, counted in the
/// log statistics, never a panic, and the workload still finishes with
/// a prefix-consistent recovery.
#[test]
fn transient_log_failure_degrades_gracefully() {
    let sc = ChaosScenario::new(SchemeKind::Tav, 5)
        .durable(DurabilityLevel::WalSync)
        .with_faults(FaultPlan::of([FaultSpec::once(
            Site::WalFsync,
            0,
            FaultKind::IoError,
        )]));
    let r = run_chaos(&sc).unwrap();
    assert_eq!(r.log_failures, 1, "exactly the injected refusal: {r:?}");
    assert!(r.retries > 0, "the refusal was retried: {r:?}");
    assert!(r.commits > 0, "the workload still commits: {r:?}");
    assert!(!r.outcome.crashed);
    assert!(r.anomalies.is_empty(), "{:?}", r.anomalies);
}

/// Same, against the real (threaded) group-commit flusher in
/// fault-only mode: a failed batch is rolled back and retried, and
/// recovery still matches an acked prefix.
#[test]
fn flusher_batch_failure_is_retryable_end_to_end() {
    let mut sc = ChaosScenario::new(SchemeKind::Rw, 3).durable(DurabilityLevel::WalSync);
    sc.scheduled = false; // real threads, real flusher
    sc.faults = FaultPlan::of([FaultSpec::once(Site::WalFlushFsync, 0, FaultKind::IoError)]);
    let r = run_chaos(&sc).unwrap();
    assert!(r.log_failures >= 1, "the batch was refused: {r:?}");
    assert!(r.commits > 0, "the workload recovered from it: {r:?}");
    assert!(r.anomalies.is_empty(), "{:?}", r.anomalies);
}

/// A crash fault mid-run poisons the log: workers drain, no panic, and
/// the recovered store equals a prefix of what was acknowledged.
#[test]
fn crash_fault_recovers_to_an_acked_prefix() {
    for kind in [SchemeKind::Tav, SchemeKind::Mvcc] {
        let sc = ChaosScenario::new(kind, 13)
            .durable(DurabilityLevel::WalSync)
            .with_faults(FaultPlan::of([FaultSpec::once(
                Site::WalAppend,
                2,
                FaultKind::Crash,
            )]));
        let r = run_chaos(&sc).unwrap();
        assert!(r.outcome.crashed, "{kind}: the crash fired: {r:?}");
        assert!(
            r.anomalies.is_empty(),
            "{kind}: recovery must still be an acked prefix: {:?}",
            r.anomalies
        );
    }
}

/// A permanently failing log exhausts the bounded retry budget instead
/// of hanging or panicking.
#[test]
fn unbounded_log_failure_exhausts_retries() {
    let sc = ChaosScenario::new(SchemeKind::Tav, 9)
        .durable(DurabilityLevel::WalSync)
        .with_faults(FaultPlan::of([FaultSpec::always(
            Site::WalFsync,
            FaultKind::IoError,
        )]));
    let r = run_chaos(&sc).unwrap();
    assert!(r.exhausted > 0, "writes must give up within budget: {r:?}");
    assert_eq!(
        r.commits as usize + r.exhausted as usize + r.failed as usize,
        // Every scripted op is accounted for (crashed drain aside —
        // no crash here).
        sc.workers * sc.ops_per_worker,
        "{r:?}"
    );
}

/// The known-bug regression: disabling the `wait_published` commit
/// barrier through the fault plane makes an mvcc transaction's own
/// committed write invisible to its next snapshot. The explorer finds
/// the anomaly, minimization keeps it reproducible, the repro file
/// round-trips, and the replay is deterministic.
#[test]
fn disabled_commit_barrier_loses_own_writes_and_replays_from_repro() {
    let base =
        ChaosScenario::new(SchemeKind::Mvcc, 0).with_faults(FaultPlan::of([FaultSpec::always(
            Site::CommitPublishWait,
            FaultKind::Disable,
        )]));
    let finding = explore(&base, 1..101, 60)
        .unwrap()
        .expect("a disabled commit barrier must lose an own write within 100 seeds");
    assert!(
        finding
            .report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::LostOwnWrite { .. })),
        "{:?}",
        finding.report.anomalies
    );

    // Pin the minimized schedule to a repro file and replay it.
    let sc = pinned(
        &ChaosScenario {
            seed: finding.seed,
            ..base.clone()
        },
        &finding.minimized,
    );
    let path = std::env::temp_dir().join(format!("finecc-chaos-test-{}.repro", std::process::id()));
    write_repro(&path, &sc, &finding.minimized).unwrap();
    let parsed = read_repro(&path).unwrap();
    assert_eq!(parsed.faults, sc.faults, "fault plane survives the file");
    assert_eq!(parsed.replay, finding.minimized);
    let once = replay_repro(&path).unwrap();
    let twice = replay_repro(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(
        !once.anomalies.is_empty(),
        "the minimized repro reproduces the anomaly"
    );
    assert_eq!(once, twice, "repro replays are byte-identical");

    // And the same seeds with the barrier *enabled* are clean — the
    // anomaly is the bug lever, not the workload.
    let clean = run_chaos(&ChaosScenario::new(SchemeKind::Mvcc, finding.seed)).unwrap();
    assert!(clean.anomalies.is_empty(), "{:?}", clean.anomalies);
}

/// Delay faults are schedulable too: descheduling a worker at its
/// commit publish point is deterministic and harmless with the
/// barrier in place.
#[test]
fn delay_fault_is_deterministic_and_harmless() {
    let sc =
        ChaosScenario::new(SchemeKind::MvccSsi, 21).with_faults(FaultPlan::of([FaultSpec::once(
            Site::CommitPublish,
            1,
            FaultKind::Delay(40),
        )]));
    let a = run_chaos(&sc).unwrap();
    let b = run_chaos(&sc).unwrap();
    assert_eq!(a, b);
    assert!(a.anomalies.is_empty(), "{:?}", a.anomalies);
    assert!(a.commits > 0);
}

/// The read→write upgrade deadlock under `fieldlock`, over 20 seeds:
/// every cycle costs exactly one victim (never both upgraders, never a
/// victim without a cycle), both withdrawals commit within the retry
/// budget without a lock wait running out, and replaying the recorded
/// schedule reproduces the same victim. A blocked request must wait
/// cooperatively here — polling or parking on wall-clock time would
/// make the victim depend on the host.
#[test]
fn upgrade_deadlock_has_one_victim_per_cycle_and_replays() {
    let mut cycles = 0;
    for seed in 1..=20 {
        let r = run_upgrade_deadlock(seed, &[]);
        let [Some(a), Some(b)] = r.victim_of else {
            panic!("seed {seed}: both withdrawals commit within 8 retries: {r:?}");
        };
        assert_eq!(
            u64::from(a + b),
            r.deadlocks,
            "seed {seed}: one victim per cycle: {r:?}"
        );
        assert!(
            r.deadlocks <= r.blocks,
            "seed {seed}: a cycle is closed by a request that queued: {r:?}"
        );
        assert_eq!(r.balance, 80, "seed {seed}: both withdrawals applied once");
        cycles += r.deadlocks;

        // A different seed behind the recorded decisions: the schedule,
        // not the RNG, picks the victim.
        let again = run_upgrade_deadlock(seed ^ 0x5eed, &r.outcome.decisions);
        assert_eq!(again, r, "seed {seed}: the replay names the same victim");
    }
    assert!(
        cycles > 0,
        "some of 20 schedules let both read before a write"
    );
}
