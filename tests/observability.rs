//! Integration tests for the observability subsystem (`finecc-obs`)
//! and its wiring through the six schemes:
//!
//! * **histogram properties** — shard merging is exactly the histogram
//!   of the concatenated samples, quantile error is bounded by the log
//!   base (1/32, never an overestimate), and fully concurrent
//!   recording from 16 threads loses no counts;
//! * **contention attribution** — a skewed commit storm puts the known
//!   hot objects at the top of the heat map under every scheme, and
//!   the striped registry's totals agree *exactly* with the
//!   scheme-level counters (`blocks`, `ww_conflicts`, `ssi_aborts` —
//!   every class the registry has): the probes sit next to the counter
//!   bumps, one registry record per bump. The heat map ranks by exact
//!   cumulative totals, so neither assertion depends on when it is read.

use finecc::obs::hist::SUB_BUCKETS;
use finecc::obs::{
    ContentionKind, HistSnapshot, Histogram, Obs, ObsConfig, Phase, ShardedHistogram,
};
use finecc::runtime::SchemeKind;
use finecc::sim::workload::{
    generate_env, generate_workload, populate_random, SchemaGenConfig, TxnMix, WorkloadConfig,
};
use finecc::sim::{run_concurrent, ExecConfig};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Histogram properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bucket counts are plain sums, so merging per-shard snapshots is
    /// lossless: dealing a sample stream across any number of shards
    /// and merging equals recording the concatenated stream flat.
    #[test]
    fn merge_of_shards_equals_concat(
        samples in proptest::collection::vec(any::<u64>(), 0..300),
        shards in 1usize..9,
    ) {
        let parts: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
        let flat = Histogram::new();
        for (i, &v) in samples.iter().enumerate() {
            parts[i % shards].record(v);
            flat.record(v);
        }
        let mut merged = HistSnapshot::default();
        for p in &parts {
            merged.merge(&p.snapshot());
        }
        prop_assert_eq!(&merged, &flat.snapshot());
        prop_assert_eq!(merged.count(), samples.len() as u64);
    }

    /// A reported quantile is the bucket's lower bound: never above
    /// the true value, and below by at most `value / SUB_BUCKETS`
    /// (the log base — 1/32).
    #[test]
    fn bucket_error_bounded_by_log_base(v in any::<u64>()) {
        let rep = Histogram::lower_bound(Histogram::index_of(v));
        prop_assert!(rep <= v, "bucket lower bound overestimates {v}");
        prop_assert!(
            v - rep <= v / SUB_BUCKETS as u64,
            "error {} exceeds {}/{} for {}", v - rep, v, SUB_BUCKETS, v
        );
        // The same bound must survive the full record → quantile path.
        let h = Histogram::new();
        h.record(v);
        let q = h.snapshot().value_at_quantile(1.0);
        prop_assert!(q <= v && v - q <= v / SUB_BUCKETS as u64);
    }
}

/// 16 threads hammering one sharded histogram concurrently: the merged
/// snapshot holds every count and the exact sum — nothing is lost to
/// striping or relaxed atomics.
#[test]
fn concurrent_recording_loses_no_counts() {
    const THREADS: u64 = 16;
    const PER_THREAD: u64 = 20_000;
    let hist = ShardedHistogram::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let hist = &hist;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    hist.record(t * PER_THREAD + i);
                }
            });
        }
    });
    let merged = hist.merged();
    let n = THREADS * PER_THREAD;
    assert_eq!(merged.count(), n, "lost samples under concurrency");
    assert_eq!(merged.max(), n - 1);
    // Sum of 0..n is exact (the running sum is not bucketed).
    assert_eq!(merged.mean(), (n * (n - 1) / 2) / n);

    // The same guarantee through the `Obs` facade's phase histograms
    // and the striped contention registry.
    let obs = Obs::new(ObsConfig::enabled());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let obs = &obs;
            scope.spawn(move || {
                for i in 0..1_000 {
                    obs.record_phase_ns(Phase::CommitTotal, i);
                    obs.contend(
                        finecc::obs::ObjKey::Instance(t % 4),
                        ContentionKind::WwConflict,
                    );
                }
            });
        }
    });
    assert_eq!(obs.phase_summary(Phase::CommitTotal).count, THREADS * 1_000);
    assert_eq!(
        obs.contention_totals()[ContentionKind::WwConflict as usize],
        THREADS * 1_000
    );
    assert_eq!(
        obs.hottest(8).iter().map(|h| h.total()).sum::<u64>(),
        THREADS * 1_000,
        "every event lands on one of the four keys"
    );
}

// ---------------------------------------------------------------------------
// Contention attribution across the schemes
// ---------------------------------------------------------------------------

/// A contentious environment: few classes with only one or two fields
/// (so most write pairs overlap and nothing commutes them apart),
/// write-heavy methods, every transaction a single send with 90% of
/// picks landing on the first `hot` instances of the stable workload
/// pool.
fn storm_env() -> finecc::runtime::Env {
    let env = generate_env(&SchemaGenConfig {
        classes: 4,
        fields_per_class: (1, 2),
        write_prob: 0.9,
        self_call_prob: 0.2,
        seed: 23,
        ..SchemaGenConfig::default()
    });
    populate_random(&env, 5);
    env
}

/// The workload generator's hot set is "the first `hot_set` OIDs" of
/// its candidate pool, built in stable class/extent order — rebuild
/// that prefix so the test knows which objects are hot by construction.
fn hot_oids(env: &finecc::runtime::Env, hot_set: usize) -> Vec<u64> {
    let mut pool = Vec::new();
    for ci in env.schema.classes() {
        for oid in env.db.extent(ci.id) {
            pool.push(oid.0);
        }
    }
    pool.truncate(hot_set);
    pool
}

fn storm_workload(env: &finecc::runtime::Env, hot_set: usize) -> Vec<finecc::sim::workload::TxnOp> {
    generate_workload(
        env,
        &WorkloadConfig {
            // Single-send transactions run in a couple of microseconds;
            // the storm needs enough of them that the 8 workers stay
            // overlapped long past spawn, or nothing ever collides.
            txns: 20_000,
            hot_frac: 0.9,
            hot_set,
            mix: TxnMix {
                one: 1.0,
                some: 0.0,
                all: 0.0,
            },
            seed: 31,
            ..WorkloadConfig::default()
        },
    )
    .ops
}

/// Skewed commit storm under every scheme: the known-hot objects must
/// dominate the heat map — the hottest instance-attributed row is a
/// hot object, and hot objects carry the majority of the
/// instance-attributed contention in the top-K. (The relational
/// baseline also blocks on relation-level resources, which have no
/// OID; those rows are exempt from the instance assertions.)
#[test]
fn hot_objects_dominate_top_k_at_every_scheme() {
    const HOT_SET: usize = 3;
    for kind in SchemeKind::ALL {
        let obs = Arc::new(Obs::new(ObsConfig::enabled()));
        let env = storm_env().with_obs(Arc::clone(&obs));
        let hot = hot_oids(&env, HOT_SET);
        let ops = storm_workload(&env, HOT_SET);
        let scheme = kind.build(env);
        let report = run_concurrent(
            scheme.as_ref(),
            &ops,
            ExecConfig {
                threads: 8,
                max_retries: 1000,
            },
        );
        assert_eq!(report.failed, 0, "{kind}: non-retryable failure");
        let total: u64 = obs.contention_totals().iter().sum();
        assert!(
            total > 0,
            "{kind}: a skewed 8-thread storm must record contention"
        );
        let top = obs.hottest(8);
        let hottest_instance = top
            .iter()
            .find(|h| h.key.oid().is_some())
            .unwrap_or_else(|| panic!("{kind}: no instance-attributed contention in top-K"));
        assert!(
            hot.contains(&hottest_instance.key.oid().unwrap()),
            "{kind}: hottest object {} is not in the known-hot set {hot:?}",
            hottest_instance.key
        );
        let (hot_events, cold_events) = top
            .iter()
            .filter_map(|h| h.key.oid().map(|oid| (oid, h.total())))
            .fold((0u64, 0u64), |(a, b), (oid, n)| {
                if hot.contains(&oid) {
                    (a + n, b)
                } else {
                    (a, b + n)
                }
            });
        assert!(
            hot_events > cold_events,
            "{kind}: hot objects carry {hot_events} of the top-K events vs {cold_events}"
        );
    }
}

/// The attribution invariant: the registry is bumped exactly where the
/// scheme-level counters are, so per-class totals must agree exactly
/// with the `ExecReport` for every scheme — no event double-counted,
/// none dropped.
#[test]
fn registry_totals_match_scheme_counters() {
    for kind in SchemeKind::ALL {
        let obs = Arc::new(Obs::new(ObsConfig::enabled()));
        let env = storm_env().with_obs(Arc::clone(&obs));
        let ops = storm_workload(&env, 4);
        let scheme = kind.build(env);
        let report = run_concurrent(
            scheme.as_ref(),
            &ops,
            ExecConfig {
                threads: 8,
                max_retries: 1000,
            },
        );
        assert_eq!(report.failed, 0, "{kind}: non-retryable failure");
        assert!(report.obs.enabled, "{kind}: obs report not wired through");
        // The scheme's own counters, by name: a lock scheme emits the
        // lock manager's and no heap counter, an mvcc scheme the
        // reverse — an absent sample is "no such source", and a name
        // on the wrong side (or misspelt) fails here.
        let mvcc = kind.isolation().is_some();
        let counted = |name: &str, emitted: bool| match report.counters.get(name) {
            Some(v) if emitted => v as u64,
            None if !emitted => 0,
            other => panic!("{kind}: {name} read {other:?}"),
        };
        assert_eq!(
            report.obs.contention_total(ContentionKind::LockBlock),
            counted("finecc.lock.blocks", !mvcc),
            "{kind}: one registry record per lock block"
        );
        assert_eq!(
            report.obs.contention_total(ContentionKind::WwConflict),
            counted("finecc.mvcc.write_conflicts", mvcc),
            "{kind}: one registry record per first-updater-wins refusal"
        );
        assert_eq!(
            report.obs.contention_total(ContentionKind::SsiAbort),
            counted("finecc.mvcc.ssi_aborts", mvcc),
            "{kind}: one registry record per SSI validation abort"
        );
        // Latency side of the same report: one end-to-end sample per
        // submitted transaction, whatever its outcome.
        assert_eq!(
            report.obs.phase(Phase::TxnLatency).count,
            report.committed + report.exhausted + report.failed,
            "{kind}: one txn-latency sample per transaction"
        );
    }
}
