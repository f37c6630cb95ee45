//! Live telemetry plane, end to end: the unified metrics registry over
//! the full scheme matrix.
//!
//! * **Prometheus export over the matrix** — every scheme's finished
//!   run freezes into one shared registry under a `scheme` label
//!   (`ExecReport::register_metrics`), plus the scheme's live sources
//!   via `CcScheme::register_metrics`; the text exposition render is
//!   then parsed line by line and validated:
//!   well-formed names and labels, one `# TYPE` line per metric, the
//!   stable dotted→underscore names present, per-scheme committed
//!   counts exact, and the live and the frozen txn-phase counts equal
//!   to each other and to the transactions the run submitted.
//! * **Golden metric schema** — every `name kind label-keys` line the
//!   six schemes emit, live and frozen, with and without a log, equals
//!   the checked-in `tests/golden/metric_names.txt`: renames are
//!   deliberate.

use finecc::obs::{MetricsRegistry, Obs, ObsConfig};
use finecc::runtime::SchemeKind;
use finecc::sim::workload::{
    generate_env, generate_workload, populate_random, SchemaGenConfig, WorkloadConfig,
};
use finecc::sim::{run_concurrent, ExecConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// A minimal Prometheus text-exposition parser (names, labels, values),
// strict enough to catch a malformed render.

#[derive(Debug)]
struct PromSample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses `name{k="v",...} value` (labels optional). Panics with
/// context on malformed lines — this *is* the validation.
fn parse_sample(line: &str) -> PromSample {
    let (head, value) = line.rsplit_once(' ').unwrap_or_else(|| {
        panic!("sample line has no value: {line:?}");
    });
    let value: f64 = value
        .parse()
        .unwrap_or_else(|e| panic!("unparseable value in {line:?}: {e}"));
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated label set: {line:?}"));
            let mut labels = Vec::new();
            let mut remaining = body;
            while !remaining.is_empty() {
                let (key, rest) = remaining
                    .split_once("=\"")
                    .unwrap_or_else(|| panic!("malformed label in {line:?}"));
                assert!(valid_name(key), "bad label name {key:?} in {line:?}");
                // Find the closing quote, skipping escaped characters.
                let mut val = String::new();
                let mut chars = rest.char_indices();
                let mut end = None;
                while let Some((i, c)) = chars.next() {
                    match c {
                        '\\' => {
                            let (_, esc) = chars
                                .next()
                                .unwrap_or_else(|| panic!("dangling escape in {line:?}"));
                            val.push(match esc {
                                'n' => '\n',
                                other => other,
                            });
                        }
                        '"' => {
                            end = Some(i);
                            break;
                        }
                        c => val.push(c),
                    }
                }
                let end = end.unwrap_or_else(|| panic!("unterminated label value: {line:?}"));
                labels.push((key.to_string(), val));
                remaining = rest[end + 1..]
                    .strip_prefix(',')
                    .unwrap_or(&rest[end + 1..]);
            }
            (name.to_string(), labels)
        }
    };
    assert!(valid_name(&name), "bad metric name {name:?} in {line:?}");
    PromSample {
        name,
        labels,
        value,
    }
}

fn label<'a>(s: &'a PromSample, key: &str) -> Option<&'a str> {
    s.labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

// ---------------------------------------------------------------------------

/// The scheme-matrix export flow, validated: all six schemes run a
/// small contentious workload, freeze their reports into one registry
/// under per-scheme labels (plus their live sources), and the
/// Prometheus render must parse cleanly with the stable names, exact
/// per-scheme committed counts, and one txn-phase record per submitted
/// transaction on both the live and the frozen side.
#[test]
fn prometheus_export_covers_the_scheme_matrix() {
    let reg = MetricsRegistry::new();
    // Per scheme: (committed, submitted).
    let mut runs: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for kind in SchemeKind::ALL {
        let env = generate_env(&SchemaGenConfig {
            classes: 6,
            seed: 17,
            write_prob: 0.6,
            ..SchemaGenConfig::default()
        });
        populate_random(&env, 4);
        let env = env.with_obs(Arc::new(Obs::new(ObsConfig::enabled())));
        let wl = generate_workload(
            &env,
            &WorkloadConfig {
                txns: 150,
                hot_frac: 0.5,
                hot_set: 4,
                seed: 9,
                ..WorkloadConfig::default()
            },
        );
        let scheme = kind.build(env);
        let report = run_concurrent(
            scheme.as_ref(),
            &wl.ops,
            ExecConfig {
                threads: 4,
                max_retries: 100,
            },
        );
        assert_eq!(report.failed, 0, "{kind}: non-retryable failure");
        assert!(report.committed > 0, "{kind}: nothing committed");
        report.register_metrics(&reg, &[("scheme", kind.name())]);
        // The live path too — same names, a `source="live"` marker —
        // through the trait method every scheme implements.
        scheme.register_metrics(&reg, &[("scheme", kind.name()), ("source", "live")]);
        let submitted = report.committed + report.exhausted + report.failed;
        runs.insert(kind.name(), (report.committed, submitted));
    }
    // One durable scheme, for the write-ahead log's live counters (the
    // matrix above runs without a log).
    let wal_dir = std::env::temp_dir().join(format!("finecc-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let durable = SchemeKind::Tav
        .build_durable(
            finecc::runtime::Env::from_source(finecc::lang::parser::FIGURE1_SOURCE).unwrap(),
            finecc::mvcc::DurabilityLevel::Wal,
            &wal_dir,
        )
        .unwrap();
    durable.register_metrics(&reg, &[("scheme", "tav"), ("source", "durable")]);
    let prom = reg.render_prometheus();
    drop(durable);
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Parse and structurally validate the whole exposition.
    let mut typed: BTreeSet<String> = BTreeSet::new();
    let mut samples: Vec<PromSample> = Vec::new();
    for line in prom.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("TYPE line has a name");
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(valid_name(name), "bad TYPE name {name:?}");
            assert!(
                kind == "counter" || kind == "gauge",
                "unexpected TYPE kind {kind:?}"
            );
            assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
        } else if !line.starts_with('#') {
            samples.push(parse_sample(line));
        }
    }
    for s in &samples {
        assert!(
            typed.contains(&s.name),
            "sample {} has no preceding # TYPE line",
            s.name
        );
    }

    // The stable names the dashboards key on, dotted → underscores.
    for name in [
        "finecc_run_committed",
        "finecc_run_txns_per_sec",
        "finecc_obs_phase_count",
        "finecc_obs_phase_p99_ns",
        "finecc_obs_contention",
        "finecc_lock_requests",
        "finecc_lock_parks",
        "finecc_mvcc_commits",
        "finecc_wal_appends",
        "finecc_wal_queue_depth",
        "finecc_wal_group_commit_mean",
        "finecc_wal_flusher_wakes",
    ] {
        assert!(typed.contains(name), "stable metric {name} missing");
    }

    // Per-scheme labels: the frozen committed counter must be exact for
    // every one of the six schemes, and `run_txn` records one
    // `TxnLatency` sample per transaction whatever its outcome — read
    // from the live handle and from the frozen report, the count is the
    // same number (the duality `collect_obs` exists for).
    for kind in SchemeKind::ALL {
        let (committed, submitted) = runs[kind.name()];
        let sample = |name: &str, phase: Option<&str>, source: Option<&str>| {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && label(s, "phase") == phase
                        && label(s, "scheme") == Some(kind.name())
                        && label(s, "source") == source
                })
                .unwrap_or_else(|| panic!("{kind}: no {name} sample ({phase:?}, {source:?})"))
                .value
        };
        assert_eq!(
            sample("finecc_run_committed", None, None),
            committed as f64,
            "{kind}: committed"
        );
        let frozen = sample("finecc_obs_phase_count", Some("txn"), None);
        let live = sample("finecc_obs_phase_count", Some("txn"), Some("live"));
        assert_eq!(frozen, submitted as f64, "{kind}: frozen txn count");
        assert_eq!(live, submitted as f64, "{kind}: live txn count");
    }
}

/// The metric schema is a contract (the benchmark reads its per-layer
/// counts by these names): for every scheme, with and without a log,
/// the `name kind label-keys` lines of the live sources
/// (`CcScheme::register_metrics`) and of a finished run's frozen source
/// (`ExecReport::register_metrics`) after one committed transaction
/// must equal `tests/golden/metric_names.txt`. A rename, a kind change
/// or a dropped sample fails here and is made deliberate by updating
/// that file from the copy this test leaves in the target directory.
#[test]
fn metric_names_match_the_golden_schema() {
    use finecc::mvcc::DurabilityLevel;
    use finecc::sim::workload::TxnOp;

    let mut actual = String::new();
    let mut section = |title: String, reg: &MetricsRegistry| {
        let lines: BTreeSet<String> = reg
            .snapshot()
            .iter()
            .map(|s| {
                let keys: Vec<&str> = s.labels.iter().map(|(k, _)| k.as_str()).collect();
                let keys = if keys.is_empty() {
                    "-".to_string()
                } else {
                    keys.join(",")
                };
                format!("{} {} {keys}\n", s.name, s.kind.name())
            })
            .collect();
        actual.push_str(&format!("# {title}\n"));
        actual.extend(lines);
    };
    for kind in SchemeKind::ALL {
        for (level, tag) in [
            (DurabilityLevel::None, "none"),
            (DurabilityLevel::Wal, "wal"),
        ] {
            let fx = finecc::sim::figure1::populate(
                finecc::lang::parser::FIGURE1_SOURCE,
                1,
                Duration::from_secs(1),
            );
            let op = TxnOp::One {
                oid: fx.c2_instances[0],
                method: "m1".into(),
                args: vec![finecc::model::Value::Int(1)],
            };
            let env = fx.env.with_obs(Arc::new(Obs::new(ObsConfig::enabled())));
            let dir = std::env::temp_dir()
                .join(format!("finecc-golden-{}-{kind}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let scheme = kind.build_durable(env, level, &dir).unwrap();
            let report = finecc::sim::run_sequential(scheme.as_ref(), &[op], 0);
            assert_eq!(report.committed, 1, "{kind} {tag}");
            let (live, frozen) = (MetricsRegistry::new(), MetricsRegistry::new());
            scheme.register_metrics(&live, &[]);
            report.register_metrics(&frozen, &[]);
            section(format!("{kind} {tag} live"), &live);
            section(format!("{kind} {tag} frozen"), &frozen);
            drop(scheme);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metric_names.txt");
    if actual != std::fs::read_to_string(golden).unwrap_or_default() {
        let copy = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("metric_names.txt");
        std::fs::write(&copy, &actual).unwrap();
        panic!(
            "the metric schema changed: `diff {golden} {}`, and copy the latter over the \
             former if every line of it is deliberate",
            copy.display()
        );
    }
}
