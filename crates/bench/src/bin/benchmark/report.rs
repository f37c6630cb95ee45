//! Metric names (the stable schema later issues quote), the
//! fingerprint every result carries, and the result file / last-line
//! output.

use crate::json::Json;
use crate::workload::CLIENTS;
use std::path::{Path, PathBuf};
use std::process::Command;

pub const SCHEMES: [&str; 6] = ["tav", "rw", "fieldlock", "relational", "mvcc", "mvcc-ssi"];
/// The four lock schemes (`<L>`).
pub const LOCK_SCHEMES: [&str; 4] = ["tav", "rw", "fieldlock", "relational"];
/// The two multi-version schemes (`<M>`).
pub const MVCC_SCHEMES: [&str; 2] = ["mvcc", "mvcc-ssi"];

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn defs(
    out: &mut Vec<MetricDef>,
    stem: &str,
    schemes: &[&str],
    unit: &'static str,
    better: &'static str,
) {
    if schemes.is_empty() {
        out.push(MetricDef {
            name: stem.to_string(),
            unit,
            better,
        });
    }
    for s in schemes {
        out.push(MetricDef {
            name: format!("{stem}.{s}"),
            unit,
            better,
        });
    }
}

/// The 13 end-to-end metrics of an untraced run.
pub fn end_to_end() -> Vec<MetricDef> {
    let mut out = Vec::new();
    defs(&mut out, "setup_s", &[], "s", "lower");
    defs(&mut out, "tps", &SCHEMES, "1/s", "higher");
    defs(&mut out, "p50_us", &SCHEMES, "us", "lower");
    out
}

/// The 107 per-layer metrics of a traced run.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = Vec::new();
    let o = &mut out;
    // Cost ladder: single client, ns per transaction, marginal over the
    // rung below.
    defs(o, "lang.interp_ns", &[], "ns", "lower");
    defs(o, "store.access_ns", &[], "ns", "lower");
    defs(o, "control_ns", &SCHEMES, "ns", "lower");
    defs(o, "wal.append_ns", &SCHEMES, "ns", "lower");
    defs(o, "wal.sync_ns", &SCHEMES, "ns", "lower");
    defs(o, "span.send_ns", &SCHEMES, "ns", "lower");
    defs(o, "span.commit_ns", &SCHEMES, "ns", "lower");
    // Exact counts, single client.
    defs(o, "lock.requests_per_txn", &LOCK_SCHEMES, "count", "lower");
    defs(o, "mvcc.versions_per_txn", &MVCC_SCHEMES, "count", "lower");
    defs(o, "wal.bytes_per_txn", &SCHEMES, "B", "lower");
    defs(o, "wal.fsyncs_per_txn", &SCHEMES, "count", "lower");
    // Two clients, traced pass.
    defs(o, "runtime.p99_us", &SCHEMES, "us", "lower");
    defs(o, "runtime.retries_per_ktxn", &SCHEMES, "count", "lower");
    defs(o, "lock.blocks_per_ktxn", &LOCK_SCHEMES, "count", "lower");
    defs(
        o,
        "lock.deadlocks_per_ktxn",
        &LOCK_SCHEMES,
        "count",
        "lower",
    );
    defs(
        o,
        "mvcc.ww_conflicts_per_ktxn",
        &MVCC_SCHEMES,
        "count",
        "lower",
    );
    defs(
        o,
        "mvcc.ssi_aborts_per_ktxn",
        &["mvcc-ssi"],
        "count",
        "lower",
    );
    defs(o, "mvcc.chain_len_mean", &MVCC_SCHEMES, "count", "lower");
    defs(o, "wal.group_commit_mean", &SCHEMES, "count", "higher");
    defs(o, "scale_1to2", &SCHEMES, "ratio", "higher");
    // Direct timings of public functions.
    defs(o, "lang.parse_ms", &[], "ms", "lower");
    defs(o, "core.compile_ms", &[], "ms", "lower");
    defs(o, "core.commute_lookup_ns", &[], "ns", "lower");
    defs(o, "lock.acquire_release_ns", &[], "ns", "lower");
    defs(o, "store.read_ns", &[], "ns", "lower");
    defs(o, "store.write_ns", &[], "ns", "lower");
    defs(o, "mvcc.read_ns", &[], "ns", "lower");
    defs(o, "mvcc.write_commit_ns", &[], "ns", "lower");
    defs(o, "wal.append_commit_ns", &[], "ns", "lower");
    defs(o, "wal.checkpoint_ms", &[], "ms", "lower");
    defs(o, "wal.recover_s", &[], "s", "lower");
    defs(o, "wal.replay_records_per_s", &[], "1/s", "higher");
    // Tracing cost and coverage.
    defs(o, "trace.overhead_ratio", &[], "ratio", "higher");
    defs(o, "obs.overhead_ratio", &[], "ratio", "higher");
    defs(o, "obs.phase_coverage", &SCHEMES, "ratio", "higher");
    out
}

/// One measured metric: the value, and where the run has them its own
/// spread and sample count.
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub iqr: Option<f64>,
    pub n: Option<u64>,
    /// The values the statistic was taken over, where they are few
    /// enough to keep (slice rates, set-up times).
    pub samples: Vec<f64>,
}

/// What identifies the machine, the build and the run in every result.
pub struct Fingerprint {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub seconds: u64,
    pub rounds: usize,
    pub slice_ms: u64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Fingerprint {
    fn to_json(&self) -> Json {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("rounds", Json::Num(self.rounds as f64)),
            ("slice_ms", Json::Num(self.slice_ms as f64)),
            ("clients", Json::Num(CLIENTS as f64)),
            ("nproc", Json::Num(nproc as f64)),
            // "unknown" in an exported checkout, which is not a git
            // repository.
            (
                "git_rev",
                Json::str(command_line("git", &["rev-parse", "HEAD"])),
            ),
            ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ])
    }
}

pub struct Report {
    pub fingerprint: Fingerprint,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// Per-scheme client-side counters and oracle verdicts.
    pub schemes: Json,
}

impl Report {
    /// Checks the emitted set against the declared one — a metric that
    /// silently disappears must fail the run, not shrink the schema.
    pub fn check_names(&self) -> Result<(), String> {
        let declared = self.declared();
        let mut want: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        want.sort_unstable();
        got.sort_unstable();
        if want == got {
            Ok(())
        } else {
            Err(format!(
                "emitted metrics differ from the declared set: declared {want:?}, emitted {got:?}"
            ))
        }
    }

    /// The metric set this kind of run declares.
    fn declared(&self) -> Vec<MetricDef> {
        if self.fingerprint.trace {
            per_layer()
        } else {
            end_to_end()
        }
    }

    fn unit_of(declared: &[MetricDef], name: &str) -> &'static str {
        declared
            .iter()
            .find(|d| d.name == name)
            .map_or("", |d| d.unit)
    }

    fn metrics_json(&self, full: bool) -> Json {
        let declared = self.declared();
        Json::obj(self.metrics.iter().map(|m| {
            let unit = Report::unit_of(&declared, &m.name);
            let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(unit))];
            if full {
                if let Some(iqr) = m.iqr {
                    fields.push(("iqr", Json::Num(iqr)));
                }
                if let Some(n) = m.n {
                    fields.push(("n", Json::Num(n as f64)));
                }
                if !m.samples.is_empty() {
                    let samples = m.samples.iter().map(|&v| Json::Num(v)).collect();
                    fields.push(("samples", Json::Arr(samples)));
                }
            }
            (m.name.clone(), Json::obj(fields))
        }))
    }

    /// The contract's result object (the last line of standard output).
    pub fn last_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ])
        .render()
    }

    /// One JSON file per run under `out`; returns its path.
    pub fn write(&self, out: &Path, stamp: &str) -> std::io::Result<PathBuf> {
        let doc = Json::obj([
            ("fingerprint", self.fingerprint.to_json()),
            ("claim", Json::Null),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(true)),
            ("schemes", self.schemes.clone()),
        ]);
        std::fs::create_dir_all(out)?;
        let path = out.join(format!("{stamp}.json"));
        std::fs::write(&path, doc.render() + "\n")?;
        Ok(path)
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        let declared = self.declared();
        for m in &self.metrics {
            let unit = Report::unit_of(&declared, &m.name);
            let mut line = format!("{:<34} {:>16.4} {unit}", m.name, m.value);
            if let Some(iqr) = m.iqr {
                line += &format!("  (IQR {iqr:.4}");
                if let Some(n) = m.n {
                    line += &format!(", n={n}");
                }
                line += ")";
            }
            println!("{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    /// `BENCHMARK.json` at the repository root.
    fn manifest() -> Json {
        Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap()
    }

    fn listed(manifest: &Json, key: &str) -> Vec<(String, String, String)> {
        manifest
            .get(key)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).unwrap().as_str().unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn declared(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_match_benchmark_json() {
        let manifest = manifest();
        assert_eq!(end_to_end().len(), 13);
        assert_eq!(per_layer().len(), 107);
        for d in end_to_end().iter().chain(&per_layer()) {
            assert!(well_formed(&d.name), "{}", d.name);
        }
        assert_eq!(
            listed(&manifest, "end_to_end"),
            declared(end_to_end()),
            "end_to_end"
        );
        assert_eq!(
            listed(&manifest, "per_layer"),
            declared(per_layer()),
            "per_layer"
        );
        let names: Vec<&str> = manifest
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        for w in &WORKLOADS {
            assert!(well_formed(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(
            manifest.get("run_seconds").unwrap().as_f64(),
            Some(crate::DEFAULT_SECONDS as f64)
        );
    }
}
