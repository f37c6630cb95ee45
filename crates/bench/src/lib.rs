//! # finecc-bench — experiment harness
//!
//! One binary per paper artifact/claim (see `src/bin/`, indexed in
//! EXPERIMENTS.md) and the repo benchmark (`src/bin/benchmark/`). This
//! library holds the synthetic schemas the experiments share.

use finecc_obs::{Collector, LatencySummary, MetricsRegistry, Obs, ObsConfig};
use finecc_runtime::Env;
use finecc_sim::ExecReport;
use std::fmt::Write as _;
use std::sync::Arc;

/// Transaction count for an experiment cell: `FINECC_BENCH_TXNS`
/// overrides `default` (the CI bench-smoke job sets it low so the
/// scheme matrix runs in seconds).
pub fn txns_per_cell(default: usize) -> usize {
    std::env::var("FINECC_BENCH_TXNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Thread counts for the scaling sweeps: `FINECC_BENCH_THREADS` is a
/// comma-separated list (e.g. `1,2,4,8,16,32`) overriding `default`.
/// Unparseable entries are ignored; an empty result falls back to
/// `default`.
pub fn bench_threads(default: &[usize]) -> Vec<usize> {
    let parsed: Vec<usize> = std::env::var("FINECC_BENCH_THREADS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect()
        })
        .unwrap_or_default();
    if parsed.is_empty() {
        default.to_vec()
    } else {
        parsed
    }
}

/// The observability handle an experiment binary installs on its
/// environments (`Env::with_obs`): histograms + contention attribution
/// on by default, a Chrome trace when `FINECC_TRACE=<path>` is set
/// (sampled by `FINECC_TRACE_SAMPLE`), everything off — every probe a
/// single branch — under `FINECC_OBS=off`.
pub fn obs_from_env() -> Arc<Obs> {
    Arc::new(Obs::new(ObsConfig::from_env()))
}

/// Exports the process-wide trace if one was configured, reporting the
/// path on stdout (experiments call this once, at exit).
pub fn export_trace(obs: &Obs) {
    match obs.export_trace() {
        Ok(Some((path, n))) => println!("\nchrome trace ({n} events): {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("\ntrace export failed: {e}"),
    }
}

/// The uniform multi-version counter block every committed
/// `BENCH_*.json` row carries, so the four artifacts stay comparable:
/// refused-timestamp skips, watermark overflow waits, epoch-pin
/// retries, and reclaimed copy-on-write snapshots (all zero for the
/// lock schemes).
pub fn mvcc_counter_pairs(r: &ExecReport) -> [(&'static str, JsonVal); 4] {
    [
        ("ts_skips", JsonVal::from(r.ts_skips())),
        ("watermark_waits", JsonVal::from(r.watermark_waits())),
        ("read_pin_retries", JsonVal::from(r.read_pin_retries())),
        ("cow_reclaimed", JsonVal::from(r.cow_reclaimed())),
    ]
}

/// End-to-end transaction latency quantiles as JSON pairs
/// (microseconds; all zero when observability is disabled).
pub fn latency_pairs(lat: LatencySummary) -> [(&'static str, JsonVal); 5] {
    [
        ("lat_p50_us", JsonVal::from(LatencySummary::us(lat.p50))),
        ("lat_p90_us", JsonVal::from(LatencySummary::us(lat.p90))),
        ("lat_p99_us", JsonVal::from(LatencySummary::us(lat.p99))),
        ("lat_max_us", JsonVal::from(LatencySummary::us(lat.max))),
        ("lat_mean_us", JsonVal::from(LatencySummary::us(lat.mean))),
    ]
}

/// Registers a **frozen** metric source over a finished run's report:
/// run-level outcome counters (`finecc.run.*`) plus everything the
/// report carries — the observability phases (cumulative and windowed),
/// contention totals, decayed hot scores, lock-manager counters, and
/// the mvcc / WAL blocks when the scheme has them — under the same
/// dotted names the live sources use, so one Prometheus scrape of a
/// finished matrix reads exactly like a scrape of a live run. Frozen
/// sources are how per-cell labels work when the experiment rebuilds
/// its scheme for every cell: the report is `Copy`, the closure owns
/// it, and the cell's environment can be dropped.
pub fn register_report_metrics(reg: &MetricsRegistry, labels: &[(&str, &str)], r: &ExecReport) {
    let r = *r;
    reg.register_fn(labels, move |c: &mut Collector| {
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

/// A scalar in the machine-readable bench artifacts. The experiments
/// emit flat JSON by hand — the workspace's vendored `serde` stub has
/// no JSON backend, and the rows are small enough that a dependency
/// would be overkill.
#[derive(Clone, Debug)]
pub enum JsonVal {
    /// An unsigned counter.
    Int(u64),
    /// A measured rate or ratio, emitted with two decimals.
    Num(f64),
    /// A label (escaped on write).
    Str(String),
}

impl From<u64> for JsonVal {
    fn from(v: u64) -> JsonVal {
        JsonVal::Int(v)
    }
}

impl From<usize> for JsonVal {
    fn from(v: usize) -> JsonVal {
        JsonVal::Int(v as u64)
    }
}

impl From<f64> for JsonVal {
    fn from(v: f64) -> JsonVal {
        JsonVal::Num(v)
    }
}

impl From<&str> for JsonVal {
    fn from(v: &str) -> JsonVal {
        JsonVal::Str(v.to_string())
    }
}

impl From<String> for JsonVal {
    fn from(v: String) -> JsonVal {
        JsonVal::Str(v)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out
}

/// Renders one flat JSON object from `(key, value)` pairs, keys in the
/// given order.
pub fn json_object(pairs: &[(&str, JsonVal)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "\"{}\": ", json_escape(k)).unwrap();
        match v {
            JsonVal::Int(n) => write!(out, "{n}").unwrap(),
            JsonVal::Num(x) if x.is_finite() => write!(out, "{x:.2}").unwrap(),
            JsonVal::Num(_) => out.push_str("null"),
            JsonVal::Str(s) => write!(out, "\"{}\"", json_escape(s)).unwrap(),
        }
    }
    out.push('}');
    out
}

/// Writes a JSON array of pre-rendered object rows to
/// `$FINECC_BENCH_JSON_DIR/<file_name>` (directory defaults to the
/// **workspace root**, regardless of the invocation cwd, so the
/// committed `BENCH_*.json` artifacts always land in the same place;
/// created if missing) so the perf trajectory is tracked as a
/// machine-readable artifact across PRs. Returns the path written.
///
/// The write is **atomic** (temp file in the same directory, then
/// rename): a sweep that panics or is killed mid-write can never leave
/// a torn half-JSON behind in place of a committed `BENCH_*.json`
/// artifact — the old file survives intact until the new one is fully
/// on disk.
pub fn write_bench_json(file_name: &str, rows: &[String]) -> std::io::Result<std::path::PathBuf> {
    let mut body = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str("  ");
        body.push_str(row);
        body.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    body.push_str("]\n");
    write_artifact(file_name, &body)
}

/// The directory the bench artifacts land in: `$FINECC_BENCH_JSON_DIR`,
/// else the workspace root as recorded at compile time; a relocated
/// binary (different checkout/machine) falls back to the cwd rather
/// than resurrecting the build machine's path.
pub fn artifact_dir() -> String {
    std::env::var("FINECC_BENCH_JSON_DIR").unwrap_or_else(|_| {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        if std::path::Path::new(root).is_dir() {
            root.to_string()
        } else {
            ".".to_string()
        }
    })
}

/// Writes `contents` to `<artifact_dir()>/<file_name>` **atomically**
/// (temp file in the same directory, then rename — see
/// [`write_bench_json`]; this is its write path, shared so the
/// Prometheus `.prom` snapshots get the same no-torn-file guarantee as
/// the `BENCH_*.json` rows). Returns the path written.
pub fn write_artifact(file_name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = artifact_dir();
    std::fs::create_dir_all(&dir)?;
    let path = std::path::Path::new(&dir).join(file_name);
    // Same-directory temp file so the rename cannot cross filesystems.
    let tmp = std::path::Path::new(&dir).join(format!(".{file_name}.{}.tmp", std::process::id()));
    std::fs::write(&tmp, contents)?;
    match std::fs::rename(&tmp, &path) {
        Ok(()) => Ok(path),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// A self-call chain of configurable depth: `m0` calls `m1` calls …
/// `m{d-1}`, which finally writes a field. Used by the locking-overhead
/// experiment (E5): the paper's P2 is that per-message schemes pay one
/// control per link.
pub fn chain_schema(depth: usize) -> String {
    assert!(depth >= 1);
    let mut s = String::from("class chain {\n  fields { x: integer; y: integer; }\n");
    for i in 0..depth {
        let body = if i + 1 < depth {
            format!("send m{}(p1) to self", i + 1)
        } else {
            "x := x + p1".to_string()
        };
        // Every intermediate method also reads a field, so per-message RW
        // classification is Read until the last link (the escalation
        // pattern of §3).
        let read = if i + 1 < depth {
            "var t := y + 1;\n    "
        } else {
            ""
        };
        writeln!(s, "  method m{i}(p1) is\n    {read}{body}\n  end").unwrap();
    }
    s.push_str("}\n");
    s
}

/// `n` writer methods on one class, each touching its own field — the
/// pseudo-conflict workload (P4/E7): all pairs commute under TAVs, none
/// under RW.
pub fn disjoint_writers_schema(n: usize) -> String {
    let mut s = String::from("class wide {\n  fields {\n");
    for i in 0..n {
        writeln!(s, "    f{i}: integer;").unwrap();
    }
    s.push_str("  }\n");
    for i in 0..n {
        writeln!(s, "  method w{i}(p1) is\n    f{i} := f{i} + p1\n  end").unwrap();
    }
    s.push_str("}\n");
    s
}

/// The System R escalation pattern (P3/E6): `outer` reads a field (a
/// *reader* to a per-message monitor), then self-sends `bump`, a writer
/// on the same data. Two concurrent `outer`s on one instance both take
/// read locks and both then need write locks: a guaranteed deadlock
/// under per-message RW; the TAV scheme announces Write up front.
pub const ESCALATION_SCHEMA: &str = r#"
class hot {
  fields { n: integer; }
  method outer(p1) is
    var t := n + p1;
    send bump(t) to self
  end
  method bump(v) is
    n := n + 1
  end
}
"#;

/// A branch-conservatism schema (E8): `maybe` writes `g` only when the
/// argument is positive. The TAV must assume the write always happens;
/// run-time field locking only locks what the execution touches.
pub const BRANCHY_SCHEMA: &str = r#"
class branchy {
  fields { f: integer; g: integer; }
  method maybe(p1) is
    if p1 > 0 then
      g := g + 1
    else
      f := f + 0 - 0 + f * 0 + 0;
      skip
    end
  end
  method reader is
    return g
  end
}
"#;

/// Builds an [`Env`] from source, panicking with context on failure
/// (experiment fixtures are static).
pub fn env_of(source: &str) -> Env {
    Env::from_source(source).expect("experiment schema compiles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_object_renders_and_escapes() {
        let row = json_object(&[
            ("scheme", JsonVal::from("mvcc")),
            ("threads", JsonVal::from(16usize)),
            ("txns_per_sec", JsonVal::from(1234.567)),
            ("label", JsonVal::from("a \"quoted\"\nname")),
        ]);
        assert_eq!(
            row,
            "{\"scheme\": \"mvcc\", \"threads\": 16, \"txns_per_sec\": 1234.57, \
             \"label\": \"a \\\"quoted\\\"\\nname\"}"
        );
    }

    #[test]
    fn write_bench_json_is_atomic_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("finecc-bench-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The env-var override is per-test-process global; restrict the
        // write to an isolated dir via a direct path check instead.
        std::env::set_var("FINECC_BENCH_JSON_DIR", &dir);
        let path = write_bench_json("BENCH_test.json", &["{\"a\": 1}".to_string()]).unwrap();
        assert!(path.ends_with("BENCH_test.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("[\n") && body.ends_with("]\n"));
        // Rewriting replaces the file atomically; no temp file remains.
        write_bench_json("BENCH_test.json", &["{\"a\": 2}".to_string()]).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["BENCH_test.json"], "no temp residue: {names:?}");
        std::env::remove_var("FINECC_BENCH_JSON_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_threads_falls_back_to_default() {
        if std::env::var("FINECC_BENCH_THREADS").is_err() {
            assert_eq!(bench_threads(&[1, 2, 16]), vec![1, 2, 16]);
        }
    }

    #[test]
    fn chain_schema_compiles_at_depths() {
        for d in [1, 2, 8, 32] {
            let env = env_of(&chain_schema(d));
            let chain = env.schema.class_by_name("chain").unwrap();
            assert_eq!(env.schema.class(chain).methods.len(), d);
            // TAV of m0 covers the final write.
            let t = env.compiled.class(chain);
            let m0 = t.index_of("m0").unwrap();
            assert!(!t.tav(m0).is_read_only());
            if d > 1 {
                assert!(t.dav(m0).is_read_only(), "m0's own code only reads");
            }
        }
    }

    #[test]
    fn disjoint_writers_all_commute_under_tav() {
        let env = env_of(&disjoint_writers_schema(6));
        let wide = env.schema.class_by_name("wide").unwrap();
        let t = env.compiled.class(wide);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(t.commute(i, j), i != j, "w{i} vs w{j}");
            }
        }
    }

    #[test]
    fn escalation_schema_classifies_as_expected() {
        let env = env_of(ESCALATION_SCHEMA);
        let hot = env.schema.class_by_name("hot").unwrap();
        let t = env.compiled.class(hot);
        let outer = t.index_of("outer").unwrap();
        assert!(
            t.dav(outer).is_read_only(),
            "outer alone looks like a reader"
        );
        assert!(!t.tav(outer).is_read_only(), "its TAV announces the write");
    }

    #[test]
    fn branchy_schema_tav_is_conservative() {
        let env = env_of(BRANCHY_SCHEMA);
        let b = env.schema.class_by_name("branchy").unwrap();
        let t = env.compiled.class(b);
        let maybe = t.index_of("maybe").unwrap();
        let reader = t.index_of("reader").unwrap();
        // The TAV writes g although most executions don't.
        assert!(!t.commute(maybe, reader));
    }
}
