//! The unified metrics registry: every subsystem's counters and gauges
//! under stable dotted names, pulled on demand and rendered for
//! machines.
//!
//! A [`MetricsRegistry`] holds *sources* — closures registered with a
//! fixed label set (`scheme="mvcc"`, `contention="high"`, …) that fill
//! a [`Collector`] with [`Sample`]s when a snapshot is pulled. Sources
//! come in two flavors and both are first-class:
//!
//! * **live** — a closure over an `Arc` (the `Obs` handle, the `Wal`,
//!   the mvcc heap) that re-reads the counters on every pull.
//! * **frozen** — a closure over owned values (an `ExecReport`) whose
//!   samples never change; this is how a finished run is attached
//!   under its own labels (`finecc-sim`'s `ExecReport::register_metrics`).
//!
//! Metric names are dotted (`finecc.mvcc.commits`); the Prometheus
//! text renderer maps dots to underscores (`finecc_mvcc_commits`) as
//! that format requires. Collection and rendering sit entirely off the
//! measured paths — pulling a snapshot costs the sources' snapshot
//! reads, recording costs nothing new.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// How a metric behaves over time, for the Prometheus `# TYPE` line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone non-decreasing (event counts, bytes written).
    Counter,
    /// A level that can move both ways (queue depth, a quantile).
    Gauge,
}

impl MetricKind {
    /// Prometheus type keyword.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One collected metric value.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Stable dotted name (`finecc.wal.log_bytes`).
    pub name: String,
    /// Label pairs: the source's registration labels plus any the
    /// source added per-sample (e.g. `phase="commit"`).
    pub labels: Vec<(String, String)>,
    /// The value (counters are exact u64 counts widened to f64).
    pub value: f64,
    /// Counter or gauge.
    pub kind: MetricKind,
}

/// The unlabelled samples of one pull, readable by name — how code
/// that holds no concrete owner (anything behind a `dyn` scheme, a
/// finished run's report) reads a counter. A name nobody emitted is
/// `None`, never a silent zero: a scheme without a lock manager has no
/// `finecc.lock.requests`, and a misspelt name fails the `expect`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSet(BTreeMap<String, (MetricKind, f64)>);

impl MetricSet {
    /// The samples of `samples` that carry no label (pull the registry
    /// the sources were registered on with no labels).
    pub fn of(samples: &[Sample]) -> MetricSet {
        MetricSet(
            samples
                .iter()
                .filter(|s| s.labels.is_empty())
                .map(|s| (s.name.clone(), (s.kind, s.value)))
                .collect(),
        )
    }

    /// The value emitted under `name`, if any source emitted it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(_, v)| v)
    }

    /// What happened between `earlier` and `self`, by the kind rules
    /// of [`mod@crate::counters`]: counters are differenced (a name absent
    /// from `earlier` counts from zero), gauges keep `self`'s value.
    pub fn since(&self, earlier: &MetricSet) -> MetricSet {
        MetricSet(
            self.0
                .iter()
                .map(|(name, &(kind, now))| {
                    let v = match kind {
                        MetricKind::Counter => (now - earlier.get(name).unwrap_or(0.0)).max(0.0),
                        MetricKind::Gauge => now,
                    };
                    (name.clone(), (kind, v))
                })
                .collect(),
        )
    }

    /// Replays every sample under its own name and kind (a frozen
    /// source over a finished run).
    pub fn collect_metrics(&self, c: &mut Collector) {
        for (name, &(kind, value)) in &self.0 {
            c.sample(name, kind, value);
        }
    }
}

/// The sink a source fills during collection. Carries the source's
/// registration labels so every emitted sample is labeled consistently.
pub struct Collector {
    labels: Vec<(String, String)>,
    samples: Vec<Sample>,
}

impl Collector {
    fn new(labels: Vec<(String, String)>) -> Collector {
        Collector {
            labels,
            samples: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, extra: &[(&str, &str)], value: f64, kind: MetricKind) {
        let mut labels = self.labels.clone();
        labels.extend(
            extra
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string())),
        );
        self.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
            kind,
        });
    }

    /// Emits a sample of either kind (what [`crate::counters!`] and
    /// [`MetricSet::collect_metrics`] emit through).
    pub fn sample(&mut self, name: &str, kind: MetricKind, value: f64) {
        self.push(name, &[], value, kind);
    }

    /// Emits a counter sample.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.push(name, &[], value as f64, MetricKind::Counter);
    }

    /// Emits a counter sample with extra per-sample labels.
    pub fn counter_with(&mut self, name: &str, extra: &[(&str, &str)], value: u64) {
        self.push(name, extra, value as f64, MetricKind::Counter);
    }

    /// Emits a gauge sample.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.push(name, &[], value, MetricKind::Gauge);
    }

    /// Emits a gauge sample with extra per-sample labels.
    pub fn gauge_with(&mut self, name: &str, extra: &[(&str, &str)], value: f64) {
        self.push(name, extra, value, MetricKind::Gauge);
    }
}

type SourceFn = Box<dyn Fn(&mut Collector) + Send + Sync>;

struct Source {
    labels: Vec<(String, String)>,
    collect: SourceFn,
}

/// The pull-based registry. Cheap to share (`Arc`); sources are
/// appended under a mutex that is never touched by recording paths.
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<Vec<Source>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers a source under fixed labels. The closure is invoked on
    /// every [`MetricsRegistry::snapshot`].
    pub fn register_fn(
        &self,
        labels: &[(&str, &str)],
        collect: impl Fn(&mut Collector) + Send + Sync + 'static,
    ) {
        self.sources
            .lock()
            .expect("metrics registry poisoned")
            .push(Source {
                labels: labels
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                    .collect(),
                collect: Box::new(collect),
            });
    }

    /// Pulls every source, returning the samples sorted by
    /// `(name, labels)` so renders are deterministic.
    pub fn snapshot(&self) -> Vec<Sample> {
        let sources = self.sources.lock().expect("metrics registry poisoned");
        let mut out = Vec::new();
        for s in sources.iter() {
            let mut c = Collector::new(s.labels.clone());
            (s.collect)(&mut c);
            out.append(&mut c.samples);
        }
        drop(sources);
        out.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (one `# TYPE` line per metric name, dots mapped to underscores).
    pub fn render_prometheus(&self) -> String {
        render_prometheus(&self.snapshot())
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; dots (our separator)
/// map to underscores, anything else unexpected is folded the same way.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn prom_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn prom_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders pre-collected samples in the text exposition format (used by
/// both the registry and frozen-sample writers).
pub fn render_prometheus(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for s in samples {
        let name = prom_name(&s.name);
        if last_name != Some(s.name.as_str()) {
            writeln!(out, "# TYPE {name} {}", s.kind.name()).unwrap();
            last_name = Some(s.name.as_str());
        }
        out.push_str(&name);
        if !s.labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in s.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "{}=\"{}\"", prom_name(k), prom_label_value(v)).unwrap();
            }
            out.push('}');
        }
        writeln!(out, " {}", prom_value(s.value)).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn snapshot_pulls_sources_with_labels() {
        let reg = MetricsRegistry::new();
        reg.register_fn(&[("scheme", "mvcc")], |c| {
            c.counter("finecc.test.commits", 42);
            c.gauge_with("finecc.test.depth", &[("q", "wal")], 3.5);
        });
        let samples = reg.snapshot();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "finecc.test.commits");
        assert_eq!(samples[0].labels, vec![("scheme".into(), "mvcc".into())]);
        assert_eq!(samples[0].value, 42.0);
        assert_eq!(samples[1].labels.len(), 2, "extra label appended");
    }

    #[test]
    fn metric_set_reads_by_name_and_differences_by_kind() {
        let n = Arc::new(std::sync::atomic::AtomicU64::new(3));
        let reg = MetricsRegistry::new();
        let live = Arc::clone(&n);
        reg.register_fn(&[], move |c| {
            let n = live.load(Ordering::Relaxed);
            c.counter("finecc.test.commits", n);
            c.gauge("finecc.test.depth", n as f64);
            c.counter_with("finecc.test.commits", &[("phase", "x")], 99);
        });
        let before = MetricSet::of(&reg.snapshot());
        assert_eq!(before.get("finecc.test.commits"), Some(3.0), "unlabelled");
        assert_eq!(before.get("finecc.test.comits"), None, "no silent zero");
        n.store(5, Ordering::Relaxed);
        let delta = MetricSet::of(&reg.snapshot()).since(&before);
        assert_eq!(delta.get("finecc.test.commits"), Some(2.0));
        assert_eq!(delta.get("finecc.test.depth"), Some(5.0), "gauge kept");
        assert_eq!(delta.since(&MetricSet::default()), delta, "absent = 0");
        // Replayed under labels, it reads like the live source did.
        let frozen = MetricsRegistry::new();
        frozen.register_fn(&[("scheme", "x")], move |c| delta.collect_metrics(c));
        let text = frozen.render_prometheus();
        assert!(text.contains("# TYPE finecc_test_commits counter"));
        assert!(text.contains("finecc_test_commits{scheme=\"x\"} 2"));
        assert!(text.contains("finecc_test_depth{scheme=\"x\"} 5"));
    }

    #[test]
    fn prometheus_render_is_exposition_format() {
        let reg = MetricsRegistry::new();
        reg.register_fn(&[("scheme", "tav")], |c| {
            c.counter("finecc.lock.requests", 7);
            c.counter_with("finecc.lock.requests", &[("mode", "read")], 5);
        });
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE finecc_lock_requests counter"));
        assert!(text.contains("finecc_lock_requests{scheme=\"tav\"} 7"));
        assert!(text.contains("finecc_lock_requests{scheme=\"tav\",mode=\"read\"} 5"));
        // One TYPE line per metric name, not per sample.
        assert_eq!(text.matches("# TYPE").count(), 1);
    }

    #[test]
    fn label_values_escape() {
        let reg = MetricsRegistry::new();
        reg.register_fn(&[("object", "a\"b\\c")], |c| c.gauge("finecc.x", 1.0));
        let text = reg.render_prometheus();
        assert!(text.contains("object=\"a\\\"b\\\\c\""));
    }
}
