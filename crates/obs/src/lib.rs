//! # finecc-obs — low-overhead observability for the runtime
//!
//! The live telemetry plane behind one [`Obs`] handle:
//!
//! * [`hist`] — lock-free log-bucketed latency **histograms** for the
//!   timed [`Phase`]s (txn end-to-end, commit sub-phases, lock wait,
//!   group-commit ack, checkpoint), mergeable across thread shards,
//!   quantile error bounded by the log base (1/32).
//! * [`window`] — a rotating ring of **time-windowed** views over
//!   those histograms (boundary-snapshot subtraction; the record path
//!   stays untouched), so quantiles answer "over the last N seconds"
//!   as well as "since startup".
//! * [`contention`] — a striped, OID-keyed **contention registry**
//!   attributing lock blocks, ww conflicts, SSI aborts, and read
//!   retries to the causing objects/fields, with an **EWMA-decayed**
//!   score per object so [`Obs::hottest`] means "hottest *now*";
//!   feeds the heat-map tables and (per the ROADMAP) a future
//!   adaptive per-object meta-scheme.
//! * [`registry`] — the unified **metrics registry**: every
//!   subsystem's counters under stable dotted names with labels,
//!   pulled as a snapshot and rendered as Prometheus text exposition
//!   or JSON, with an optional background sampler thread
//!   ([`MetricsRegistry::start_sampler`]) appending time-series rows.
//! * [`mod@counters`] — the one **declaration** each subsystem's counter
//!   family is expanded from ([`counters!`]: live [`Cell`]s, `Copy`
//!   snapshot, kind-aware `since`, named export), and [`MetricSet`],
//!   the by-name reader for code that holds no concrete owner.
//! * [`ring`] — bounded per-thread SPSC **event rings** with a Chrome
//!   `trace_event` JSON exporter ([`ObsConfig::with_trace`]), sampled
//!   by transaction id.
//!
//! Everything hangs off an [`ObsConfig`]; a **disabled** [`Obs`] holds
//! no state at all (`inner: None`), so every probe is one branch on an
//! `Option` and — because timing probes get their `Instant` through
//! [`Obs::clock`], which returns `None` when disabled — the disabled
//! path takes no clock readings, allocates nothing, and touches no
//! shared cache line.

pub mod contention;
pub mod counters;
pub mod hist;
pub mod registry;
pub mod ring;
pub mod window;

pub use contention::{ContentionKind, ContentionRegistry, HotObject, ObjKey, KIND_COUNT};
pub use counters::Cell;
pub use hist::{HistSnapshot, Histogram, LatencySummary, ShardedHistogram};
pub use registry::{Collector, MetricKind, MetricSet, MetricsRegistry, MetricsSampler, Sample};
pub use ring::{Event, EventKind, TraceCollector};
pub use window::WindowRing;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The latency distributions the runtime records, one histogram each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Transaction end-to-end: first `begin` to final commit/abort,
    /// across retries.
    TxnLatency = 0,
    /// The whole commit call.
    CommitTotal = 1,
    /// Commit: timestamp draw + validation (SSI's dangerous-structure
    /// check included — it gates the draw's visibility).
    CommitTsDraw = 2,
    /// Commit: WAL append + group-commit ack (durable-before-visible).
    CommitWalAck = 3,
    /// Commit: version-chain `commit_ts` flips.
    CommitFlip = 4,
    /// Commit: watermark publish + in-order wait.
    CommitPublish = 5,
    /// Lock-manager block time (granted waits only).
    LockWait = 6,
    /// WAL group-commit ack wait inside `append`.
    GroupCommitAck = 7,
    /// Checkpoint write end-to-end (quiesce + encode + fsync + rename).
    Checkpoint = 8,
}

/// Number of [`Phase`]s.
pub const PHASE_COUNT: usize = 9;

impl Phase {
    /// Every phase, in index order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::TxnLatency,
        Phase::CommitTotal,
        Phase::CommitTsDraw,
        Phase::CommitWalAck,
        Phase::CommitFlip,
        Phase::CommitPublish,
        Phase::LockWait,
        Phase::GroupCommitAck,
        Phase::Checkpoint,
    ];

    /// Stable snake_case name for tables and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Phase::TxnLatency => "txn",
            Phase::CommitTotal => "commit",
            Phase::CommitTsDraw => "commit_ts_draw",
            Phase::CommitWalAck => "commit_wal_ack",
            Phase::CommitFlip => "commit_flip",
            Phase::CommitPublish => "commit_publish",
            Phase::LockWait => "lock_wait",
            Phase::GroupCommitAck => "group_commit_ack",
            Phase::Checkpoint => "checkpoint",
        }
    }
}

/// What to record. [`ObsConfig::disabled`] is the runtime default —
/// schemes built without explicit observability pay only an
/// `Option::None` branch per probe site.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Record the [`Phase`] latency histograms.
    pub histograms: bool,
    /// Record per-object contention attribution.
    pub contention: bool,
    /// Export a Chrome trace here on [`Obs::export_trace`].
    pub trace_path: Option<PathBuf>,
    /// Trace one in `trace_sample` transactions.
    pub trace_sample: u64,
    /// Per-thread trace ring capacity (events).
    pub ring_capacity: usize,
    /// Width of one histogram window (the windowed-quantile horizon is
    /// `window_width * window_count`).
    pub window_width: Duration,
    /// Windows retained in the rotating ring.
    pub window_count: usize,
    /// Half-life of the decayed contention score: an object's score
    /// halves every `half_life` once events stop.
    pub half_life: Duration,
}

/// Default window width (1 s).
pub const DEFAULT_WINDOW_WIDTH: Duration = Duration::from_millis(1000);
/// Default window count (8 s horizon).
pub const DEFAULT_WINDOW_COUNT: usize = 8;

impl ObsConfig {
    /// Record nothing; every probe is a single branch.
    pub fn disabled() -> ObsConfig {
        ObsConfig {
            histograms: false,
            contention: false,
            trace_path: None,
            trace_sample: 1,
            ring_capacity: 4096,
            window_width: DEFAULT_WINDOW_WIDTH,
            window_count: DEFAULT_WINDOW_COUNT,
            half_life: contention::DEFAULT_HALF_LIFE,
        }
    }

    /// Histograms + contention on, tracing off.
    pub fn enabled() -> ObsConfig {
        ObsConfig {
            histograms: true,
            contention: true,
            ..ObsConfig::disabled()
        }
    }

    /// [`ObsConfig::enabled`] plus tracing into `path`.
    pub fn with_trace(path: impl Into<PathBuf>) -> ObsConfig {
        ObsConfig {
            trace_path: Some(path.into()),
            ..ObsConfig::enabled()
        }
    }

    /// `true` when any instrument records.
    pub fn is_enabled(&self) -> bool {
        self.histograms || self.contention || self.trace_path.is_some()
    }
}

struct Inner {
    config: ObsConfig,
    epoch: Instant,
    phases: [ShardedHistogram; PHASE_COUNT],
    windows: WindowRing,
    contention: ContentionRegistry,
    trace: Option<TraceCollector>,
}

impl Inner {
    /// Rotates the window ring to `now_ns`, snapshotting the cumulative
    /// phase histograms if a window boundary has passed.
    fn tick_at(&self, now_ns: u64) {
        self.windows
            .tick(now_ns, || self.phases.iter().map(|p| p.merged()).collect());
    }

    /// The windowed snapshot of one phase — everything recorded over
    /// the ring's horizon (the whole run until the first rotation).
    fn windowed_snapshot(&self, idx: usize, now_ns: u64) -> HistSnapshot {
        let current = self.phases[idx].merged();
        match self.windows.baseline(idx, now_ns) {
            Some(base) => current.since(&base),
            None => current,
        }
    }
}

/// The observability handle shared by a scheme and its components
/// (wrapped in `Arc` by the runtime's `Env`). Disabled handles carry
/// no state.
pub struct Obs {
    inner: Option<Box<Inner>>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}

impl Obs {
    /// A handle that records nothing.
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// A handle recording per `config` (a non-recording config yields
    /// the disabled handle).
    pub fn new(config: ObsConfig) -> Obs {
        if !config.is_enabled() {
            return Obs::disabled();
        }
        let trace = config
            .trace_path
            .as_ref()
            .map(|_| TraceCollector::new(config.ring_capacity, config.trace_sample));
        Obs {
            inner: Some(Box::new(Inner {
                epoch: Instant::now(),
                phases: std::array::from_fn(|_| ShardedHistogram::new()),
                windows: WindowRing::new(config.window_width, config.window_count),
                contention: ContentionRegistry::with_half_life(config.half_life),
                trace,
                config,
            })),
        }
    }

    /// `true` when any instrument records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A timestamp for a later [`Obs::record_since`] — `None` (no
    /// clock read at all) unless histograms are recording.
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        match &self.inner {
            Some(i) if i.config.histograms => Some(Instant::now()),
            _ => None,
        }
    }

    /// Records the elapsed time since a [`Obs::clock`] timestamp into
    /// `phase`; a `None` start is a no-op.
    #[inline]
    pub fn record_since(&self, phase: Phase, start: Option<Instant>) {
        if let Some(t0) = start {
            self.record_phase_ns(phase, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Records a pre-measured duration into `phase`.
    #[inline]
    pub fn record_phase_ns(&self, phase: Phase, ns: u64) {
        if let Some(i) = &self.inner {
            if i.config.histograms {
                i.phases[phase as usize].record(ns);
            }
        }
    }

    /// A multi-lap timer for the commit path's consecutive segments.
    #[inline]
    pub fn phase_timer(&self) -> PhaseTimer<'_> {
        let now = self.clock();
        PhaseTimer {
            obs: self,
            start: now,
            last: now,
        }
    }

    /// Attributes one contention event to `key`.
    #[inline]
    pub fn contend(&self, key: ObjKey, kind: ContentionKind) {
        if let Some(i) = &self.inner {
            if i.config.contention {
                i.contention.record(key, kind);
            }
        }
    }

    /// `true` when transaction `txn` should emit trace events.
    #[inline]
    pub fn trace_sampled(&self, txn: u64) -> bool {
        match &self.inner {
            Some(i) => i.trace.as_ref().is_some_and(|t| t.sampled(txn)),
            None => false,
        }
    }

    /// Nanoseconds since this handle's epoch (0 when disabled — only
    /// meaningful for event timestamps, which a disabled handle never
    /// emits).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(i) => i.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Emits a trace event (no-op unless tracing; callers gate the
    /// argument work with [`Obs::trace_sampled`]).
    #[inline]
    pub fn emit(&self, kind: EventKind, t_ns: u64, dur_ns: u64, txn: u64, oid: u64) {
        if let Some(i) = &self.inner {
            if let Some(trace) = &i.trace {
                trace.emit(Event {
                    kind,
                    t_ns,
                    dur_ns,
                    txn,
                    oid,
                });
            }
        }
    }

    /// Merged quantile summary for one phase (cumulative since
    /// startup/reset).
    pub fn phase_summary(&self, phase: Phase) -> LatencySummary {
        match &self.inner {
            Some(i) => i.phases[phase as usize].merged().summary(),
            None => LatencySummary::default(),
        }
    }

    /// Rotates the window ring if a window boundary has passed since
    /// the last observation. Recording never rotates — observers do:
    /// the metrics sampler thread, windowed queries, or an explicit
    /// periodic call. A no-op on a disabled handle.
    pub fn tick(&self) {
        if let Some(i) = &self.inner {
            i.tick_at(i.epoch.elapsed().as_nanos() as u64);
        }
    }

    /// Quantile summary for one phase over the rotating window horizon
    /// (`window_width * window_count`, the whole run until the first
    /// rotation). Ticks the ring first, so calling this periodically
    /// is enough to keep windows rotating.
    pub fn windowed_phase_summary(&self, phase: Phase) -> LatencySummary {
        match &self.inner {
            Some(i) => {
                let now_ns = i.epoch.elapsed().as_nanos() as u64;
                i.tick_at(now_ns);
                i.windowed_snapshot(phase as usize, now_ns).summary()
            }
            None => LatencySummary::default(),
        }
    }

    /// Every retained window of one phase as standalone snapshots,
    /// oldest first, closed windows then the open tail. Merging them
    /// reproduces the cumulative histogram exactly (no sample is lost
    /// across a rotation boundary).
    pub fn window_deltas(&self, phase: Phase) -> Vec<HistSnapshot> {
        match &self.inner {
            Some(i) => {
                i.tick_at(i.epoch.elapsed().as_nanos() as u64);
                i.windows
                    .deltas(phase as usize, &i.phases[phase as usize].merged())
            }
            None => Vec::new(),
        }
    }

    /// The `k` hottest objects by *recency-weighted* contention: EWMA
    /// scores decayed to now, so formerly-hot objects fall out of the
    /// top-K once the workload moves on (half-life set by
    /// [`ObsConfig::half_life`]).
    pub fn hottest(&self, k: usize) -> Vec<HotObject> {
        match &self.inner {
            Some(i) => i.contention.top_k_decayed(k, i.contention.now_ns()),
            None => Vec::new(),
        }
    }

    /// The `k` hottest objects by cumulative event totals since
    /// startup/reset (time-independent; what end-of-run tables print).
    pub fn hottest_cumulative(&self, k: usize) -> Vec<HotObject> {
        match &self.inner {
            Some(i) => i.contention.top_k(k),
            None => Vec::new(),
        }
    }

    /// Per-class contention totals summed over the registry's stripes.
    pub fn contention_totals(&self) -> [u64; KIND_COUNT] {
        match &self.inner {
            Some(i) => i.contention.totals(),
            None => [0; KIND_COUNT],
        }
    }

    /// Copies every phase's counters and the contention totals, for
    /// windowed reporting via [`Obs::report_since`].
    pub fn snapshot(&self) -> ObsSnapshot {
        match &self.inner {
            Some(i) => ObsSnapshot {
                phases: i.phases.iter().map(|p| p.merged()).collect(),
                contention: i.contention.totals(),
            },
            None => ObsSnapshot::default(),
        }
    }

    /// The fixed-size report of everything recorded since `before`:
    /// per-phase quantiles (windowed by counter subtraction), the
    /// rotating-window quantiles as of now, plus the current hottest
    /// objects ranked by decayed score (the registry accumulates per
    /// scheme instance — see `ContentionRegistry`).
    pub fn report_since(&self, before: &ObsSnapshot) -> ObsReport {
        let Some(i) = &self.inner else {
            return ObsReport::default();
        };
        let now_ns = i.epoch.elapsed().as_nanos() as u64;
        i.tick_at(now_ns);
        let mut report = ObsReport {
            enabled: true,
            ..ObsReport::default()
        };
        for (idx, phase) in i.phases.iter().enumerate() {
            let now = phase.merged();
            report.windowed[idx] = match i.windows.baseline(idx, now_ns) {
                Some(base) => now.since(&base).summary(),
                None => now.summary(),
            };
            let windowed = match before.phases.get(idx) {
                Some(b) => now.since(b),
                None => now,
            };
            report.phases[idx] = windowed.summary();
        }
        let totals = i.contention.totals();
        for (idx, t) in totals.iter().enumerate() {
            report.contention[idx] = t - before.contention[idx];
        }
        for (slot, hot) in report
            .hot
            .iter_mut()
            .zip(i.contention.top_k_decayed(TOP_K, i.contention.now_ns()))
        {
            *slot = Some(hot);
        }
        report
    }

    /// Exports the trace to the configured [`ObsConfig::trace_path`], if
    /// tracing; returns the path and event count written.
    pub fn export_trace(&self) -> std::io::Result<Option<(PathBuf, usize)>> {
        let Some(i) = &self.inner else {
            return Ok(None);
        };
        let (Some(trace), Some(path)) = (&i.trace, &i.config.trace_path) else {
            return Ok(None);
        };
        let n = trace.export_chrome_trace(path)?;
        Ok(Some((path.clone(), n)))
    }

    /// Resets histograms, the window ring, and the contention registry
    /// (not the trace).
    pub fn reset(&self) {
        if let Some(i) = &self.inner {
            for p in &i.phases {
                p.reset();
            }
            i.windows.reset();
            i.contention.reset();
        }
    }

    /// Emits this handle's live metrics into a registry collector:
    /// per-phase cumulative and windowed quantiles (labelled
    /// `phase="…"`), contention totals (labelled `kind="…"`), and the
    /// decayed scores of the hottest objects. Nothing on a disabled
    /// handle.
    pub fn collect_metrics(&self, c: &mut Collector) {
        let Some(i) = &self.inner else {
            return;
        };
        let now_ns = i.epoch.elapsed().as_nanos() as u64;
        i.tick_at(now_ns);
        collect_obs(
            c,
            |phase| i.phases[phase as usize].merged().summary(),
            |phase| i.windowed_snapshot(phase as usize, now_ns).summary(),
            i.contention.totals(),
            &i.contention.top_k_decayed(4, i.contention.now_ns()),
        );
    }
}

/// The `finecc.obs.*` samples, spelt once for the live handle and for a
/// frozen report: per recorded phase the cumulative and windowed
/// quantiles (`windowed` is only asked about a phase that recorded —
/// unrecorded ones would only be noise), contention totals by kind,
/// and the hottest objects' decayed scores.
fn collect_obs<'a>(
    c: &mut Collector,
    cumulative: impl Fn(Phase) -> LatencySummary,
    windowed: impl Fn(Phase) -> LatencySummary,
    contention: [u64; KIND_COUNT],
    hot: impl IntoIterator<Item = &'a HotObject>,
) {
    for phase in Phase::ALL {
        let cum = cumulative(phase);
        if cum.count == 0 {
            continue;
        }
        let labels = [("phase", phase.name())];
        c.counter_with("finecc.obs.phase.count", &labels, cum.count);
        c.gauge_with("finecc.obs.phase.p50_ns", &labels, cum.p50 as f64);
        c.gauge_with("finecc.obs.phase.p99_ns", &labels, cum.p99 as f64);
        c.gauge_with("finecc.obs.phase.max_ns", &labels, cum.max as f64);
        c.gauge_with("finecc.obs.phase.mean_ns", &labels, cum.mean as f64);
        let win = windowed(phase);
        c.gauge_with("finecc.obs.phase.window_count", &labels, win.count as f64);
        c.gauge_with("finecc.obs.phase.window_p50_ns", &labels, win.p50 as f64);
        c.gauge_with("finecc.obs.phase.window_p99_ns", &labels, win.p99 as f64);
    }
    for (kind, total) in ContentionKind::ALL.iter().zip(contention) {
        c.counter_with("finecc.obs.contention", &[("kind", kind.name())], total);
    }
    for hot in hot {
        let object = hot.key.to_string();
        c.gauge_with("finecc.obs.hot_score", &[("object", &object)], hot.score);
    }
}

/// Times consecutive segments of one code path: each [`PhaseTimer::lap`]
/// records the span since the previous lap, [`PhaseTimer::finish`]
/// records the total. All no-ops (no clock reads) on a disabled handle.
pub struct PhaseTimer<'a> {
    obs: &'a Obs,
    start: Option<Instant>,
    last: Option<Instant>,
}

impl PhaseTimer<'_> {
    /// Records the segment since the previous lap (or construction)
    /// into `phase`.
    #[inline]
    pub fn lap(&mut self, phase: Phase) {
        if let Some(prev) = self.last {
            let now = Instant::now();
            self.obs
                .record_phase_ns(phase, (now - prev).as_nanos() as u64);
            self.last = Some(now);
        }
    }

    /// Nanoseconds since construction (`None` on a disabled handle) —
    /// for callers that also want the total as a trace span.
    #[inline]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.start.map(|t0| t0.elapsed().as_nanos() as u64)
    }

    /// Records the total since construction into `phase`.
    #[inline]
    pub fn finish(self, phase: Phase) {
        if let Some(t0) = self.start {
            self.obs
                .record_phase_ns(phase, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Counters copied out by [`Obs::snapshot`], subtracted by
/// [`Obs::report_since`].
#[derive(Clone, Debug, Default)]
pub struct ObsSnapshot {
    phases: Vec<HistSnapshot>,
    contention: [u64; KIND_COUNT],
}

/// Top-K rows carried in reports.
pub const TOP_K: usize = 8;

/// The fixed-size (`Copy`) observability report embedded in the sim's
/// `ExecReport`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObsReport {
    /// `false` when the scheme ran with observability disabled (all
    /// other fields are zero then).
    pub enabled: bool,
    /// Quantile summaries indexed by [`Phase`] (the report window:
    /// everything since the `before` snapshot).
    pub phases: [LatencySummary; PHASE_COUNT],
    /// Rotating-window quantile summaries indexed by [`Phase`]: the
    /// last `window_width * window_count` of the run as of the report
    /// instant.
    pub windowed: [LatencySummary; PHASE_COUNT],
    /// The hottest objects by decayed contention score, hottest first.
    pub hot: [Option<HotObject>; TOP_K],
    /// Contention totals indexed by [`ContentionKind`].
    pub contention: [u64; KIND_COUNT],
}

impl ObsReport {
    /// Summary for one phase.
    pub fn phase(&self, phase: Phase) -> LatencySummary {
        self.phases[phase as usize]
    }

    /// Rotating-window summary for one phase.
    pub fn windowed_phase(&self, phase: Phase) -> LatencySummary {
        self.windowed[phase as usize]
    }

    /// The populated hottest-object rows.
    pub fn hottest(&self) -> impl Iterator<Item = &HotObject> {
        self.hot.iter().flatten()
    }

    /// Windowed total for one contention class.
    pub fn contention_total(&self, kind: ContentionKind) -> u64 {
        self.contention[kind as usize]
    }

    /// Emits this frozen report's metrics into a registry collector.
    pub fn collect_metrics(&self, c: &mut Collector) {
        if self.enabled {
            collect_obs(
                c,
                |phase| self.phase(phase),
                |phase| self.windowed_phase(phase),
                self.contention,
                self.hottest(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_cheaply() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        assert!(obs.clock().is_none(), "no clock read when disabled");
        obs.record_since(Phase::TxnLatency, obs.clock());
        obs.record_phase_ns(Phase::LockWait, 123);
        obs.contend(ObjKey::Instance(1), ContentionKind::LockBlock);
        assert!(!obs.trace_sampled(0));
        assert_eq!(obs.phase_summary(Phase::TxnLatency).count, 0);
        assert_eq!(obs.contention_totals(), [0; KIND_COUNT]);
        let report = obs.report_since(&obs.snapshot());
        assert!(!report.enabled);
        assert_eq!(report.hottest().count(), 0);
    }

    #[test]
    fn enabled_records_phases_and_contention() {
        let obs = Obs::new(ObsConfig::enabled());
        let before = obs.snapshot();
        let t0 = obs.clock();
        assert!(t0.is_some());
        obs.record_since(Phase::TxnLatency, t0);
        obs.record_phase_ns(Phase::LockWait, 1_000);
        obs.contend(ObjKey::Instance(9), ContentionKind::WwConflict);
        let report = obs.report_since(&before);
        assert!(report.enabled);
        assert_eq!(report.phase(Phase::TxnLatency).count, 1);
        assert_eq!(report.phase(Phase::LockWait).count, 1);
        assert_eq!(report.contention_total(ContentionKind::WwConflict), 1);
        assert_eq!(report.hottest().count(), 1);
    }

    #[test]
    fn report_since_windows_phase_counts() {
        let obs = Obs::new(ObsConfig::enabled());
        obs.record_phase_ns(Phase::CommitTotal, 10);
        let mid = obs.snapshot();
        obs.record_phase_ns(Phase::CommitTotal, 20);
        obs.record_phase_ns(Phase::CommitTotal, 30);
        let report = obs.report_since(&mid);
        assert_eq!(report.phase(Phase::CommitTotal).count, 2);
    }

    #[test]
    fn phase_timer_laps_segments() {
        let obs = Obs::new(ObsConfig::enabled());
        let mut t = obs.phase_timer();
        t.lap(Phase::CommitTsDraw);
        t.lap(Phase::CommitFlip);
        t.finish(Phase::CommitTotal);
        for p in [Phase::CommitTsDraw, Phase::CommitFlip, Phase::CommitTotal] {
            assert_eq!(obs.phase_summary(p).count, 1, "{}", p.name());
        }
        // Total covers the laps.
        assert!(
            obs.phase_summary(Phase::CommitTotal).max >= obs.phase_summary(Phase::CommitTsDraw).max
        );
    }

    #[test]
    fn trace_roundtrip_via_config() {
        let path = std::env::temp_dir().join(format!("finecc-obs-lib-{}.json", std::process::id()));
        let obs = Obs::new(ObsConfig::with_trace(&path));
        assert!(obs.trace_sampled(0) && obs.trace_sampled(7));
        obs.emit(EventKind::Begin, obs.now_ns(), 0, 7, 0);
        obs.emit(EventKind::Commit, obs.now_ns(), 42, 7, 3);
        let (written, n) = obs.export_trace().unwrap().expect("trace configured");
        assert_eq!(written, path);
        assert_eq!(n, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_recording_config_collapses_to_disabled() {
        let obs = Obs::new(ObsConfig::disabled());
        assert!(!obs.is_enabled());
        assert!(ObsConfig::enabled().is_enabled());
        assert!(!ObsConfig::disabled().is_enabled());
    }
}
