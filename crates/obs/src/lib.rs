//! # finecc-obs — low-overhead observability for the runtime
//!
//! Three instruments — each subsystem's declared counters, and the
//! phase histograms and contention counts behind one [`Obs`] handle —
//! and one registry that exports them:
//!
//! * [`mod@counters`] — the one **declaration** each subsystem's counter
//!   family is expanded from ([`counters!`]: live [`Cell`]s, `Copy`
//!   snapshot, kind-aware `since`, named export), and [`MetricSet`],
//!   the by-name reader for code that holds no concrete owner.
//! * [`hist`] — lock-free log-bucketed latency **histograms** for the
//!   timed [`Phase`]s (txn end-to-end, commit sub-phases, lock wait,
//!   group-commit ack, checkpoint), mergeable across thread shards,
//!   quantile error bounded by the log base (1/32).
//! * [`contention`] — a striped, OID-keyed **contention registry**
//!   counting lock blocks, ww conflicts and SSI aborts per causing
//!   object/field; [`Obs::hottest`] ranks them by exact cumulative
//!   total.
//! * [`registry`] — the unified **metrics registry**: every
//!   subsystem's counters under stable dotted names with labels,
//!   pulled as a snapshot and rendered as Prometheus text exposition.
//!
//! There is no knob: an [`Obs`] is built from [`ObsConfig::enabled`]
//! (histograms + contention) or [`ObsConfig::disabled`]. A **disabled**
//! [`Obs`] holds no state at all (`inner: None`), so every probe is one
//! branch on an `Option` and — because timing probes get their
//! `Instant` through [`Obs::clock`], which returns `None` when
//! disabled — the disabled path takes no clock readings, allocates
//! nothing, and touches no shared cache line.

#![forbid(unsafe_code)]

pub mod contention;
pub mod counters;
pub mod hist;
pub mod registry;

pub use contention::{ContentionKind, ContentionRegistry, HotObject, ObjKey, KIND_COUNT};
pub use counters::Cell;
pub use hist::{HistSnapshot, Histogram, LatencySummary, ShardedHistogram};
pub use registry::{Collector, MetricKind, MetricSet, MetricsRegistry, Sample};

use std::time::Instant;

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

/// Whether to record. [`ObsConfig::disabled`] is the runtime default —
/// schemes built without explicit observability pay only an
/// `Option::None` branch per probe site.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    enabled: bool,
}

impl ObsConfig {
    /// Record nothing; every probe is a single branch.
    pub fn disabled() -> ObsConfig {
        ObsConfig { enabled: false }
    }

    /// Phase histograms + contention counts on.
    pub fn enabled() -> ObsConfig {
        ObsConfig { enabled: true }
    }

    /// `true` when the instruments record.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

struct Inner {
    phases: [ShardedHistogram; PHASE_COUNT],
    contention: ContentionRegistry,
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

    /// A recording handle for [`ObsConfig::enabled`], the disabled
    /// handle for [`ObsConfig::disabled`].
    pub fn new(config: ObsConfig) -> Obs {
        if !config.is_enabled() {
            return Obs::disabled();
        }
        Obs {
            inner: Some(Box::new(Inner {
                phases: std::array::from_fn(|_| ShardedHistogram::new()),
                contention: ContentionRegistry::new(),
            })),
        }
    }

    /// `true` when the instruments record.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A timestamp for a later [`Obs::record_since`] — `None` (no
    /// clock read at all) on a disabled handle.
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
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
            i.phases[phase as usize].record(ns);
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
            i.contention.record(key, kind);
        }
    }

    /// Merged quantile summary for one phase (cumulative since
    /// startup).
    pub fn phase_summary(&self, phase: Phase) -> LatencySummary {
        match &self.inner {
            Some(i) => i.phases[phase as usize].merged().summary(),
            None => LatencySummary::default(),
        }
    }

    /// The `k` hottest objects by cumulative event totals since
    /// startup (exact and time-independent).
    pub fn hottest(&self, k: usize) -> Vec<HotObject> {
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

    /// The report of everything recorded since `before`: per-phase
    /// quantiles and contention totals (by counter subtraction), plus
    /// the current hottest objects (the registry accumulates per scheme
    /// instance — see `ContentionRegistry`).
    pub fn report_since(&self, before: &ObsSnapshot) -> ObsReport {
        let Some(i) = &self.inner else {
            return ObsReport::default();
        };
        let mut report = ObsReport {
            enabled: true,
            hot: i.contention.top_k(TOP_K),
            ..ObsReport::default()
        };
        for (idx, phase) in i.phases.iter().enumerate() {
            let now = phase.merged();
            report.phases[idx] = match before.phases.get(idx) {
                Some(b) => now.since(b).summary(),
                None => now.summary(),
            };
        }
        let totals = i.contention.totals();
        for (idx, t) in totals.iter().enumerate() {
            report.contention[idx] = t - before.contention[idx];
        }
        report
    }

    /// Emits this handle's live metrics into a registry collector:
    /// per-phase cumulative quantiles (labelled `phase="…"`),
    /// contention totals (labelled `kind="…"`), and the event totals
    /// of the hottest objects. Nothing on a disabled handle.
    pub fn collect_metrics(&self, c: &mut Collector) {
        let Some(i) = &self.inner else {
            return;
        };
        collect_obs(
            c,
            |phase| i.phases[phase as usize].merged().summary(),
            i.contention.totals(),
            &i.contention.top_k(4),
        );
    }
}

/// The `finecc.obs.*` samples, spelt once for the live handle and for a
/// frozen report: per recorded phase the cumulative quantiles
/// (unrecorded phases would only be noise), contention totals by kind,
/// and the hottest objects' event totals.
fn collect_obs<'a>(
    c: &mut Collector,
    cumulative: impl Fn(Phase) -> LatencySummary,
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
    }
    for (kind, total) in ContentionKind::ALL.iter().zip(contention) {
        c.counter_with("finecc.obs.contention", &[("kind", kind.name())], total);
    }
    for hot in hot {
        let object = hot.key.to_string();
        let total = hot.total() as f64;
        c.gauge_with("finecc.obs.hot_score", &[("object", &object)], total);
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

/// The observability report embedded in the sim's `ExecReport`.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// `false` when the scheme ran with observability disabled (all
    /// other fields are zero then).
    pub enabled: bool,
    /// Quantile summaries indexed by [`Phase`] (the report window:
    /// everything since the `before` snapshot).
    pub phases: [LatencySummary; PHASE_COUNT],
    /// The hottest objects by cumulative contention, hottest first (at
    /// most [`TOP_K`]).
    pub hot: Vec<HotObject>,
    /// Contention totals indexed by [`ContentionKind`].
    pub contention: [u64; KIND_COUNT],
}

impl ObsReport {
    /// Summary for one phase.
    pub fn phase(&self, phase: Phase) -> LatencySummary {
        self.phases[phase as usize]
    }

    /// Windowed total for one contention class.
    pub fn contention_total(&self, kind: ContentionKind) -> u64 {
        self.contention[kind as usize]
    }

    /// Emits this frozen report's metrics into a registry collector.
    pub fn collect_metrics(&self, c: &mut Collector) {
        if self.enabled {
            collect_obs(c, |phase| self.phase(phase), self.contention, &self.hot);
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
        assert_eq!(obs.phase_summary(Phase::TxnLatency).count, 0);
        assert_eq!(obs.contention_totals(), [0; KIND_COUNT]);
        let report = obs.report_since(&obs.snapshot());
        assert!(!report.enabled);
        assert_eq!(report.hot.len(), 0);
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
        assert_eq!(report.hot.len(), 1);
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
    fn non_recording_config_collapses_to_disabled() {
        let obs = Obs::new(ObsConfig::disabled());
        assert!(!obs.is_enabled());
        assert!(ObsConfig::enabled().is_enabled());
        assert!(!ObsConfig::disabled().is_enabled());
    }
}
