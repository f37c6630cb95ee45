//! # finecc-obs — low-overhead observability for the runtime
//!
//! Three instruments — each subsystem's declared counters, and the
//! phase histograms and contention counts behind one [`Obs`] handle —
//! and one registry that exports them:
//!
//! * [`mod@counters`] — the one **declaration** each subsystem's counter
//!   family is expanded from ([`counters!`]: live [`Counter`]s, striped
//!   by thread slot, and [`Gauge`]s, a `Copy` snapshot, kind-aware
//!   `since`, named export), and [`MetricSet`],
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
//! Beside them, [`slot`] defines the **thread slot** — the one index by
//! which every per-thread stripe in the workspace is picked (counters,
//! histogram shards, lock-table held lists and class-lock partitions,
//! the version heap's registries) — and [`SlotIds`], the transaction
//! ids that carry it.
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
pub mod slot;

pub use contention::{ContentionKind, ContentionRegistry, HotObject, ObjKey, KIND_COUNT};
pub use counters::{Counter, Gauge};
pub use hist::{HistSnapshot, Histogram, LatencySummary, ShardedHistogram};
pub use registry::{Collector, MetricKind, MetricSet, MetricsRegistry, Sample};
pub use slot::{test_threads, thread_slot, CachePadded, SlotIds, ID_SLOTS};

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

    /// Emits this handle's live metrics into a registry collector: the
    /// cumulative quantiles of every recorded phase (labelled
    /// `phase="…"`; unrecorded phases would only be noise), contention
    /// totals (labelled `kind="…"`), and the event totals of the
    /// hottest objects. Nothing on a disabled handle.
    pub fn collect_metrics(&self, c: &mut Collector) {
        let Some(i) = &self.inner else {
            return;
        };
        for phase in Phase::ALL {
            let cum = i.phases[phase as usize].merged().summary();
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
        for (kind, total) in ContentionKind::ALL.iter().zip(i.contention.totals()) {
            c.counter_with("finecc.obs.contention", &[("kind", kind.name())], total);
        }
        for hot in i.contention.top_k(4) {
            let object = hot.key.to_string();
            let total = hot.total() as f64;
            c.gauge_with("finecc.obs.hot_score", &[("object", &object)], total);
        }
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
        assert_eq!(obs.hottest(8).len(), 0);
    }

    #[test]
    fn enabled_records_phases_and_contention() {
        let obs = Obs::new(ObsConfig::enabled());
        let t0 = obs.clock();
        assert!(t0.is_some());
        obs.record_since(Phase::TxnLatency, t0);
        obs.record_phase_ns(Phase::LockWait, 1_000);
        obs.contend(ObjKey::Instance(9), ContentionKind::WwConflict);
        assert_eq!(obs.phase_summary(Phase::TxnLatency).count, 1);
        assert_eq!(obs.phase_summary(Phase::LockWait).count, 1);
        assert_eq!(
            obs.contention_totals()[ContentionKind::WwConflict as usize],
            1
        );
        assert_eq!(obs.hottest(8).len(), 1);
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
