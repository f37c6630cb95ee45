//! Wiring between schemes and the unified metrics registry.
//!
//! [`register_env_metrics`] attaches the environment-level *live*
//! sources every scheme shares — the observability plane (phase
//! quantiles, contention totals, the hottest objects' event totals)
//! and, when durability is attached, the WAL counters
//! (flusher queue depth, batch-size distribution, recovery progress).
//! Each scheme's [`crate::CcScheme::register_metrics`] builds on this,
//! adding its own counters (lock-manager stats for the 2PL schemes,
//! the version heap's stats for the mvcc schemes) under the same
//! labels.
//!
//! Everything here is pull-based: registration clones `Arc` handles
//! into closures, and nothing runs until a registry snapshot asks.
//! The measured paths never see the registry.

use crate::env::Env;
use crate::scheme::CcScheme;
use finecc_obs::{MetricSet, MetricsRegistry};
use std::sync::Arc;

/// Registers the environment's live metric sources (observability
/// plane + WAL, when attached) under `labels`.
pub fn register_env_metrics(reg: &MetricsRegistry, env: &Env, labels: &[(&str, &str)]) {
    let obs = Arc::clone(&env.obs);
    reg.register_fn(labels, move |c| obs.collect_metrics(c));
    if let Some(wal) = &env.wal {
        let wal = Arc::clone(wal);
        reg.register_fn(labels, move |c| wal.collect_metrics(c));
    }
}

/// One pull of `scheme`'s live sources, readable by dotted name — how
/// code behind `dyn CcScheme` reads a counter. A sample the scheme does
/// not emit (lock counters on mvcc, log counters without a log) is
/// `None`; two pulls difference with [`MetricSet::since`].
pub fn read_metrics(scheme: &dyn CcScheme) -> MetricSet {
    let reg = MetricsRegistry::new();
    scheme.register_metrics(&reg, &[]);
    MetricSet::of(&reg.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use finecc_lang::parser::FIGURE1_SOURCE;
    use finecc_obs::{Obs, ObsConfig, Phase};

    #[test]
    fn env_sources_pull_live_obs_counters() {
        let obs = Arc::new(Obs::new(ObsConfig::enabled()));
        let env = Env::from_source(FIGURE1_SOURCE)
            .unwrap()
            .with_obs(Arc::clone(&obs));
        let reg = MetricsRegistry::new();
        register_env_metrics(&reg, &env, &[("scheme", "test")]);
        assert!(
            !reg.snapshot()
                .iter()
                .any(|s| s.name == "finecc.obs.phase.count"),
            "no phase samples before anything records"
        );
        obs.record_phase_ns(Phase::CommitTotal, 1_000);
        let samples = reg.snapshot();
        let commit_count = samples
            .iter()
            .find(|s| {
                s.name == "finecc.obs.phase.count"
                    && s.labels.iter().any(|(k, v)| k == "phase" && v == "commit")
            })
            .expect("commit phase sample present");
        assert_eq!(commit_count.value, 1.0);
        assert!(
            commit_count
                .labels
                .iter()
                .any(|(k, v)| k == "scheme" && v == "test"),
            "registration labels ride on every sample"
        );
    }
}
