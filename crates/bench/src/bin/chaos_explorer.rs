//! Seeded chaos exploration across the scheme × durability matrix.
//!
//! Default mode sweeps a fixed batch of seeds over all six schemes at
//! every durability level under the virtual-time scheduler, checking
//! the invariants (lost own writes, torn pairs, watermark regressions,
//! recovery = committed prefix) on every run. Any anomaly is
//! minimized and written out as a `finecc-chaos-repro v1` artifact,
//! and the process exits nonzero — this is the CI `chaos-smoke` job.
//!
//! `CHAOS_RECOVERY=1` sweeps the *durability pipeline* instead: every
//! checkpoint fault site × {io-error, crash} × hit is injected into
//! mid-run checkpoints of the mvcc schemes at `WalSync`, and every run
//! additionally verifies restartable recovery (crash the recovery at
//! each probe site, recover again, demand the identical state). Zero
//! anomalies expected — this is the recovery half of the CI
//! `recovery-smoke` job.
//!
//! `CHAOS_DEMO=1` instead demonstrates the full find → minimize →
//! replay loop on a *known* bug: it disables the mvcc commit barrier
//! (`wait_published`) through the fault plane, explores until the
//! resulting lost-own-write anomaly surfaces, shrinks the schedule,
//! replays the repro file, and asserts the anomaly reproduces.
//!
//! Environment:
//! * `CHAOS_SEEDS`       — seeds per cell (default 10; 2 in the
//!   recovery sweep)
//! * `CHAOS_SEED_START`  — first seed (default 1)
//! * `CHAOS_WORKERS`     — workers per scenario (default 3)
//! * `CHAOS_OPS`         — ops per worker (default 6; 8 in the
//!   recovery sweep so checkpoints land mid-run)
//! * `CHAOS_HITS`        — fault hits swept per site in the recovery
//!   sweep (default 2: the genesis checkpoint and the first online one)
//! * `CHAOS_OUT`         — repro artifact directory (default
//!   `target/chaos-repros`)
//! * `CHAOS_RECOVERY`    — run the checkpoint/recovery fault sweep
//! * `CHAOS_DEMO`        — run the known-bug demo instead of the sweep

#![forbid(unsafe_code)]

use finecc_chaos::{FaultKind, FaultPlan, FaultSpec, Site};
use finecc_obs::MetricsRegistry;
use finecc_runtime::{DurabilityLevel, SchemeKind};
use finecc_sim::chaos::{
    explore, minimize, pinned, replay_repro, run_chaos, write_repro, Anomaly, ChaosReport,
    ChaosScenario,
};
use std::path::{Path, PathBuf};

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn out_dir() -> PathBuf {
    std::env::var("CHAOS_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/chaos-repros"))
}

/// Writes a Prometheus metrics snapshot of a failing run next to its
/// minimized repro (`<name>.metrics.prom`), so the run's facts —
/// commits, retries, anomaly counts by kind, checkpoint outcomes,
/// virtual ticks — travel with the reproduction artifact.
fn write_metrics_snapshot(repro: &Path, scheme: &str, cell: &str, seed: u64, r: &ChaosReport) {
    let mut kinds: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for a in &r.anomalies {
        *kinds.entry(a.kind()).or_insert(0) += 1;
    }
    let kinds: Vec<(&'static str, u64)> = kinds.into_iter().collect();
    let facts = (
        r.commits,
        r.retries,
        r.exhausted,
        r.failed,
        r.log_failures,
        r.checkpoints,
        r.checkpoint_failures,
        r.outcome.ticks,
    );
    let seed_label = seed.to_string();
    let reg = MetricsRegistry::new();
    reg.register_fn(
        &[("scheme", scheme), ("cell", cell), ("seed", &seed_label)],
        move |c| {
            c.counter("finecc.chaos.commits", facts.0);
            c.counter("finecc.chaos.retries", facts.1);
            c.counter("finecc.chaos.exhausted", facts.2);
            c.counter("finecc.chaos.failed", facts.3);
            c.counter("finecc.chaos.log_failures", facts.4);
            c.counter("finecc.chaos.checkpoints", facts.5);
            c.counter("finecc.chaos.checkpoint_failures", facts.6);
            c.counter("finecc.chaos.ticks", facts.7);
            for (k, n) in &kinds {
                c.counter_with("finecc.chaos.anomalies", &[("kind", k)], *n);
            }
        },
    );
    let path = repro.with_extension("metrics.prom");
    if let Err(e) = std::fs::write(&path, reg.render_prometheus()) {
        eprintln!("  (could not write metrics snapshot: {e})");
    }
}

fn main() {
    if std::env::var("CHAOS_DEMO").is_ok_and(|v| v != "0") {
        demo_known_bug();
        return;
    }
    if std::env::var("CHAOS_RECOVERY").is_ok_and(|v| v != "0") {
        recovery_sweep();
        return;
    }
    sweep();
}

/// The CI smoke sweep: fixed seed batch, all schemes, all durability
/// levels, zero anomalies expected.
fn sweep() {
    let start = env_u64("CHAOS_SEED_START", 1);
    let count = env_u64("CHAOS_SEEDS", 10);
    let workers = env_u64("CHAOS_WORKERS", 3) as usize;
    let ops = env_u64("CHAOS_OPS", 6) as usize;
    let levels = [
        DurabilityLevel::None,
        DurabilityLevel::Wal,
        DurabilityLevel::WalSync,
    ];
    let mut runs = 0u64;
    let mut commits = 0u64;
    let mut retries = 0u64;
    let mut ticks = 0u64;
    let mut failures = 0u32;
    println!(
        "chaos sweep: seeds {start}..{} x 6 schemes x 3 durability levels",
        start + count
    );
    for kind in SchemeKind::ALL {
        for level in levels {
            for seed in start..start + count {
                let mut sc = ChaosScenario::new(kind, seed).durable(level);
                sc.workers = workers;
                sc.ops_per_worker = ops;
                let report = match run_chaos(&sc) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("FAIL {kind}/{} seed {seed}: io error {e}", level.name());
                        failures += 1;
                        continue;
                    }
                };
                runs += 1;
                commits += report.commits;
                retries += report.retries;
                ticks += report.outcome.ticks;
                if !report.anomalies.is_empty() {
                    failures += 1;
                    let minimized = minimize(&sc, &report.outcome.decisions, 200);
                    let path = out_dir().join(format!(
                        "anomaly-{}-{}-seed{seed}.repro",
                        kind.name(),
                        level.name()
                    ));
                    let pin = pinned(&sc, &minimized);
                    if let Err(e) = write_repro(&path, &pin, &minimized) {
                        eprintln!("  (could not write repro: {e})");
                    }
                    write_metrics_snapshot(&path, kind.name(), level.name(), seed, &report);
                    eprintln!(
                        "FAIL {kind}/{} seed {seed}: {} anomalies, repro at {}",
                        level.name(),
                        report.anomalies.len(),
                        path.display()
                    );
                    for a in &report.anomalies {
                        eprintln!("  - {a}");
                    }
                }
            }
        }
    }
    println!(
        "{runs} runs, {commits} commits, {retries} retries, {ticks} virtual ticks, {failures} failures"
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

/// The durability-pipeline sweep: inject an io-error or crash at every
/// checkpoint fault site × hit into mid-run checkpoints of the mvcc
/// schemes at `WalSync` (hit 0 is the genesis checkpoint at attach),
/// plus a fault-free baseline cell per scheme. Every run also checks
/// recovery = acked prefix and — via `verify_restartable` — that a
/// recovery crashed at any probe site recovers identically on restart.
fn recovery_sweep() {
    let start = env_u64("CHAOS_SEED_START", 1);
    let count = env_u64("CHAOS_SEEDS", 2);
    let workers = env_u64("CHAOS_WORKERS", 3) as usize;
    let ops = env_u64("CHAOS_OPS", 8) as usize;
    let hits = env_u64("CHAOS_HITS", 2);
    let kinds = [FaultKind::IoError, FaultKind::Crash];
    // One fault-free cell (None), then the full site × kind × hit grid.
    let mut cells: Vec<Option<(Site, FaultKind, u64)>> = vec![None];
    for site in Site::CHECKPOINT {
        for kind in kinds {
            for hit in 0..hits {
                cells.push(Some((site, kind, hit)));
            }
        }
    }
    let mut runs = 0u64;
    let mut commits = 0u64;
    let mut checkpoints = 0u64;
    let mut refused = 0u64;
    let mut failures = 0u32;
    println!(
        "recovery sweep: seeds {start}..{} x 2 mvcc schemes x {} fault cells \
         (restartable recovery verified on every run)",
        start + count,
        cells.len()
    );
    for kind in [SchemeKind::Mvcc, SchemeKind::MvccSsi] {
        for cell in &cells {
            for seed in start..start + count {
                let mut sc = ChaosScenario::new(kind, seed).durable(DurabilityLevel::WalSync);
                sc.workers = workers;
                sc.ops_per_worker = ops;
                sc.checkpoint_every = 2;
                sc.verify_restartable = true;
                let label = match cell {
                    Some((site, fk, hit)) => {
                        sc = sc.with_faults(FaultPlan::of([FaultSpec::once(*site, *hit, *fk)]));
                        format!("{}@{}#{hit}", fk.name(), site.name())
                    }
                    None => "baseline".to_string(),
                };
                let report = match run_chaos(&sc) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("FAIL {kind}/{label} seed {seed}: io error {e}");
                        failures += 1;
                        continue;
                    }
                };
                runs += 1;
                commits += report.commits;
                checkpoints += report.checkpoints;
                refused += report.checkpoint_failures;
                if !report.anomalies.is_empty() {
                    failures += 1;
                    let minimized = minimize(&sc, &report.outcome.decisions, 200);
                    let path = out_dir().join(format!(
                        "recovery-anomaly-{}-{label}-seed{seed}.repro",
                        kind.name()
                    ));
                    let pin = pinned(&sc, &minimized);
                    if let Err(e) = write_repro(&path, &pin, &minimized) {
                        eprintln!("  (could not write repro: {e})");
                    }
                    write_metrics_snapshot(&path, kind.name(), &label, seed, &report);
                    eprintln!(
                        "FAIL {kind}/{label} seed {seed}: {} anomalies, repro at {}",
                        report.anomalies.len(),
                        path.display()
                    );
                    for a in &report.anomalies {
                        eprintln!("  - {a}");
                    }
                }
            }
        }
    }
    println!(
        "{runs} runs, {commits} commits, {checkpoints} checkpoints taken, \
         {refused} checkpoints refused by injected faults, {failures} failures"
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

/// The known-bug regression demo: disable the commit barrier, find the
/// lost-own-write anomaly, minimize, write a repro, replay it.
fn demo_known_bug() {
    let faults = FaultPlan::of([FaultSpec::always(
        Site::CommitPublishWait,
        FaultKind::Disable,
    )]);
    let base = ChaosScenario::new(SchemeKind::Mvcc, 0).with_faults(faults);
    println!("exploring with the wait_published commit barrier disabled…");
    let finding = explore(&base, 1..201, 400)
        .expect("exploration runs")
        .expect("a disabled commit barrier must eventually lose an own write");
    assert!(
        finding
            .report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::LostOwnWrite { .. })),
        "expected a lost own write, got {:?}",
        finding.report.anomalies
    );
    println!(
        "seed {} fails: {} (schedule {} decisions, minimized to {})",
        finding.seed,
        finding.report.anomalies[0],
        finding.report.outcome.decisions.len(),
        finding.minimized.len()
    );
    let sc = pinned(
        &ChaosScenario {
            seed: finding.seed,
            ..base
        },
        &finding.minimized,
    );
    let path = out_dir().join("lost-own-write.repro");
    write_repro(&path, &sc, &finding.minimized).expect("repro written");
    write_metrics_snapshot(&path, "mvcc", "demo", finding.seed, &finding.report);
    let replayed = replay_repro(&path).expect("repro replays");
    assert!(
        !replayed.anomalies.is_empty(),
        "replaying the minimized repro must reproduce the anomaly"
    );
    // And the direct (non-file) replay must agree byte-for-byte.
    let direct = run_chaos(&sc).expect("direct replay runs");
    assert_eq!(direct, replayed, "file round trip changes nothing");
    println!(
        "replayed {} → {} (deterministic, {} virtual ticks)",
        path.display(),
        replayed.anomalies[0],
        replayed.outcome.ticks
    );
}
