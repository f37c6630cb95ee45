//! The untraced run: the 13 end-to-end metrics of one workload.

use crate::driver::{run_slice, Instance, Totals};
use crate::json::Json;
use crate::oracle;
use crate::report::{Fingerprint, Measured, Report};
use crate::stats;
use crate::workload::{Inputs, Workload};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Measured slice per scheme per round. Short enough that a run of
/// `run_seconds` gives each scheme a dozen of them — quartiles over
/// half a dozen are too coarse — and long enough for tens of thousands
/// of transactions.
pub const SLICE: Duration = Duration::from_millis(250);
/// Per scheme, before the first measured slice.
pub const WARMUP: Duration = Duration::from_millis(250);
/// Set-up is repeated and its median reported, so that one slow
/// checkpoint fsync does not read as a regression.
pub const SETUPS: usize = 3;

/// Rounds and slice length for `seconds` of measurement over six
/// schemes: rounds are cut before the slice is.
pub fn plan(seconds: u64, schemes: usize) -> (usize, Duration) {
    let per_round = SLICE * schemes as u32;
    let rounds = (Duration::from_secs(seconds).as_nanos() / per_round.as_nanos()) as usize;
    if rounds == 0 {
        (1, Duration::from_secs(seconds) / schemes as u32)
    } else {
        (rounds, SLICE)
    }
}

/// A scratch directory under the output directory, removed on drop
/// (log directories of durable schemes live here).
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(out: &Path, tag: &str) -> Scratch {
        let dir = out.join(format!("scratch-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The whole set-up a user of the system pays before the first
/// transaction: generate inputs, then per scheme parse + compile +
/// populate + build.
pub struct Setup {
    pub inputs: Inputs,
    pub instances: Vec<Instance>,
    pub took: Duration,
    _scratch: Scratch,
}

impl Setup {
    pub fn run(w: &Workload, seed: u64, out: &Path, tag: &str, obs: bool) -> Setup {
        let scratch = Scratch::new(out, tag);
        let start = Instant::now();
        let inputs = w.generate(seed);
        let instances = Instance::build_all(w, &inputs, &scratch.0, obs);
        Setup {
            inputs,
            instances,
            took: start.elapsed(),
            _scratch: scratch,
        }
    }
}

/// Oracle verdicts and client-side counters per scheme, and the run's
/// totals: `(schemes, attempted, failed, correct)`.
pub fn verdicts<'a>(
    instances: impl Iterator<Item = (String, &'a Instance)>,
    inputs: &Inputs,
) -> (Json, u64, u64, bool) {
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let schemes = Json::obj(instances.map(|(label, inst)| {
        let t: &Totals = &inst.totals;
        let verdict = oracle::check_instance(inst, &inputs.population);
        let violation = u64::from(verdict.is_err());
        if let Err(e) = &verdict {
            eprintln!("ORACLE VIOLATION [{label}]: {e}");
        }
        if let Some(e) = &t.first_error {
            eprintln!("NON-RETRYABLE ERROR [{label}]: {e}");
        }
        attempted += t.attempted;
        failed += t.exhausted + t.failed + violation;
        correct &= verdict.is_ok();
        (
            label,
            Json::obj([
                ("attempted", Json::Num(t.attempted as f64)),
                ("committed", Json::Num(t.commits as f64)),
                ("retries_exhausted", Json::Num(t.exhausted as f64)),
                ("non_retryable", Json::Num(t.failed as f64)),
                ("retries", Json::Num(t.retries as f64)),
                ("retry_loop_gave_up", Json::Num(t.gave_up as f64)),
                ("scans", Json::Num(t.effect.scans as f64)),
                (
                    "oracle",
                    Json::str(verdict.err().unwrap_or_else(|| "ok".into())),
                ),
            ]),
        )
    }));
    (schemes, attempted, failed, correct)
}

pub fn run(w: &'static Workload, seed: u64, seconds: u64, out: &Path) -> Report {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for i in 0..SETUPS {
        drop(setup.take());
        let s = Setup::run(w, seed, out, &format!("setup{i}"), false);
        setup_s.push(s.took.as_secs_f64());
        setup = Some(s);
    }
    let Setup {
        inputs,
        mut instances,
        _scratch,
        ..
    } = setup.expect("at least one set-up");

    for inst in &mut instances {
        run_slice(inst, &inputs, WARMUP, None);
    }
    let n = instances.len();
    let (rounds, slice) = plan(seconds, n);
    let mut tps: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut latencies: Vec<Vec<u32>> = vec![Vec::new(); n];
    for round in 0..rounds {
        // Rotated order: a neighbour burst hits all schemes alike.
        for k in 0..n {
            let i = (round + k) % n;
            let s = run_slice(&mut instances[i], &inputs, slice, None);
            tps[i].push(s.tps);
            latencies[i].extend(s.latencies);
        }
    }

    let mut metrics = vec![Measured {
        name: "setup_s".into(),
        value: stats::median(&setup_s),
        iqr: Some(stats::iqr(&setup_s)),
        n: Some(SETUPS as u64),
        samples: setup_s,
    }];
    for (i, inst) in instances.iter().enumerate() {
        // The upper quartile, not the median: neighbour load on a shared
        // machine only ever lowers a slice, so the upper quartile moves
        // only when three quarters of a scheme's slices are hit. Over
        // ten runs it spread 5–13 % where the median spread 9–15 % (see
        // the README); every slice rate is in the result file (`samples`).
        let [_, _, q3] = stats::quartiles(&tps[i]);
        metrics.push(Measured {
            name: format!("tps.{}", inst.name()),
            value: q3,
            iqr: Some(stats::iqr(&tps[i])),
            n: Some(tps[i].len() as u64),
            samples: tps[i].clone(),
        });
    }
    for (i, inst) in instances.iter().enumerate() {
        metrics.push(Measured {
            name: format!("p50_us.{}", inst.name()),
            value: stats::percentile_ns(&mut latencies[i], 0.5) / 1e3,
            iqr: None,
            n: Some(latencies[i].len() as u64),
            samples: Vec::new(),
        });
    }
    let labelled = instances.iter().map(|i| (i.name().to_string(), i));
    let (schemes, attempted, failed, correct) = verdicts(labelled, &inputs);
    Report {
        fingerprint: Fingerprint {
            workload: w.name,
            seed,
            trace: false,
            seconds,
            rounds,
            slice_ms: slice.as_millis() as u64,
        },
        correct,
        attempted,
        failed,
        metrics,
        schemes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_cut_before_the_slice() {
        assert_eq!(plan(18, 6), (12, SLICE));
        assert_eq!(plan(10, 6), (6, SLICE));
        assert_eq!(plan(2, 6), (1, SLICE));
        assert_eq!(plan(1, 6), (1, Duration::from_secs(1) / 6));
    }
}
