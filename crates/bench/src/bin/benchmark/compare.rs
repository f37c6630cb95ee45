//! `--compare <a> <b>`: two result files (or two directories of them)
//! against the bounds in `BENCHMARK.json`.
//!
//! For every (workload, metric) present on both sides it prints both
//! medians, both IQRs and a verdict: `unresolved` when either side's
//! spread (IQR ÷ median) exceeds the metric's bound — the noise is
//! wider than the rule — otherwise `worse` / `better` when the medians
//! differ by more than the bound in that direction, else `same`.
//! Per-layer metrics have no bound and get a ratio only.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

/// A side's values of one metric: one per result file, or — with a
/// single file — that run's own median and spread.
#[derive(Clone, Debug, Default)]
pub struct Side {
    values: Vec<f64>,
    own_iqr: Option<f64>,
}

impl Side {
    pub fn median(&self) -> f64 {
        stats::median(&self.values)
    }

    pub fn iqr(&self) -> f64 {
        if self.values.len() == 1 {
            self.own_iqr.unwrap_or(0.0)
        } else {
            stats::iqr(&self.values)
        }
    }
}

pub fn verdict(a: &Side, b: &Side, bound: f64, higher_is_better: bool) -> Verdict {
    let (ma, mb) = (a.median(), b.median());
    if a.iqr() / ma.abs() > bound || b.iqr() / mb.abs() > bound {
        return Verdict::Unresolved;
    }
    let change = (mb - ma) / ma.abs() * if higher_is_better { 1.0 } else { -1.0 };
    if change < -bound {
        Verdict::Worse
    } else if change > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

type Table = BTreeMap<(String, String), Side>;

fn load(path: &Path, into: &mut Table) -> Result<(), String> {
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        for f in files {
            load(&f, into)?;
        }
        return Ok(());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    // Trace files share the directory; they are not results.
    let Some(workload) = doc
        .get("fingerprint")
        .and_then(|f| f.get("workload"))
        .and_then(Json::as_str)
    else {
        return Ok(());
    };
    for (name, m) in doc.get("metrics").map(Json::entries).unwrap_or_default() {
        let Some(value) = m.get("value").and_then(Json::as_f64) else {
            continue;
        };
        let side = into
            .entry((workload.to_string(), name.clone()))
            .or_default();
        side.values.push(value);
        side.own_iqr = m.get("iqr").and_then(Json::as_f64);
    }
    Ok(())
}

/// `name → (bound, higher_is_better)` from `BENCHMARK.json`; per-layer
/// metrics carry no bound.
fn rules(manifest: &Json) -> BTreeMap<String, (Option<f64>, bool)> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in manifest.get(key).map(Json::items).unwrap_or_default() {
            if let Some(name) = m.get("name").and_then(Json::as_str) {
                let higher = m.get("better").and_then(Json::as_str) == Some("higher");
                out.insert(
                    name.to_string(),
                    (m.get("bound").and_then(Json::as_f64), higher),
                );
            }
        }
    }
    out
}

/// Prints the table; `Ok(false)` when any bounded metric is `worse` or
/// `unresolved`.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let rules = rules(&Json::parse(&manifest)?);
    let (mut ta, mut tb) = (Table::new(), Table::new());
    load(a, &mut ta)?;
    load(b, &mut tb)?;
    println!(
        "{:<18} {:<30} {:>14} {:>12} {:>14} {:>12} {:>8}  verdict",
        "workload", "metric", "median(a)", "IQR(a)", "median(b)", "IQR(b)", "b/a"
    );
    let mut clean = true;
    for (key, sa) in &ta {
        let Some(sb) = tb.get(key) else { continue };
        let (bound, higher) = rules.get(&key.1).copied().unwrap_or((None, false));
        let word = match bound {
            None => "-".to_string(),
            Some(bound) => {
                let v = verdict(sa, sb, bound, higher);
                clean &= !matches!(v, Verdict::Worse | Verdict::Unresolved);
                format!("{v:?}").to_lowercase()
            }
        };
        println!(
            "{:<18} {:<30} {:>14.4} {:>12.4} {:>14.4} {:>12.4} {:>8.3}  {word}",
            key.0,
            key.1,
            sa.median(),
            sa.iqr(),
            sb.median(),
            sb.iqr(),
            sb.median() / sa.median()
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        Side {
            values: values.to_vec(),
            own_iqr: None,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let base = side(&[100.0, 101.0, 99.0, 100.0]);
        let up = side(&[120.0, 121.0, 119.0, 120.0]);
        assert_eq!(verdict(&base, &up, 0.1, true), Verdict::Better);
        assert_eq!(verdict(&base, &up, 0.1, false), Verdict::Worse);
        assert_eq!(verdict(&up, &base, 0.1, true), Verdict::Worse);
        assert_eq!(verdict(&base, &base, 0.1, true), Verdict::Same);
        assert_eq!(verdict(&base, &up, 0.25, true), Verdict::Same);
        let noisy = side(&[60.0, 100.0, 140.0, 100.0]);
        assert_eq!(verdict(&base, &noisy, 0.1, true), Verdict::Unresolved);
        // A single run brings its own in-run spread.
        let one = Side {
            values: vec![100.0],
            own_iqr: Some(30.0),
        };
        assert_eq!(verdict(&one, &base, 0.1, true), Verdict::Unresolved);
    }
}
