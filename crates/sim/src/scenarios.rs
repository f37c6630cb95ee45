//! The §5.2 scenario: transactions T1–T4 under every scheme.
//!
//! * **T1** sends `m1` to one instance `i` of `c1`.
//! * **T2** sends `m1` to all instances of class `c1` (deep extent).
//! * **T3** sends `m3` to several instances of the domain rooted at `c1`.
//! * **T4** sends `m4` to all instances of the domain rooted at `c2`.
//!
//! The paper concludes: under transitive access vectors either
//! `T1‖T3‖T4` or `T2‖T3‖T4` is possible; with read/write modes alone only
//! `T1‖T3` or `T1‖T4`; in the relational decomposition only `T1‖T3` or
//! `T3‖T4` (and `T1‖T3‖T4` if `m2` spared the key field).
//!
//! [`scenario_outcomes`] reproduces this mechanically: it executes each
//! transaction's locking against a live scheme and probes every pair for
//! compatibility (a short lock timeout turns "would wait" into a detected
//! conflict), then enumerates the maximal concurrent sets.

use crate::figure1::{populate, Figure1Db};
use finecc_lang::ExecError;
use finecc_model::Value;
use finecc_runtime::{CcScheme, SchemeKind, Txn};
use std::fmt;
use std::time::Duration;

/// The four §5.2 transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TxnKind {
    /// `m1` to one instance of c1.
    T1,
    /// `m1` to all instances of class c1.
    T2,
    /// `m3` to some instances of domain c1.
    T3,
    /// `m4` to all instances of domain c2.
    T4,
}

impl TxnKind {
    /// All four, in order.
    pub const ALL: [TxnKind; 4] = [TxnKind::T1, TxnKind::T2, TxnKind::T3, TxnKind::T4];
}

impl fmt::Display for TxnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The outcome of probing one scheme.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scheme name.
    pub scheme: &'static str,
    /// `pairwise[i][j]`: can Tj run while Ti holds its locks?
    pub pairwise: [[bool; 4]; 4],
    /// Maximal sets of mutually compatible transactions (size ≥ 2),
    /// sorted lexicographically.
    pub maximal_sets: Vec<Vec<TxnKind>>,
}

impl ScenarioOutcome {
    /// Whether a set is admitted (appears in, or is covered by, a maximal
    /// set).
    pub fn admits(&self, set: &[TxnKind]) -> bool {
        self.maximal_sets
            .iter()
            .any(|m| set.iter().all(|t| m.contains(t)))
    }

    /// Renders the pairwise matrix like the paper's commutativity tables.
    pub fn to_table_string(&self) -> String {
        let mut out = String::from("     T1   T2   T3   T4\n");
        for (i, k) in TxnKind::ALL.iter().enumerate() {
            out.push_str(&format!("{k:?}  "));
            for j in 0..4 {
                let cell = if i == j {
                    " -  "
                } else if self.pairwise[i][j] {
                    "yes "
                } else {
                    "no  "
                };
                out.push_str(&format!("{cell} "));
            }
            out.push('\n');
        }
        out
    }
}

/// Runs one transaction's full execution (locks held afterwards).
fn run(
    scheme: &dyn CcScheme,
    fx: &Figure1Db,
    txn: &mut Txn,
    kind: TxnKind,
    shared_instance: bool,
) -> Result<(), ExecError> {
    match kind {
        TxnKind::T1 => scheme
            .send(txn, fx.c1_instances[0], "m1", &[Value::Int(1)])
            .map(drop),
        TxnKind::T2 => scheme
            .send_all(txn, fx.c1, "m1", &[Value::Int(1)])
            .map(drop),
        TxnKind::T3 => {
            // "several instances of the domain rooted at c1": one c1 and
            // one c2 instance; optionally sharing T1's instance.
            let mut oids = vec![fx.c2_instances[0]];
            if shared_instance {
                oids.push(fx.c1_instances[0]);
            } else {
                oids.push(fx.c1_instances[1]);
            }
            oids.sort_unstable();
            scheme.send_some(txn, fx.c1, &oids, "m3", &[]).map(drop)
        }
        TxnKind::T4 => scheme
            .send_all(txn, fx.c2, "m4", &[Value::Int(1), Value::Int(1)])
            .map(drop),
    }
}

/// Probes all pairs of §5.2 transactions under `kind`, on `source`
/// (Figure 1 or the no-key-write variant). `shared_instance` makes T3
/// touch T1's instance (the paper's parenthetical caveat).
pub fn scenario_outcomes(kind: SchemeKind, source: &str, shared_instance: bool) -> ScenarioOutcome {
    let mut pairwise = [[false; 4]; 4];
    for (i, ti) in TxnKind::ALL.iter().enumerate() {
        for (j, tj) in TxnKind::ALL.iter().enumerate() {
            if i == j {
                continue;
            }
            // Fresh database per probe so residue cannot leak.
            let fx = populate(source, 2, Duration::from_millis(40));
            let scheme = kind.build(fx.env.clone());
            let mut txn_i = scheme.begin();
            run(scheme.as_ref(), &fx, &mut txn_i, *ti, shared_instance)
                .expect("first transaction must succeed on an idle database");
            let mut txn_j = scheme.begin();
            let ok = match run(scheme.as_ref(), &fx, &mut txn_j, *tj, shared_instance) {
                Ok(()) => true,
                Err(ExecError::ConcurrencyAbort { .. }) => false,
                Err(other) => panic!("unexpected scenario error: {other}"),
            };
            pairwise[i][j] = ok;
            scheme.abort(txn_j);
            scheme.abort(txn_i);
        }
    }

    // Maximal mutually compatible sets (pairwise compatibility is
    // sufficient under 2PL: lock sets are additive).
    let compatible = |i: usize, j: usize| pairwise[i][j] && pairwise[j][i];
    let mut sets: Vec<Vec<TxnKind>> = Vec::new();
    for mask in 1u32..16 {
        let members: Vec<usize> = (0..4).filter(|&b| mask & (1 << b) != 0).collect();
        if members.len() < 2 {
            continue;
        }
        let all_compat = members
            .iter()
            .enumerate()
            .all(|(a, &i)| members[a + 1..].iter().all(|&j| compatible(i, j)));
        if all_compat {
            sets.push(members.iter().map(|&i| TxnKind::ALL[i]).collect());
        }
    }
    // Keep only maximal sets.
    let maximal_sets: Vec<Vec<TxnKind>> = sets
        .iter()
        .filter(|s| {
            !sets
                .iter()
                .any(|t| t.len() > s.len() && s.iter().all(|x| t.contains(x)))
        })
        .cloned()
        .collect();
    let mut maximal_sets = maximal_sets;
    maximal_sets.sort();
    maximal_sets.dedup();

    ScenarioOutcome {
        scheme: kind.name(),
        pairwise,
        maximal_sets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::{FIGURE1_NO_KEY_WRITE_SOURCE, FIGURE1_SOURCE};

    use TxnKind::*;

    /// The paper's headline result: TAVs admit T1‖T3‖T4 and T2‖T3‖T4.
    #[test]
    fn tav_admits_paper_sets() {
        let o = scenario_outcomes(SchemeKind::Tav, FIGURE1_SOURCE, false);
        assert_eq!(o.maximal_sets, vec![vec![T1, T3, T4], vec![T2, T3, T4]]);
    }

    /// §5.2: "With read and write access modes alone, either T1‖T3 …
    /// or T1‖T4."
    #[test]
    fn rw_admits_only_pairs() {
        let o = scenario_outcomes(SchemeKind::Rw, FIGURE1_SOURCE, false);
        assert_eq!(o.maximal_sets, vec![vec![T1, T3], vec![T1, T4]]);
    }

    /// §5.2: "in the associated relational schema … either T1‖T3, or
    /// T3‖T4 are allowed."
    #[test]
    fn relational_admits_its_pairs() {
        let o = scenario_outcomes(SchemeKind::Relational, FIGURE1_SOURCE, false);
        assert_eq!(o.maximal_sets, vec![vec![T1, T3], vec![T3, T4]]);
    }

    /// §5.2 remark: without the key write, the relational schema admits
    /// T1‖T3‖T4 — but still not T2‖T3‖T4.
    #[test]
    fn relational_no_key_write_variant() {
        let o = scenario_outcomes(SchemeKind::Relational, FIGURE1_NO_KEY_WRITE_SOURCE, false);
        assert!(o.admits(&[T1, T3, T4]), "sets: {:?}", o.maximal_sets);
        assert!(!o.admits(&[T2, T3, T4]), "sets: {:?}", o.maximal_sets);
    }

    /// Field locking sits between RW and TAV here: same maximal sets as
    /// RW on disjoint instances (extent ops serialize it) …
    #[test]
    fn fieldlock_disjoint() {
        let o = scenario_outcomes(SchemeKind::FieldLock, FIGURE1_SOURCE, false);
        assert_eq!(o.maximal_sets, vec![vec![T1, T3], vec![T1, T4]]);
    }

    /// … but when T1 and T3 share an instance, RW conflicts (whole-
    /// instance W vs R) while field locking still admits them (disjoint
    /// fields) — and so does the TAV scheme (m1 and m3 commute).
    #[test]
    fn shared_instance_separates_schemes() {
        let rw = scenario_outcomes(SchemeKind::Rw, FIGURE1_SOURCE, true);
        assert!(!rw.admits(&[T1, T3]));
        let fl = scenario_outcomes(SchemeKind::FieldLock, FIGURE1_SOURCE, true);
        assert!(fl.admits(&[T1, T3]));
        let tav = scenario_outcomes(SchemeKind::Tav, FIGURE1_SOURCE, true);
        assert!(tav.admits(&[T1, T3]));
    }

    /// The paper's observation that TAV and relational parallelism are
    /// *incomparable*: TAV admits T1‖T4 (relational does not, key write);
    /// relational admits nothing TAV misses here, but under RW vs
    /// relational each admits a set the other rejects.
    #[test]
    fn incomparability_observed() {
        let tav = scenario_outcomes(SchemeKind::Tav, FIGURE1_SOURCE, false);
        let rel = scenario_outcomes(SchemeKind::Relational, FIGURE1_SOURCE, false);
        let rw = scenario_outcomes(SchemeKind::Rw, FIGURE1_SOURCE, false);
        assert!(tav.admits(&[T1, T4]) && !rel.admits(&[T1, T4]));
        assert!(rel.admits(&[T3, T4]) && !rw.admits(&[T3, T4]));
        assert!(rw.admits(&[T1, T4]) && !rel.admits(&[T1, T4]));
    }

    #[test]
    fn table_renders() {
        let o = scenario_outcomes(SchemeKind::Tav, FIGURE1_SOURCE, false);
        let t = o.to_table_string();
        assert!(t.contains("T1") && t.contains("yes"));
        assert!(o.admits(&[T3, T4]));
        assert!(!o.admits(&[T1, T2]));
    }
}
