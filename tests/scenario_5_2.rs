//! Integration reproduction of the §5.2 locking-protocol walkthrough:
//! which of T1–T4 may run concurrently under each concurrency-control
//! scheme. These are the headline comparisons of the paper.

use finecc::runtime::SchemeKind;
use finecc::sim::figure1::{FIGURE1_NO_KEY_WRITE_SOURCE, FIGURE1_SOURCE};
use finecc::sim::scenario_outcomes;
use finecc::sim::TxnKind::*;

#[test]
fn paper_headline_either_t1_or_t2_with_t3_t4() {
    let o = scenario_outcomes(SchemeKind::Tav, FIGURE1_SOURCE, false);
    assert_eq!(
        o.maximal_sets,
        vec![vec![T1, T3, T4], vec![T2, T3, T4]],
        "thanks to transitive access vectors, either T1‖T3‖T4 or T2‖T3‖T4"
    );
}

#[test]
fn rw_loses_parallelism() {
    let o = scenario_outcomes(SchemeKind::Rw, FIGURE1_SOURCE, false);
    assert_eq!(o.maximal_sets, vec![vec![T1, T3], vec![T1, T4]]);
    // The sets the paper's scheme admits are strictly bigger.
    assert!(!o.admits(&[T1, T3, T4]));
    assert!(!o.admits(&[T2, T3, T4]));
}

#[test]
fn relational_is_incomparable_not_weaker() {
    let rel = scenario_outcomes(SchemeKind::Relational, FIGURE1_SOURCE, false);
    assert_eq!(rel.maximal_sets, vec![vec![T1, T3], vec![T3, T4]]);
    let rw = scenario_outcomes(SchemeKind::Rw, FIGURE1_SOURCE, false);
    // Relational admits T3‖T4 which RW refuses; RW admits T1‖T4 which
    // relational refuses: "permitted concurrent executions are
    // incomparable" (§5.2).
    assert!(rel.admits(&[T3, T4]) && !rw.admits(&[T3, T4]));
    assert!(rw.admits(&[T1, T4]) && !rel.admits(&[T1, T4]));
}

#[test]
fn tav_subsumes_both_comparisons_on_this_scenario() {
    // §5.2/§7: both kinds of separation (inheritance-predicative and
    // 1NF field grouping) are captured: every set the baselines admit
    // here, the TAV scheme admits too.
    let tav = scenario_outcomes(SchemeKind::Tav, FIGURE1_SOURCE, false);
    for kind in [SchemeKind::Rw, SchemeKind::Relational] {
        let other = scenario_outcomes(kind, FIGURE1_SOURCE, false);
        for set in &other.maximal_sets {
            assert!(
                tav.admits(set),
                "TAV must admit {set:?} admitted by {}",
                other.scheme
            );
        }
    }
}

#[test]
fn versioning_recovers_the_papers_maximal_sets() {
    // Beyond the paper: field-level write conflicts admit exactly what
    // the TAVs admit here (under snapshot isolation), and `mvcc-ssi`
    // admits the same overlaps at execution time — its return to
    // serializability is commit-time validation, not narrower admission.
    let tav = scenario_outcomes(SchemeKind::Tav, FIGURE1_SOURCE, false);
    for kind in [SchemeKind::Mvcc, SchemeKind::MvccSsi] {
        let o = scenario_outcomes(kind, FIGURE1_SOURCE, false);
        assert_eq!(o.maximal_sets, tav.maximal_sets, "{kind}");
    }
}

#[test]
fn no_key_write_remark() {
    // "T1‖T3‖T4 (but not T2‖T3‖T4) would have been allowed in the
    // relational schema if m2 did not modify the key field."
    let o = scenario_outcomes(SchemeKind::Relational, FIGURE1_NO_KEY_WRITE_SOURCE, false);
    assert!(o.admits(&[T1, T3, T4]), "{:?}", o.maximal_sets);
    assert!(!o.admits(&[T2, T3, T4]), "{:?}", o.maximal_sets);
}

#[test]
fn outcome_tables_render_for_all_schemes() {
    for kind in SchemeKind::ALL {
        let o = scenario_outcomes(kind, FIGURE1_SOURCE, false);
        let table = o.to_table_string();
        assert!(table.contains("T4"));
        assert!(
            o.maximal_sets.iter().all(|s| s.len() >= 2),
            "{kind}: maximal sets must have ≥ 2 members"
        );
        // T1 and T2 both write the same c1 data: never concurrent.
        assert!(!o.admits(&[T1, T2]), "{kind} must reject T1‖T2");
    }
}
