//! # finecc-bench — paper artefacts and the repo benchmark
//!
//! `src/bin/benchmark/` is the repo benchmark — the one place a
//! throughput or latency number comes from (its README has the
//! workloads, the metric names and the baseline tables). The other
//! binaries in `src/bin/` each print one of the paper's figures, tables
//! or problem cases and assert its shape (indexed in the root README's
//! evidence section). This library holds the synthetic schemas those
//! binaries share.

use finecc_runtime::Env;
use std::fmt::Write as _;

/// A self-call chain of configurable depth: `m0` calls `m1` calls …
/// `m{d-1}`, which finally writes a field. Used by the locking-overhead
/// experiment (E5): the paper's P2 is that per-message schemes pay one
/// control per link.
pub fn chain_schema(depth: usize) -> String {
    assert!(depth >= 1);
    let mut s = String::from("class chain {\n  fields { x: integer; y: integer; }\n");
    for i in 0..depth {
        let body = if i + 1 < depth {
            format!("send m{}(p1) to self", i + 1)
        } else {
            "x := x + p1".to_string()
        };
        // Every intermediate method also reads a field, so per-message RW
        // classification is Read until the last link (the escalation
        // pattern of §3).
        let read = if i + 1 < depth {
            "var t := y + 1;\n    "
        } else {
            ""
        };
        writeln!(s, "  method m{i}(p1) is\n    {read}{body}\n  end").unwrap();
    }
    s.push_str("}\n");
    s
}

/// `n` writer methods on one class, each touching its own field — the
/// pseudo-conflict workload (P4/E7): all pairs commute under TAVs, none
/// under RW.
pub fn disjoint_writers_schema(n: usize) -> String {
    let mut s = String::from("class wide {\n  fields {\n");
    for i in 0..n {
        writeln!(s, "    f{i}: integer;").unwrap();
    }
    s.push_str("  }\n");
    for i in 0..n {
        writeln!(s, "  method w{i}(p1) is\n    f{i} := f{i} + p1\n  end").unwrap();
    }
    s.push_str("}\n");
    s
}

/// The System R escalation pattern (P3/E6): `outer` reads a field (a
/// *reader* to a per-message monitor), then self-sends `bump`, a writer
/// on the same data. Two concurrent `outer`s on one instance both take
/// read locks and both then need write locks: a guaranteed deadlock
/// under per-message RW; the TAV scheme announces Write up front.
pub const ESCALATION_SCHEMA: &str = r#"
class hot {
  fields { n: integer; }
  method outer(p1) is
    var t := n + p1;
    send bump(t) to self
  end
  method bump(v) is
    n := n + 1
  end
}
"#;

/// A branch-conservatism schema (E8): `maybe` writes `g` only when the
/// argument is positive. The TAV must assume the write always happens;
/// run-time field locking only locks what the execution touches.
pub const BRANCHY_SCHEMA: &str = r#"
class branchy {
  fields { f: integer; g: integer; }
  method maybe(p1) is
    if p1 > 0 then
      g := g + 1
    else
      f := f + 0 - 0 + f * 0 + 0;
      skip
    end
  end
  method reader is
    return g
  end
}
"#;

/// Builds an [`Env`] from source, panicking with context on failure
/// (experiment fixtures are static).
pub fn env_of(source: &str) -> Env {
    Env::from_source(source).expect("experiment schema compiles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_schema_compiles_at_depths() {
        for d in [1, 2, 8, 32] {
            let env = env_of(&chain_schema(d));
            let chain = env.schema.class_by_name("chain").unwrap();
            assert_eq!(env.schema.class(chain).methods.len(), d);
            // TAV of m0 covers the final write.
            let t = env.compiled.class(chain);
            let m0 = t.index_of("m0").unwrap();
            assert!(!t.tav(m0).is_read_only());
            if d > 1 {
                assert!(t.dav(m0).is_read_only(), "m0's own code only reads");
            }
        }
    }

    #[test]
    fn disjoint_writers_all_commute_under_tav() {
        let env = env_of(&disjoint_writers_schema(6));
        let wide = env.schema.class_by_name("wide").unwrap();
        let t = env.compiled.class(wide);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(t.commute(i, j), i != j, "w{i} vs w{j}");
            }
        }
    }

    #[test]
    fn escalation_schema_classifies_as_expected() {
        let env = env_of(ESCALATION_SCHEMA);
        let hot = env.schema.class_by_name("hot").unwrap();
        let t = env.compiled.class(hot);
        let outer = t.index_of("outer").unwrap();
        assert!(
            t.dav(outer).is_read_only(),
            "outer alone looks like a reader"
        );
        assert!(!t.tav(outer).is_read_only(), "its TAV announces the write");
    }

    #[test]
    fn branchy_schema_tav_is_conservative() {
        let env = env_of(BRANCHY_SCHEMA);
        let b = env.schema.class_by_name("branchy").unwrap();
        let t = env.compiled.class(b);
        let maybe = t.index_of("maybe").unwrap();
        let reader = t.index_of("reader").unwrap();
        // The TAV writes g although most executions don't.
        assert!(!t.commute(maybe, reader));
    }
}
