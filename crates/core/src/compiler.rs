//! The schema compiler: Definition 10 and the end-to-end pipeline.
//!
//! `TAV_{C,M} = ⊔ { DAV_{C',M'} : (C',M') ∈ Γ*(C,M) }` — the join of the
//! direct access vectors of every method that may run when `M` is sent to
//! a proper instance of `C`.
//!
//! Computed per class with one Tarjan pass over the late-binding
//! resolution graph: components arrive sink-first, every member of a
//! component shares the component's TAV (their reachable sets coincide —
//! the paper's §4.3 observation, justified by Property 1), and a
//! component's TAV is the join of its members' DAVs with the TAVs of its
//! already-finished successor components. Total cost is linear in the
//! graph size times the vector-join cost.

use crate::av::AccessVector;
use crate::commut::ClassTable;
use crate::error::CompileError;
use crate::extract::{extract, Extraction};
use crate::graph::LbrGraph;
use crate::tarjan::{condense, sccs};
use finecc_lang::MethodBodies;
use finecc_model::{ClassId, MethodId, Schema};

/// Everything the compiler produces for a schema: per-class graphs,
/// per-vertex TAVs, and the per-class commutativity tables.
#[derive(Clone, Debug)]
pub struct CompiledSchema {
    /// Per-definition facts (DAV/DSC/PSC).
    pub extraction: Extraction,
    /// One late-binding resolution graph per class (indexed by class).
    pub graphs: Vec<LbrGraph>,
    /// TAVs for *every vertex* of every class graph (aligned with
    /// `graphs[c].verts`); includes PSC-only vertices such as the paper's
    /// `(c1,m2)` inside c2's graph.
    pub vertex_tavs: Vec<Vec<AccessVector>>,
    classes: Vec<ClassTable>,
}

impl CompiledSchema {
    /// The compiled table (access modes + matrix) of a class.
    pub fn class(&self, c: ClassId) -> &ClassTable {
        &self.classes[c.index()]
    }

    /// Mutable access to a class table (ad hoc overrides, §3).
    pub fn class_mut(&mut self, c: ClassId) -> &mut ClassTable {
        &mut self.classes[c.index()]
    }

    /// All class tables, in class order.
    pub fn classes(&self) -> impl Iterator<Item = &ClassTable> {
        self.classes.iter()
    }

    /// The late-binding resolution graph of a class.
    pub fn graph(&self, c: ClassId) -> &LbrGraph {
        &self.graphs[c.index()]
    }

    /// The TAV of `method` as invoked on proper instances of `class`
    /// (`None` if the method is not visible there).
    pub fn tav_of(&self, class: ClassId, method: MethodId) -> Option<&AccessVector> {
        let g = &self.graphs[class.index()];
        let v = g.vertex_of(method)?;
        Some(&self.vertex_tavs[class.index()][v])
    }

    /// Total number of access modes across all classes.
    pub fn total_modes(&self) -> usize {
        self.classes.iter().map(ClassTable::mode_count).sum()
    }

    /// A human-readable compilation report: per class, the access modes,
    /// graph size, and conflict density — what a DBA would inspect after
    /// a schema change.
    pub fn report(&self, schema: &Schema) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for ci in schema.classes() {
            let t = self.class(ci.id);
            let g = self.graph(ci.id);
            let n = t.mode_count();
            let conflicts: usize = (0..n)
                .map(|i| (0..n).filter(|&j| !t.commute(i, j)).count())
                .sum();
            let density = if n > 0 {
                100.0 * conflicts as f64 / (n * n) as f64
            } else {
                0.0
            };
            writeln!(
                out,
                "class {:<12} modes={:<3} graph: {}v/{}e  conflict density: {:.0}%",
                ci.name,
                n,
                g.vertex_count(),
                g.edge_count(),
                density
            )
            .expect("write to String");
            for (i, name) in t.method_names.iter().enumerate() {
                let kind = if t.tav(i).is_read_only() { "R" } else { "W" };
                writeln!(out, "  [{i:>2}] {name:<12} {kind}  TAV={}", t.tav(i))
                    .expect("write to String");
            }
        }
        out
    }

    /// Assembles a compiled schema from parts (used by the incremental
    /// recompiler).
    pub(crate) fn from_parts(
        extraction: Extraction,
        graphs: Vec<LbrGraph>,
        vertex_tavs: Vec<Vec<AccessVector>>,
        classes: Vec<ClassTable>,
    ) -> CompiledSchema {
        CompiledSchema {
            extraction,
            graphs,
            vertex_tavs,
            classes,
        }
    }
}

/// Compiles a schema: analysis (Defs 6–8), graphs (Def 9), TAVs (Def 10),
/// and commutativity matrices (§5.1), for every class.
pub fn compile(schema: &Schema, bodies: &MethodBodies) -> Result<CompiledSchema, CompileError> {
    let extraction = extract(schema, bodies)?;
    compile_with_extraction(schema, extraction)
}

/// Compiles from pre-computed extraction facts (lets benchmarks separate
/// the parsing/analysis cost from the graph/TAV cost).
pub fn compile_with_extraction(
    schema: &Schema,
    extraction: Extraction,
) -> Result<CompiledSchema, CompileError> {
    let mut graphs = Vec::with_capacity(schema.class_count());
    let mut vertex_tavs = Vec::with_capacity(schema.class_count());
    let mut classes = Vec::with_capacity(schema.class_count());

    for ci in schema.classes() {
        let graph = LbrGraph::build(schema, ci.id, &extraction);
        let tavs = vertex_tavs_of(&graph, &extraction);

        let methods = ci
            .methods
            .iter()
            .map(|(name, mid)| {
                let v = graph.vertex_of(*mid).expect("class methods are vertices");
                (
                    name.clone(),
                    *mid,
                    extraction.dav(*mid).clone(),
                    tavs[v].clone(),
                )
            })
            .collect();
        classes.push(ClassTable::new(ci.id, ci.name.clone(), methods));
        graphs.push(graph);
        vertex_tavs.push(tavs);
    }

    Ok(CompiledSchema {
        extraction,
        graphs,
        vertex_tavs,
        classes,
    })
}

/// Definition 10 over one class graph: per-vertex TAVs via SCC
/// condensation in reverse topological order.
pub fn vertex_tavs_of(graph: &LbrGraph, ex: &Extraction) -> Vec<AccessVector> {
    let comps = sccs(&graph.edges);
    let (comp_of, _) = condense(&graph.edges, &comps);
    let mut tavs: Vec<AccessVector> = vec![AccessVector::empty(); graph.verts.len()];
    for comp in &comps {
        let cid = comp_of[comp[0] as usize];
        let mut acc = AccessVector::empty();
        for &v in comp {
            acc.join_assign(ex.dav(graph.verts[v as usize]));
            for &w in &graph.edges[v as usize] {
                if comp_of[w as usize] != cid {
                    // Sink-first emission guarantees this TAV is final.
                    acc.join_assign(&tavs[w as usize]);
                }
            }
        }
        for &v in comp {
            tavs[v as usize] = acc.clone();
        }
    }
    tavs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::AccessMode::{self, *};
    use finecc_lang::parser::{build_schema, FIGURE1_SOURCE};
    use finecc_model::FieldId;

    fn fig1() -> (Schema, CompiledSchema) {
        let (s, b) = build_schema(FIGURE1_SOURCE).unwrap();
        let c = compile(&s, &b).unwrap();
        (s, c)
    }

    fn fid(s: &Schema, class: &str, name: &str) -> FieldId {
        let c = s.class_by_name(class).unwrap();
        s.resolve_field(c, name).unwrap()
    }

    fn modes(s: &Schema, av: &AccessVector, fields: &[(&str, &str)]) -> Vec<AccessMode> {
        fields
            .iter()
            .map(|&(c, f)| av.mode_of(fid(s, c, f)))
            .collect()
    }

    /// §4.3, verbatim: the worked TAV values of the paper.
    #[test]
    fn paper_section_4_3_tavs() {
        let (s, comp) = fig1();
        let c2 = s.class_by_name("c2").unwrap();
        let t = comp.class(c2);
        let all = [
            ("c1", "f1"),
            ("c1", "f2"),
            ("c1", "f3"),
            ("c2", "f4"),
            ("c2", "f5"),
            ("c2", "f6"),
        ];

        // TAV(c2,m3) = (Null, Read f2, Read f3, Null, Null, Null)
        let m3 = t.index_of("m3").unwrap();
        assert_eq!(
            modes(&s, t.tav(m3), &all),
            [Null, Read, Read, Null, Null, Null]
        );

        // TAV(c2,m4) = (…, Read f5, Write f6)
        let m4 = t.index_of("m4").unwrap();
        assert_eq!(
            modes(&s, t.tav(m4), &all),
            [Null, Null, Null, Null, Read, Write]
        );

        // TAV(c2,m2) = (Write f1, Read f2, Null f3, Write f4, Read f5, Null f6)
        let m2 = t.index_of("m2").unwrap();
        assert_eq!(
            modes(&s, t.tav(m2), &all),
            [Write, Read, Null, Write, Read, Null]
        );

        // TAV(c2,m1) = (Write f1, Read f2, Read f3, Write f4, Read f5, Null f6)
        let m1 = t.index_of("m1").unwrap();
        assert_eq!(
            modes(&s, t.tav(m1), &all),
            [Write, Read, Read, Write, Read, Null]
        );

        // And the PSC-only vertex (c1,m2) inside c2's graph keeps its DAV.
        let c1 = s.class_by_name("c1").unwrap();
        let m2c1 = s.resolve_method(c1, "m2").unwrap();
        let tav = comp.tav_of(c2, m2c1).unwrap();
        assert_eq!(modes(&s, tav, &all), [Write, Read, Null, Null, Null, Null]);
    }

    /// Table 2, generated rather than hand-written.
    #[test]
    fn paper_table2_generated() {
        let (s, comp) = fig1();
        let c2 = s.class_by_name("c2").unwrap();
        let t = comp.class(c2);
        assert_eq!(t.method_names, ["m1", "m2", "m3", "m4"]);
        let expect = [
            [false, false, true, true],
            [false, false, true, true],
            [true, true, true, true],
            [true, true, true, false],
        ];
        for (i, row) in expect.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                assert_eq!(t.commute(i, j), want, "Table 2 at ({i},{j})");
            }
        }
    }

    /// The paper: "Commutativity relation of class c1 is obtained as the
    /// restriction of Table 2 to m1, m2, and m3."
    #[test]
    fn c1_matrix_is_restriction_of_table2() {
        let (s, comp) = fig1();
        let c1 = s.class_by_name("c1").unwrap();
        let t1 = comp.class(c1);
        assert_eq!(t1.method_names, ["m1", "m2", "m3"]);
        let expect = [
            [false, false, true],
            [false, false, true],
            [true, true, true],
        ];
        for (i, row) in expect.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                assert_eq!(t1.commute(i, j), want);
            }
        }
    }

    /// TAV(c1,m1) must use c1's resolution of m2 (no f4 write).
    #[test]
    fn tav_depends_on_receiver_class() {
        let (s, comp) = fig1();
        let c1 = s.class_by_name("c1").unwrap();
        let t1 = comp.class(c1);
        let m1 = t1.index_of("m1").unwrap();
        let tav = t1.tav(m1);
        assert_eq!(tav.mode_of(fid(&s, "c1", "f1")), Write);
        assert_eq!(
            tav.mode_of(fid(&s, "c2", "f4")),
            Null,
            "c1 never touches f4"
        );
    }

    #[test]
    fn tav_includes_dav_pointwise() {
        let (s, comp) = fig1();
        for ci in s.classes() {
            let t = comp.class(ci.id);
            for i in 0..t.mode_count() {
                assert!(
                    t.dav(i).le(t.tav(i)),
                    "TAV ⊒ DAV violated for {}::{}",
                    ci.name,
                    t.method_names[i]
                );
            }
        }
    }

    #[test]
    fn recursive_methods_share_tav() {
        let src = r#"
class a {
  fields { x: integer; y: integer; }
  method f is x := x + 1; send g to self end
  method g is y := y + 1; send f to self end
}
"#;
        let (s, b) = build_schema(src).unwrap();
        let comp = compile(&s, &b).unwrap();
        let a = s.class_by_name("a").unwrap();
        let t = comp.class(a);
        let (f, g) = (t.index_of("f").unwrap(), t.index_of("g").unwrap());
        assert_eq!(t.tav(f), t.tav(g), "cycle members share TAVs");
        assert_eq!(t.tav(f).len(), 2);
        assert!(!t.commute(f, g));
    }

    #[test]
    fn self_recursion_fixpoint() {
        let src = r#"
class a {
  fields { n: integer; }
  method count is if n > 0 then n := n - 1; send count to self end end
}
"#;
        let (s, b) = build_schema(src).unwrap();
        let comp = compile(&s, &b).unwrap();
        let a = s.class_by_name("a").unwrap();
        let t = comp.class(a);
        let i = t.index_of("count").unwrap();
        assert_eq!(t.tav(i), t.dav(i), "self-loop adds nothing beyond DAV");
    }

    #[test]
    fn pseudo_conflict_eliminated_but_rw_would_conflict() {
        // The crux of problem P4: m2 and m4 are both writers, yet commute.
        let (s, comp) = fig1();
        let c2 = s.class_by_name("c2").unwrap();
        let t = comp.class(c2);
        let m2 = t.index_of("m2").unwrap();
        let m4 = t.index_of("m4").unwrap();
        assert!(t.tav(m2).collapse().is_write());
        assert!(t.tav(m4).collapse().is_write());
        assert!(t.commute(m2, m4), "disjoint-field writers commute");
    }

    /// A redefinition that calls the definition it replaces through a
    /// prefix, like the ledger's `savings.deposit`.
    const PREFIXED: &str = r#"
class account {
  fields { id: integer; balance: integer; audit: integer; }
  method deposit(amt) is balance := balance + amt; send log to self end
  method log is audit := audit + 1 end
  method balance_of is return balance end
}
class savings inherits account {
  fields { accrued: integer; }
  method deposit(amt) is redefined as
    send account.deposit(amt) to self;
    accrued := accrued + amt / 10
  end
}
"#;

    /// The mode-indexed lookup the schemes run per message answers what
    /// the vertex lookup does for every method a class resolves.
    #[test]
    fn mode_index_tav_is_the_vertex_tav() {
        let mut prefixed = 0;
        for source in [FIGURE1_SOURCE, PREFIXED] {
            let (s, b) = build_schema(source).unwrap();
            let comp = compile(&s, &b).unwrap();
            for ci in s.classes() {
                let t = comp.class(ci.id);
                for (name, mid) in &ci.methods {
                    let idx = t.index_of_mid(*mid).unwrap_or_else(|| {
                        panic!("{}.{name} has no access mode", ci.name);
                    });
                    assert_eq!(
                        Some(t.tav(idx)),
                        comp.tav_of(ci.id, *mid),
                        "{}.{name}",
                        ci.name
                    );
                    prefixed += usize::from(!comp.extraction.psc(*mid).is_empty());
                }
            }
        }
        assert!(prefixed > 0, "a prefixed redefinition was checked");
    }

    #[test]
    fn total_modes_counts() {
        let (_, comp) = fig1();
        // c1: 3 methods, c2: 4, c3: 1.
        assert_eq!(comp.total_modes(), 8);
    }

    #[test]
    fn report_renders_every_class_and_mode() {
        let (s, comp) = fig1();
        let r = comp.report(&s);
        for name in ["c1", "c2", "c3", "m1", "m4", "conflict density"] {
            assert!(r.contains(name), "report must mention {name}:\n{r}");
        }
        assert_eq!(r.matches("class ").count(), 3);
    }

    #[test]
    fn compile_is_deterministic() {
        let (s, b) = build_schema(FIGURE1_SOURCE).unwrap();
        let c1 = compile(&s, &b).unwrap();
        let c2 = compile(&s, &b).unwrap();
        for (a, b) in c1.classes().zip(c2.classes()) {
            assert_eq!(a.method_names, b.method_names);
            assert_eq!(a.tavs, b.tavs);
        }
    }
}
