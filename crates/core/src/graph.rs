//! The late-binding resolution graph (Definition 9).
//!
//! For a class `C`, the graph `G_C(V, Γ)` predicts, at compile time, every
//! method body that might execute when a message reaches a *proper
//! instance of `C`*:
//!
//! * `V = {C} × METHODS(C)  ∪  ⋃_M PSC*_{C,M}` — the class's own resolved
//!   methods plus the reflexo-transitive closure of prefixed calls.
//! * `Γ(C', M') = {C} × DSC_{C',M'}  ∪  PSC_{C',M'}` — **direct self-calls
//!   re-resolve in `C`** (this is late binding solved at compile time: a
//!   `send m3 to self` inside an ancestor's method body binds to `C`'s
//!   override), while prefixed calls go to the fixed ancestor definition.
//!
//! Two of Definition 9's "vertices" `(C₁, M)` and `(C₂, M)` that resolve
//! to the *same definition site* have identical direct access vectors and
//! identical out-edges (DSC/PSC are per definition, and DSC always
//! re-resolves in `C`), so we key vertices by resolved [`MethodId`] — a
//! lossless compression of the paper's vertex set.

use crate::extract::Extraction;
use finecc_model::{ClassId, MethodId, Schema};
use std::collections::HashMap;

/// The late-binding resolution graph of one class.
#[derive(Clone, Debug)]
pub struct LbrGraph {
    /// The class this graph is specialized for.
    pub class: ClassId,
    /// Vertices: resolved method definition sites. The first
    /// `METHODS(C).len()` entries are exactly the class's resolved methods
    /// in `METHODS(C)` (name-sorted) order.
    pub verts: Vec<MethodId>,
    /// Adjacency lists (indices into `verts`), deduplicated and sorted.
    pub edges: Vec<Vec<u32>>,
    index: HashMap<MethodId, u32>,
}

impl LbrGraph {
    /// Builds `G_C` for `class` from the extraction facts.
    ///
    /// Self-call names that do not resolve in `C` (template-method hooks
    /// defined only in subclasses) produce no edge: sending them to a
    /// proper instance of `C` would be a runtime "message not understood",
    /// so they cannot contribute accesses.
    pub fn build(schema: &Schema, class: ClassId, ex: &Extraction) -> LbrGraph {
        let ci = schema.class(class);
        let mut verts: Vec<MethodId> = Vec::with_capacity(ci.methods.len());
        let mut index: HashMap<MethodId, u32> = HashMap::new();
        for (_, mid) in &ci.methods {
            if !index.contains_key(mid) {
                index.insert(*mid, verts.len() as u32);
                verts.push(*mid);
            }
        }

        // Worklist closure over PSC targets (V includes PSC*).
        let mut work: Vec<MethodId> = verts.clone();
        while let Some(mid) = work.pop() {
            for &(_, target) in ex.psc(mid) {
                if let std::collections::hash_map::Entry::Vacant(e) = index.entry(target) {
                    e.insert(verts.len() as u32);
                    verts.push(target);
                    work.push(target);
                }
            }
        }

        // Γ: DSC names resolve in `class`; PSC edges are fixed.
        let mut edges: Vec<Vec<u32>> = Vec::with_capacity(verts.len());
        for &mid in &verts {
            let mut outs: Vec<u32> = Vec::new();
            for name in ex.dsc(mid) {
                if let Some(target) = schema.resolve_method(class, name) {
                    outs.push(index[&target]);
                }
            }
            for &(_, target) in ex.psc(mid) {
                outs.push(index[&target]);
            }
            outs.sort_unstable();
            outs.dedup();
            edges.push(outs);
        }

        LbrGraph {
            class,
            verts,
            edges,
            index,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.verts.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// The vertex index of a definition, if present.
    pub fn vertex_of(&self, m: MethodId) -> Option<usize> {
        self.index.get(&m).map(|&i| i as usize)
    }

    /// The paper's label for a vertex: `(owner_class, method_name)`.
    pub fn label(&self, schema: &Schema, v: usize) -> String {
        let mi = schema.method(self.verts[v]);
        format!("({},{})", schema.class(mi.owner).name, mi.sig.name)
    }

    /// Edge list in paper notation, sorted, e.g.
    /// `("(c2,m1)", "(c2,m2)")` — what `examples/quickstart.rs` prints.
    pub fn edge_labels(&self, schema: &Schema) -> Vec<(String, String)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for (v, outs) in self.edges.iter().enumerate() {
            for &w in outs {
                out.push((self.label(schema, v), self.label(schema, w as usize)));
            }
        }
        out.sort();
        out
    }

    /// Graphviz DOT rendering (Figure 2 of the paper for class c2).
    pub fn to_dot(&self, schema: &Schema) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "digraph lbr_{} {{\n  rankdir=TB;\n  node [shape=ellipse];\n",
            schema.class(self.class).name
        ));
        for v in 0..self.verts.len() {
            out.push_str(&format!("  v{v} [label=\"{}\"];\n", self.label(schema, v)));
        }
        for (v, outs) in self.edges.iter().enumerate() {
            for &w in outs {
                out.push_str(&format!("  v{v} -> v{w};\n"));
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use finecc_lang::parser::{build_schema, FIGURE1_SOURCE};

    fn figure2_graph() -> (Schema, LbrGraph) {
        let (s, b) = build_schema(FIGURE1_SOURCE).unwrap();
        let ex = extract(&s, &b).unwrap();
        let c2 = s.class_by_name("c2").unwrap();
        (s.clone(), LbrGraph::build(&s, c2, &ex))
    }

    #[test]
    fn figure2_vertices() {
        // V = {(c2,m1),(c2,m2),(c2,m3),(c2,m4)} ∪ {(c1,m2)} — 5 vertices.
        // With MethodId keying: m1,m3 resolve to their c1 definitions;
        // m2 resolves to c2's override; (c1,m2) is the PSC target.
        let (s, g) = figure2_graph();
        assert_eq!(g.vertex_count(), 5);
        let mut labels: Vec<String> = (0..g.vertex_count()).map(|v| g.label(&s, v)).collect();
        labels.sort();
        assert_eq!(
            labels,
            ["(c1,m1)", "(c1,m2)", "(c1,m3)", "(c2,m2)", "(c2,m4)"]
        );
    }

    #[test]
    fn figure2_edges() {
        // Paper: edges (c2,m1)→(c2,m2), (c2,m1)→(c2,m3), (c2,m2)→(c1,m2).
        // In MethodId keying, (c2,m1)/(c2,m3) display as their defining
        // sites (c1,m1)/(c1,m3); the *resolution* of the DSC edge from m1
        // to m2 correctly lands on c2's override.
        let (s, g) = figure2_graph();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(
            g.edge_labels(&s),
            [
                ("(c1,m1)".to_string(), "(c1,m3)".to_string()),
                ("(c1,m1)".to_string(), "(c2,m2)".to_string()),
                ("(c2,m2)".to_string(), "(c1,m2)".to_string()),
            ]
        );
    }

    #[test]
    fn graph_for_c1_has_no_override_edge() {
        // In c1's own graph, m1's DSC resolves m2 to c1's definition.
        let (s, b) = build_schema(FIGURE1_SOURCE).unwrap();
        let ex = extract(&s, &b).unwrap();
        let c1 = s.class_by_name("c1").unwrap();
        let g = LbrGraph::build(&s, c1, &ex);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(
            g.edge_labels(&s),
            [
                ("(c1,m1)".to_string(), "(c1,m2)".to_string()),
                ("(c1,m1)".to_string(), "(c1,m3)".to_string()),
            ]
        );
    }

    #[test]
    fn template_hook_skipped_in_base_linked_in_subclass() {
        let src = r#"
class base { method template is send hook to self end }
class concrete inherits base {
  fields { x: integer; }
  method hook is x := 1 end
}
"#;
        let (s, b) = build_schema(src).unwrap();
        let ex = extract(&s, &b).unwrap();
        let base = s.class_by_name("base").unwrap();
        let conc = s.class_by_name("concrete").unwrap();
        let gb = LbrGraph::build(&s, base, &ex);
        assert_eq!(gb.edge_count(), 0, "hook unresolvable in base");
        let gc = LbrGraph::build(&s, conc, &ex);
        assert_eq!(gc.edge_count(), 1, "hook resolves in concrete");
    }

    #[test]
    fn psc_chain_closure() {
        // c3.m prefixes c2.m prefixes c1.m: V for c3 includes all three.
        let src = r#"
class a { fields { x: integer; } method m is x := 1 end }
class b inherits a { method m is redefined as send a.m to self end }
class c inherits b { method m is redefined as send b.m to self end }
"#;
        let (s, bo) = build_schema(src).unwrap();
        let ex = extract(&s, &bo).unwrap();
        let cc = s.class_by_name("c").unwrap();
        let g = LbrGraph::build(&s, cc, &ex);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn recursion_creates_cycle_edge() {
        let src = r#"
class a {
  fields { n: integer; }
  method even is if n = 0 then skip else n := n - 1; send odd to self end end
  method odd is if n = 0 then skip else n := n - 1; send even to self end end
}
"#;
        let (s, b) = build_schema(src).unwrap();
        let ex = extract(&s, &b).unwrap();
        let a = s.class_by_name("a").unwrap();
        let g = LbrGraph::build(&s, a, &ex);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 2, "mutual recursion → 2-cycle");
    }

    #[test]
    fn dot_output_shape() {
        let (s, g) = figure2_graph();
        let dot = g.to_dot(&s);
        assert!(dot.starts_with("digraph lbr_c2 {"));
        assert_eq!(dot.matches("->").count(), 3);
        assert!(dot.contains("(c2,m2)"));
    }

    #[test]
    fn vertex_of_lookup() {
        let (s, g) = figure2_graph();
        let c2 = s.class_by_name("c2").unwrap();
        let m2 = s.resolve_method(c2, "m2").unwrap();
        assert!(g.vertex_of(m2).is_some());
        assert_eq!(g.vertex_of(MethodId(999)), None);
    }
}
