//! Incremental recompilation on method-body updates.
//!
//! The paper's closing argument (§7): the technique is attractive
//! precisely because "methods are expected to be regularly created,
//! deleted, or updated" — recompilation must be cheap. This module makes
//! it *incremental*: when only method **bodies** change (the schema —
//! classes, fields, signatures — is fixed), the set of classes whose
//! artifacts can differ is exactly the set whose late-binding resolution
//! graph contains a changed definition as a vertex:
//!
//! * if `C`'s graph contains changed `m`, its TAVs may depend on `m`'s
//!   DAV and its edges on `m`'s DSC/PSC — rebuild `C`;
//! * if not, no definition reachable from `METHODS(C)` calls `m`, and
//!   since only `m`'s body changed, `C`'s reachable set, DAVs, TAVs and
//!   matrix are all unchanged — reuse them.
//!
//! For schema-shape changes (new classes/methods/fields), fall back to
//! [`crate::compile`]; identifiers are re-assigned there.

use crate::commut::ClassTable;
use crate::compiler::{vertex_tavs_of, CompiledSchema};
use crate::error::CompileError;
use crate::extract::Extraction;
use crate::graph::LbrGraph;
use finecc_lang::MethodBodies;
use finecc_model::{ClassId, MethodId, Schema};

/// What an incremental recompilation did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecompileReport {
    /// Classes whose graphs/TAVs/matrices were rebuilt.
    pub recompiled: Vec<ClassId>,
    /// Classes reused verbatim from the previous compilation.
    pub reused: usize,
}

/// Recompiles after the bodies of `changed` definitions were replaced in
/// `bodies`. `prev` must come from the same `schema` (same ids).
///
/// Returns the new compiled schema plus a report of what was rebuilt.
pub fn recompile(
    schema: &Schema,
    bodies: &MethodBodies,
    prev: &CompiledSchema,
    changed: &[MethodId],
) -> Result<(CompiledSchema, RecompileReport), CompileError> {
    // 1. Re-extract only the changed definitions.
    let mut extraction: Extraction = prev.extraction.clone();
    for &mid in changed {
        extraction.analyze_method(schema, bodies, mid)?;
    }

    // 2. Affected classes: old graph contains a changed vertex. (A body
    //    change cannot make a previously-unreachable definition reachable
    //    from an *unaffected* class: reachability from METHODS(C) only
    //    depends on DSC/PSC of definitions already in the graph.)
    let mut report = RecompileReport::default();
    let mut graphs = Vec::with_capacity(schema.class_count());
    let mut vertex_tavs = Vec::with_capacity(schema.class_count());
    let mut classes: Vec<ClassTable> = Vec::with_capacity(schema.class_count());

    for ci in schema.classes() {
        let affected = changed
            .iter()
            .any(|&m| prev.graphs[ci.id.index()].vertex_of(m).is_some());
        if !affected {
            graphs.push(prev.graphs[ci.id.index()].clone());
            vertex_tavs.push(prev.vertex_tavs[ci.id.index()].clone());
            classes.push(prev.class(ci.id).clone());
            report.reused += 1;
            continue;
        }
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
        report.recompiled.push(ci.id);
    }

    Ok((
        CompiledSchema::from_parts(extraction, graphs, vertex_tavs, classes),
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use finecc_lang::build_schema;
    use finecc_lang::parser::{build_schema_from_program, parse_program, FIGURE1_SOURCE};

    /// Replaces one method's body in the Figure 1 program and returns the
    /// rebuilt bodies plus the changed definition's id.
    fn figure1_with_new_body(
        class: &str,
        method: &str,
        new_body: &str,
    ) -> (Schema, MethodBodies, MethodBodies, MethodId) {
        let (schema, old_bodies) = build_schema(FIGURE1_SOURCE).unwrap();
        let mut prog = parse_program(FIGURE1_SOURCE).unwrap();
        let cs = prog
            .classes
            .iter_mut()
            .find(|c| c.name == class)
            .expect("class exists");
        let ms = cs
            .methods
            .iter_mut()
            .find(|m| m.name == method)
            .expect("method exists");
        ms.body = finecc_lang::parser::parse_body(new_body).unwrap();
        let (schema2, new_bodies) = build_schema_from_program(&prog).unwrap();
        assert_eq!(schema.method_count(), schema2.method_count());
        let cid = schema.class_by_name(class).unwrap();
        let mid = schema
            .class(cid)
            .own_methods
            .iter()
            .copied()
            .find(|&m| schema.method(m).sig.name == method)
            .unwrap();
        (schema, old_bodies, new_bodies, mid)
    }

    #[test]
    fn equivalent_to_full_compile() {
        let (schema, old_bodies, new_bodies, mid) =
            figure1_with_new_body("c1", "m2", "f1 := expr(f1, p1); f3 := nil");
        let prev = compile(&schema, &old_bodies).unwrap();
        let (incr, report) = recompile(&schema, &new_bodies, &prev, &[mid]).unwrap();
        let full = compile(&schema, &new_bodies).unwrap();
        for ci in schema.classes() {
            let a = incr.class(ci.id);
            let b = full.class(ci.id);
            assert_eq!(a.tavs, b.tavs, "class {}", ci.name);
            assert_eq!(a.davs, b.davs);
            for i in 0..a.mode_count() {
                for j in 0..a.mode_count() {
                    assert_eq!(a.commute(i, j), b.commute(i, j));
                }
            }
        }
        assert!(!report.recompiled.is_empty());
    }

    /// One instance, no control: enough store to run a body.
    struct OneInstance<'s>(&'s Schema, finecc_model::Instance);

    impl finecc_lang::DataAccess for OneInstance<'_> {
        fn class_of(&mut self, _: finecc_model::Oid) -> Result<ClassId, finecc_lang::ExecError> {
            Ok(self.1.class)
        }
        fn read_field(
            &mut self,
            oid: finecc_model::Oid,
            field: finecc_model::FieldId,
        ) -> Result<finecc_model::Value, finecc_lang::ExecError> {
            self.1
                .get(self.0, field)
                .cloned()
                .ok_or(finecc_lang::ExecError::FieldNotVisible { oid, field })
        }
        fn write_field(
            &mut self,
            oid: finecc_model::Oid,
            field: finecc_model::FieldId,
            value: finecc_model::Value,
        ) -> Result<(), finecc_lang::ExecError> {
            self.1
                .set(self.0, field, value)
                .map(drop)
                .ok_or(finecc_lang::ExecError::FieldNotVisible { oid, field })
        }
    }

    #[test]
    fn a_swapped_body_is_the_one_that_runs_and_the_one_analysed() {
        use finecc_model::{Instance, Oid, Value};
        // The resolved form is rebuilt with the bodies, never cached
        // stale: the interpreter runs the new `m2`, and `recompile`
        // derives its vector from that same new body.
        let (schema, old_bodies, new_bodies, mid) =
            figure1_with_new_body("c1", "m2", "var f2 := p1 * 100; f1 := f2");
        let c1 = schema.class_by_name("c1").unwrap();
        let f1 = schema.resolve_field(c1, "f1").unwrap();
        let builtins = finecc_lang::Builtins::standard();
        let run = |bodies: &MethodBodies| {
            let mut store = OneInstance(&schema, Instance::new(&schema, c1));
            finecc_lang::Interpreter::new(&schema, bodies, &builtins)
                .send(&mut store, Oid(1), "m2", &[Value::Int(5)])
                .unwrap();
            store.1.get(&schema, f1).cloned()
        };
        assert_eq!(run(&old_bodies), Some(Value::Int(5)), "expr(0, false, 5)");
        assert_eq!(run(&new_bodies), Some(Value::Int(500)));

        let prev = compile(&schema, &old_bodies).unwrap();
        let (incr, _) = recompile(&schema, &new_bodies, &prev, &[mid]).unwrap();
        let full = compile(&schema, &new_bodies).unwrap();
        for ci in schema.classes() {
            assert_eq!(incr.class(ci.id).tavs, full.class(ci.id).tavs);
            assert_eq!(incr.class(ci.id).davs, full.class(ci.id).davs);
        }
        // The new body writes f1 and no longer reads the field f2 (its
        // `f2` is a local now).
        let t = incr.class(c1);
        let m2 = t.index_of("m2").unwrap();
        assert_eq!(
            t.dav(m2),
            &crate::av::AccessVector::from_reads_writes([], [f1])
        );
    }

    #[test]
    fn unaffected_classes_are_reused() {
        // Changing c1.m2 affects c1 and c2 (both graphs contain it) but
        // not c3.
        let (schema, old_bodies, new_bodies, mid) = figure1_with_new_body("c1", "m2", "f2 := true");
        let prev = compile(&schema, &old_bodies).unwrap();
        let (_, report) = recompile(&schema, &new_bodies, &prev, &[mid]).unwrap();
        let c1 = schema.class_by_name("c1").unwrap();
        let c2 = schema.class_by_name("c2").unwrap();
        assert_eq!(report.recompiled, vec![c1, c2]);
        assert_eq!(report.reused, 1, "c3 untouched");
    }

    #[test]
    fn changing_leaf_override_spares_the_superclass() {
        // c2's override of m2 is invisible to c1's graph.
        let (schema, old_bodies, new_bodies, mid) =
            figure1_with_new_body("c2", "m2", "f4 := f4 + p1");
        let prev = compile(&schema, &old_bodies).unwrap();
        let (incr, report) = recompile(&schema, &new_bodies, &prev, &[mid]).unwrap();
        let c2 = schema.class_by_name("c2").unwrap();
        assert_eq!(report.recompiled, vec![c2]);
        assert_eq!(report.reused, 2, "c1 and c3 reused");
        // And the result matches a full compile.
        let full = compile(&schema, &new_bodies).unwrap();
        assert_eq!(incr.class(c2).tavs, full.class(c2).tavs);
        // The new m2 no longer prefixes c1.m2: TAV loses the f1 write.
        let t = incr.class(c2);
        let m2 = t.index_of("m2").unwrap();
        let c1 = schema.class_by_name("c1").unwrap();
        let f1 = schema.resolve_field(c1, "f1").unwrap();
        assert!(t.tav(m2).mode_of(f1).is_null());
        // … so m1 and m2 still conflict? m1 calls m2 (no f1 write now) and
        // m3; check the matrix was actually refreshed:
        let m1 = t.index_of("m1").unwrap();
        let m4 = t.index_of("m4").unwrap();
        assert!(t.commute(m2, m4));
        let _ = m1;
    }

    #[test]
    fn no_change_reuses_everything() {
        let (schema, bodies) = build_schema(FIGURE1_SOURCE).unwrap();
        let prev = compile(&schema, &bodies).unwrap();
        let (incr, report) = recompile(&schema, &bodies, &prev, &[]).unwrap();
        assert!(report.recompiled.is_empty());
        assert_eq!(report.reused, schema.class_count());
        assert_eq!(incr.total_modes(), prev.total_modes());
    }

    #[test]
    fn analysis_errors_surface() {
        // Replace c1.m2's body with one referencing an unknown name; the
        // incremental path must report the analysis failure.
        let (schema, old_bodies, new_bodies, mid) = figure1_with_new_body("c1", "m2", "ghost := 1");
        let prev = compile(&schema, &old_bodies).unwrap();
        let err = recompile(&schema, &new_bodies, &prev, &[mid]).unwrap_err();
        let CompileError::Analysis { name, .. } = err;
        assert_eq!(name, "m2");
    }
}
