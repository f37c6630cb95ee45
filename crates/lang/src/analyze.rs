//! Compile-time extraction of the paper's Definitions 6–8.
//!
//! Given a method's **resolved** body ([`crate::resolve`] — the same one
//! the interpreter executes, so the scoping rule is decided once, there),
//! [`fn@analyze`] computes:
//!
//! * the set of fields **written** — fields `f` with an assignment
//!   `f := <expression>` anywhere in the body (Definition 6: `Write`),
//! * the set of fields **read** — fields appearing in any expression,
//!   including message arguments and the receiver field of `send … to f`
//!   (Definition 6: `Read`),
//! * the **direct self-calls** `DSC` — names `M'` such that
//!   `send M' to self` appears (Definition 7),
//! * the **prefixed self-calls** `PSC` — pairs `(C', M')` from
//!   `send C'.M' to self` (Definition 8), with `C'` validated (at
//!   resolution) to be a proper ancestor of the defining class and `M'`
//!   resolved in `C'`.
//!
//! The analysis is deliberately *control-flow insensitive*: a field
//! assigned under an `if` still counts as written — this is exactly the
//! paper's conservatism ("they even represent impossible executions
//! because they forget alternatives", §4.4), measured by experiment E8.
//!
//! One deliberate extension: the paper's Definition 7 restricts DSC to
//! `METHODS(C)`. Real object-oriented code uses the *template-method*
//! pattern, where a superclass method self-sends a message only concrete
//! subclasses define. We therefore record every self-sent name and let the
//! late-binding-graph construction in `finecc-core` skip names that do not
//! resolve in the receiver class (where the send would be a runtime
//! "message not understood" anyway).

use crate::error::ExecError;
use crate::resolve::{MethodBodies, RExpr, RSend, RStmt, RTarget};
use finecc_model::{ClassId, FieldId, MethodId, Schema};
use std::collections::BTreeSet;

/// Everything Definitions 6–8 extract from one method body.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MethodFacts {
    /// Fields assigned somewhere in the body (`Write` per Definition 6).
    pub writes: BTreeSet<FieldId>,
    /// Fields appearing in some expression but never assigned (`Read`).
    /// Disjoint from `writes`: `Write` absorbs `Read` on the same field.
    pub reads: BTreeSet<FieldId>,
    /// `DSC`: names sent to `self` (unresolved — late binding happens per
    /// receiver class when the resolution graph is built).
    pub self_calls: BTreeSet<String>,
    /// `PSC`: `(ancestor class, the definition the name resolves to in
    /// it)` pairs from prefixed sends.
    pub prefixed_calls: BTreeSet<(ClassId, MethodId)>,
    /// Messages sent through reference fields: `(field, method name)`.
    /// The field itself is a read; the callee runs on another instance and
    /// is controlled separately at run time.
    pub external_sends: BTreeSet<(FieldId, String)>,
}

impl MethodFacts {
    /// `true` if the body touches no field and sends no message.
    pub fn is_pure(&self) -> bool {
        self.writes.is_empty()
            && self.reads.is_empty()
            && self.self_calls.is_empty()
            && self.prefixed_calls.is_empty()
            && self.external_sends.is_empty()
    }
}

struct Cx<'a> {
    schema: &'a Schema,
    bodies: &'a MethodBodies,
    facts: MethodFacts,
}

/// Runs the Definition 6–8 extraction over the resolved body of
/// `method` — the body the interpreter executes.
///
/// Errors on names that are neither parameters, locals, nor fields visible
/// in the defining class, on prefixed sends naming a non-ancestor, and on
/// sends through non-reference fields.
pub fn analyze(
    schema: &Schema,
    bodies: &MethodBodies,
    method: MethodId,
) -> Result<MethodFacts, ExecError> {
    let mut cx = Cx {
        schema,
        bodies,
        facts: MethodFacts::default(),
    };
    cx.block(&bodies.resolved(method).body)?;
    // Write absorbs Read (Definition 6: Read holds only when there is no
    // assignment to the field).
    let Cx { mut facts, .. } = cx;
    facts.reads.retain(|f| !facts.writes.contains(f));
    Ok(facts)
}

impl Cx<'_> {
    fn block(&mut self, block: &[RStmt]) -> Result<(), ExecError> {
        block.iter().try_for_each(|stmt| self.stmt(stmt))
    }

    fn stmt(&mut self, stmt: &RStmt) -> Result<(), ExecError> {
        match stmt {
            RStmt::Skip => Ok(()),
            RStmt::SetLocal { expr, .. } | RStmt::Return(expr) => self.expr(expr),
            RStmt::SetField { field, expr } => {
                self.expr(expr)?;
                self.facts.writes.insert(*field);
                Ok(())
            }
            RStmt::SetUnknown { name, expr } => {
                self.expr(expr)?;
                Err(ExecError::UnknownName(name.to_string()))
            }
            RStmt::Send(send) => self.send(send),
            RStmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expr(cond)?;
                self.block(then_blk)?;
                self.block(else_blk)
            }
            RStmt::While { cond, body } => {
                self.expr(cond)?;
                self.block(body)
            }
        }
    }

    fn send(&mut self, send: &RSend) -> Result<(), ExecError> {
        send.args.iter().try_for_each(|a| self.expr(a))?;
        match &send.to {
            RTarget::SelfSend(selector) => {
                let name = self.bodies.selector_name(*selector);
                self.facts.self_calls.insert(name.to_string());
            }
            RTarget::Prefixed { class, method } => {
                self.facts.prefixed_calls.insert((*class, *method));
            }
            RTarget::Field { field, selector } => {
                // The receiver field is read (Definition 6: "appears in
                // some expression, including messages").
                self.facts.reads.insert(*field);
                let name = self.bodies.selector_name(*selector);
                let fi = self.schema.field(*field);
                if !fi.ty.is_ref() {
                    return Err(ExecError::TypeError(format!(
                        "`send {name} to {}`: field is not a reference",
                        fi.name
                    )));
                }
                self.facts.external_sends.insert((*field, name.to_string()));
            }
            RTarget::Error(e) => return Err(e.clone()),
        }
        Ok(())
    }

    fn expr(&mut self, expr: &RExpr) -> Result<(), ExecError> {
        match expr {
            RExpr::Const(_) | RExpr::SelfRef | RExpr::Local(_) => Ok(()),
            RExpr::Field(field) => {
                self.facts.reads.insert(*field);
                Ok(())
            }
            RExpr::Unknown(name) => Err(ExecError::UnknownName(name.to_string())),
            RExpr::Call { args, .. } => args.iter().try_for_each(|a| self.expr(a)),
            RExpr::Unary { expr, .. } => self.expr(expr),
            RExpr::Binary { lhs, rhs, .. } => {
                self.expr(lhs)?;
                self.expr(rhs)
            }
            RExpr::Send(send) => self.send(send),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{
        build_schema, build_schema_from_program, parse_body, parse_program, MethodSrc,
        FIGURE1_SOURCE,
    };

    fn setup() -> (Schema, MethodBodies) {
        build_schema(FIGURE1_SOURCE).unwrap()
    }

    fn facts_of(schema: &Schema, bodies: &MethodBodies, class: &str, method: &str) -> MethodFacts {
        let c = schema.class_by_name(class).unwrap();
        let m = schema.resolve_method(c, method).unwrap();
        analyze(schema, bodies, m).unwrap()
    }

    /// Figure 1 with one more method, `probe(params)` with `body`, added
    /// to `class`; returns the schema and the analysis of `probe`.
    fn probe(class: &str, params: &[&str], body: &str) -> (Schema, Result<MethodFacts, ExecError>) {
        let mut prog = parse_program(FIGURE1_SOURCE).unwrap();
        let cs = prog.classes.iter_mut().find(|c| c.name == class).unwrap();
        cs.methods.push(MethodSrc {
            name: "probe".into(),
            params: params.iter().map(|p| p.to_string()).collect(),
            redefined: false,
            body: parse_body(body).unwrap(),
        });
        let (s, b) = build_schema_from_program(&prog).unwrap();
        let c = s.class_by_name(class).unwrap();
        let m = s.resolve_method(c, "probe").unwrap();
        let facts = analyze(&s, &b, m);
        (s, facts)
    }

    fn fid(schema: &Schema, class: &str, name: &str) -> FieldId {
        let c = schema.class_by_name(class).unwrap();
        schema.resolve_field(c, name).unwrap()
    }

    #[test]
    fn figure1_m2_in_c1() {
        let (s, b) = setup();
        let facts = facts_of(&s, &b, "c1", "m2");
        // DAV(c1,m2) = (Write f1, Read f2, Null f3)
        assert_eq!(
            facts.writes.iter().copied().collect::<Vec<_>>(),
            [fid(&s, "c1", "f1")]
        );
        assert_eq!(
            facts.reads.iter().copied().collect::<Vec<_>>(),
            [fid(&s, "c1", "f2")]
        );
        assert!(facts.self_calls.is_empty());
        assert!(facts.prefixed_calls.is_empty());
    }

    #[test]
    fn figure1_m1_self_calls() {
        let (s, b) = setup();
        let facts = facts_of(&s, &b, "c1", "m1");
        assert!(facts.writes.is_empty());
        assert!(facts.reads.is_empty());
        let dsc: Vec<&str> = facts.self_calls.iter().map(String::as_str).collect();
        assert_eq!(dsc, ["m2", "m3"]);
    }

    #[test]
    fn figure1_m3_reads_and_external_send() {
        let (s, b) = setup();
        let facts = facts_of(&s, &b, "c1", "m3");
        // DAV(c1,m3) = (Null f1, Read f2, Read f3): f3 is read by the send.
        let reads: Vec<FieldId> = facts.reads.iter().copied().collect();
        assert_eq!(reads, [fid(&s, "c1", "f2"), fid(&s, "c1", "f3")]);
        assert_eq!(facts.external_sends.len(), 1);
        let (f, m) = facts.external_sends.iter().next().unwrap();
        assert_eq!(*f, fid(&s, "c1", "f3"));
        assert_eq!(m, "m");
    }

    #[test]
    fn figure1_m2_override_in_c2() {
        let (s, b) = setup();
        let facts = facts_of(&s, &b, "c2", "m2");
        // DAV(c2,m2) = (Null,Null,Null, Write f4, Read f5, Null f6)
        assert_eq!(
            facts.writes.iter().copied().collect::<Vec<_>>(),
            [fid(&s, "c2", "f4")]
        );
        assert_eq!(
            facts.reads.iter().copied().collect::<Vec<_>>(),
            [fid(&s, "c2", "f5")]
        );
        let c1 = s.class_by_name("c1").unwrap();
        let m2_in_c1 = s.resolve_method(c1, "m2").unwrap();
        assert_eq!(
            facts.prefixed_calls.iter().copied().collect::<Vec<_>>(),
            [(c1, m2_in_c1)]
        );
    }

    #[test]
    fn figure1_m4() {
        let (s, b) = setup();
        let facts = facts_of(&s, &b, "c2", "m4");
        // DAV(c2,m4) = (…, Read f5, Write f6): f6 := expr(f6, …) is Write
        // (Write absorbs the read of f6).
        assert_eq!(
            facts.writes.iter().copied().collect::<Vec<_>>(),
            [fid(&s, "c2", "f6")]
        );
        assert_eq!(
            facts.reads.iter().copied().collect::<Vec<_>>(),
            [fid(&s, "c2", "f5")]
        );
    }

    #[test]
    fn write_absorbs_read() {
        let (_, facts) = probe("c1", &[], "f1 := f1 + 1");
        let facts = facts.unwrap();
        assert!(facts.reads.is_empty());
        assert_eq!(facts.writes.len(), 1);
    }

    #[test]
    fn locals_and_params_shadow_fields() {
        // `p` is a param, `t` a local; neither is a field access.
        let (_, facts) = probe("c1", &["p"], "var t := p + 1; t := t + 2");
        assert!(facts.unwrap().is_pure());
    }

    #[test]
    fn var_shadowing_field() {
        // First statement reads field f1 (initializer), then `f1` is a local:
        // the assignment afterwards is not a field write.
        let (_, facts) = probe("c1", &[], "var f1 := f1 + 1; f1 := 0");
        let facts = facts.unwrap();
        assert_eq!(facts.reads.len(), 1);
        assert!(facts.writes.is_empty());
    }

    #[test]
    fn var_in_a_branch_shadows_to_the_end_of_the_body() {
        // Textual scoping: the `var` sits in a branch, yet every later
        // `f1` is the local — and the condition, textually earlier,
        // still reads the field.
        let (s, facts) = probe("c1", &["v"], "if f2 then var f1 := 0 end; f1 := v");
        let facts = facts.unwrap();
        assert!(facts.writes.is_empty());
        assert_eq!(
            facts.reads.iter().copied().collect::<Vec<_>>(),
            [fid(&s, "c1", "f2")]
        );
        // Before its `var`, the name is the field.
        let (s, facts) = probe("c1", &["v"], "f1 := v; if f2 then var f1 := 0 end");
        assert_eq!(
            facts.unwrap().writes.iter().copied().collect::<Vec<_>>(),
            [fid(&s, "c1", "f1")]
        );
    }

    #[test]
    fn unknown_name_rejected() {
        let (_, facts) = probe("c1", &[], "nope := 1");
        assert_eq!(facts, Err(ExecError::UnknownName("nope".into())));
        let (_, facts) = probe("c1", &[], "f1 := ghost");
        assert_eq!(facts, Err(ExecError::UnknownName("ghost".into())));
        // A local is not a reference field.
        let (_, facts) = probe("c1", &[], "var f3 := nil; send m to f3");
        assert_eq!(facts, Err(ExecError::UnknownName("f3".into())));
    }

    #[test]
    fn subclass_fields_invisible_upward() {
        // f4 is defined in c2; a method defined in c1 cannot see it.
        let (_, facts) = probe("c1", &[], "f4 := 1");
        assert!(facts.is_err());
    }

    #[test]
    fn prefixed_send_validation() {
        // Not an ancestor:
        let (_, facts) = probe("c2", &[], "send c3.m to self");
        assert!(matches!(facts, Err(ExecError::TypeError(_))));
        // Self is not a proper ancestor:
        let (_, facts) = probe("c2", &[], "send c2.m2(1) to self");
        assert!(matches!(facts, Err(ExecError::TypeError(_))));
        // Unknown class:
        let (_, facts) = probe("c2", &[], "send ghost.m to self");
        assert_eq!(facts, Err(ExecError::UnknownName("ghost".into())));
        // Unknown method in ancestor:
        let (s, facts) = probe("c2", &[], "send c1.m4(1, 2) to self");
        let c1 = s.class_by_name("c1").unwrap();
        assert_eq!(
            facts,
            Err(ExecError::MessageNotUnderstood {
                class: c1,
                method: "m4".into()
            })
        );
        // Valid:
        let (s, facts) = probe("c2", &[], "send c1.m3 to self");
        let m3 = s.resolve_method(c1, "m3").unwrap();
        assert_eq!(
            facts
                .unwrap()
                .prefixed_calls
                .into_iter()
                .collect::<Vec<_>>(),
            [(c1, m3)]
        );
    }

    #[test]
    fn send_through_non_ref_field_rejected() {
        let (_, facts) = probe("c1", &[], "send m to f1");
        assert!(matches!(facts, Err(ExecError::TypeError(_))));
    }

    #[test]
    fn reads_inside_conditions_args_and_loops() {
        let (s, facts) = probe(
            "c2",
            &[],
            "while f5 > 0 do send m2(f4) to self end; if f2 then skip end",
        );
        let facts = facts.unwrap();
        let reads: Vec<FieldId> = facts.reads.iter().copied().collect();
        assert_eq!(
            reads,
            [
                fid(&s, "c1", "f2"),
                fid(&s, "c2", "f4"),
                fid(&s, "c2", "f5")
            ]
        );
        assert!(facts.self_calls.contains("m2"));
    }

    #[test]
    fn template_method_unresolved_self_send_allowed() {
        // DSC may contain names not visible in the defining class
        // (template-method pattern); see module docs.
        let src = r#"
class base { method template is send hook to self end }
class concrete inherits base { method hook is skip end }
"#;
        let (s, b) = build_schema(src).unwrap();
        let facts = facts_of(&s, &b, "base", "template");
        assert!(facts.self_calls.contains("hook"));
    }

    #[test]
    fn expression_send_reads_receiver_field() {
        let (s, facts) = probe("c1", &[], "f1 := send m to f3");
        let facts = facts.unwrap();
        assert!(facts.reads.contains(&fid(&s, "c1", "f3")));
        assert!(facts.writes.contains(&fid(&s, "c1", "f1")));
        assert_eq!(facts.external_sends.len(), 1);
    }
}
