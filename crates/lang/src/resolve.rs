//! Name resolution, once, at [`crate::build_schema`].
//!
//! The parser leaves every name in the AST as a string. This module
//! turns each method body into a resolved body in which nothing is
//! looked up by name any more:
//!
//! * parameters and `var`s are **frame slots** (parameters first, then
//!   one slot per distinct `var` name),
//! * field names are [`FieldId`]s of the *defining* class,
//! * literals are [`Value`]s,
//! * `send m to self` carries a *selector* — a dense id of the message
//!   name, looked up at run time in the **receiver's** row of the
//!   dispatch table [`MethodBodies`] holds, which is late binding (§2.2)
//!   as one array index,
//! * `send C.m to self` carries the [`MethodId`] the prefix names,
//! * `send m to f` carries `(FieldId, selector)`.
//!
//! Names survive only inside error values. The interpreter executes the
//! resolved body and [`mod@crate::analyze`] reads the same one, so the
//! access vector the compiler derives covers exactly what runs.
//!
//! # Scoping
//!
//! Resolution is **static and textual**: a name is a local if it is a
//! parameter or if a `var` of that name appears *textually earlier* in
//! the body — whatever branch or loop that `var` sits in, and whether or
//! not it has run — and a field of the defining class otherwise. A `var`
//! shadows from its declaration to the end of the body (its own
//! initializer still sees the outer meaning). This is the rule
//! Definition 6 presumes: which field an occurrence denotes is a
//! property of the program text. A `var` whose name is already a local
//! (a parameter, or an earlier `var`) assigns that local's slot. A slot
//! whose `var` has not executed is *uninitialised*: assigning it
//! initialises it, reading it is [`ExecError::UnknownName`].
//!
//! What cannot be resolved is not a build error: the offending node
//! becomes an error node that raises its [`ExecError`] when (and only
//! when) execution reaches it, and that `analyze` reports at compile
//! time — so `finecc-core` still rejects the schema with the method's
//! name attached.

use crate::ast::{BinOp, Block, Expr, SendExpr, Stmt, Target, UnOp};
use crate::error::ExecError;
use finecc_model::{ClassId, FieldId, MethodId, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A message name, interned: the column of the dispatch table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Selector(u32);

/// A resolved statement.
#[derive(Clone, Debug)]
pub(crate) enum RStmt {
    Skip,
    /// Assignment to (or `var` declaration of) a frame slot.
    SetLocal {
        slot: u32,
        expr: RExpr,
    },
    /// Assignment to a field of the receiver.
    SetField {
        field: FieldId,
        expr: RExpr,
    },
    /// Assignment to a name that is neither local nor field: evaluates
    /// the right-hand side, then fails.
    SetUnknown {
        name: Box<str>,
        expr: RExpr,
    },
    Send(RSend),
    If {
        cond: RExpr,
        then_blk: Vec<RStmt>,
        else_blk: Vec<RStmt>,
    },
    While {
        cond: RExpr,
        body: Vec<RStmt>,
    },
    /// `return [expr]`; a bare `return` yields nil.
    Return(RExpr),
}

/// A resolved expression.
#[derive(Clone, Debug)]
pub(crate) enum RExpr {
    Const(Value),
    SelfRef,
    Local(u32),
    Field(FieldId),
    /// A name that is neither local nor field.
    Unknown(Box<str>),
    /// Builtins are bound by name at the call: the registry is the
    /// interpreter's, supplied after the schema is built.
    Call {
        func: Box<str>,
        args: Vec<RExpr>,
    },
    Unary {
        op: UnOp,
        expr: Box<RExpr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<RExpr>,
        rhs: Box<RExpr>,
    },
    Send(Box<RSend>),
}

/// A resolved message send.
#[derive(Clone, Debug)]
pub(crate) struct RSend {
    pub(crate) args: Vec<RExpr>,
    pub(crate) to: RTarget,
}

/// Where a resolved send goes.
#[derive(Clone, Debug)]
pub(crate) enum RTarget {
    /// `send m to self`: late-bound in the receiver's class.
    SelfSend(Selector),
    /// `send C.m to self`: the definition `m` resolves to in `C`.
    Prefixed { class: ClassId, method: MethodId },
    /// `send m to f`: a top message on the instance `f` references.
    Field { field: FieldId, selector: Selector },
    /// A send that cannot be resolved: raised after the arguments are
    /// evaluated.
    Error(ExecError),
}

/// One method's resolved body.
#[derive(Clone, Debug)]
pub(crate) struct Resolved {
    /// Frame slots: parameters first, then one per distinct `var` name.
    /// The names are kept for [`ExecError::UnknownName`] on an
    /// uninitialised read.
    pub(crate) slot_names: Vec<Box<str>>,
    pub(crate) params: usize,
    pub(crate) body: Vec<RStmt>,
}

/// Method bodies keyed by [`MethodId`], produced by
/// [`crate::build_schema`]: the source ASTs, their resolved form, the
/// selector table and the per-class dispatch rows.
#[derive(Clone, Debug, Default)]
pub struct MethodBodies {
    bodies: Vec<Arc<Block>>,
    resolved: Vec<Resolved>,
    selector_names: Vec<Box<str>>,
    selector_by_name: HashMap<Box<str>, Selector>,
    /// Class-major dispatch table: `[class × selectors + selector]` is
    /// the definition the message late-binds to in that class.
    dispatch: Vec<Option<MethodId>>,
}

impl MethodBodies {
    /// Resolves every body of `schema` (`bodies[m]` is method `m`'s AST).
    pub(crate) fn resolve(schema: &Schema, bodies: Vec<Arc<Block>>) -> MethodBodies {
        let mut out = MethodBodies::default();
        for mi in schema.methods() {
            out.intern(&mi.sig.name);
        }
        for mi in schema.methods() {
            let mut cx = Resolver {
                schema,
                class: mi.owner,
                slot_names: mi.sig.params.iter().map(|p| p.as_str().into()).collect(),
                bodies: &mut out,
            };
            let body = cx.block(&bodies[mi.id.index()]);
            let slot_names = cx.slot_names;
            out.resolved.push(Resolved {
                slot_names,
                params: mi.sig.params.len(),
                body,
            });
        }
        out.bodies = bodies;
        let width = out.selector_names.len();
        out.dispatch = vec![None; schema.class_count() * width];
        for ci in schema.classes() {
            for (name, mid) in &ci.methods {
                let sel = out.selector_by_name[name.as_str()];
                out.dispatch[ci.id.index() * width + sel.0 as usize] = Some(*mid);
            }
        }
        out
    }

    fn intern(&mut self, name: &str) -> Selector {
        if let Some(&sel) = self.selector_by_name.get(name) {
            return sel;
        }
        let sel = Selector(self.selector_names.len() as u32);
        self.selector_names.push(name.into());
        self.selector_by_name.insert(name.into(), sel);
        sel
    }

    /// The source AST of a method definition site.
    pub fn body(&self, id: MethodId) -> &Block {
        &self.bodies[id.index()]
    }

    /// Number of bodies (equals the schema's method count).
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// `true` when no methods exist.
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    /// The selector of a message name; `None` when no class defines and
    /// no body sends a message of that name.
    pub(crate) fn selector(&self, name: &str) -> Option<Selector> {
        self.selector_by_name.get(name).copied()
    }

    /// The message name a selector stands for.
    pub(crate) fn selector_name(&self, sel: Selector) -> &str {
        &self.selector_names[sel.0 as usize]
    }

    /// Late binding: the definition `sel` resolves to in `class`.
    #[inline]
    pub(crate) fn dispatch(&self, class: ClassId, sel: Selector) -> Option<MethodId> {
        self.dispatch[class.index() * self.selector_names.len() + sel.0 as usize]
    }

    pub(crate) fn resolved(&self, id: MethodId) -> &Resolved {
        &self.resolved[id.index()]
    }
}

struct Resolver<'a> {
    schema: &'a Schema,
    /// The defining class: the one whose fields the body may name.
    class: ClassId,
    slot_names: Vec<Box<str>>,
    bodies: &'a mut MethodBodies,
}

impl Resolver<'_> {
    /// The slot a name denotes *here*; with duplicate parameter names the
    /// later one wins.
    fn slot(&self, name: &str) -> Option<u32> {
        self.slot_names
            .iter()
            .rposition(|n| **n == *name)
            .map(|s| s as u32)
    }

    fn field(&self, name: &str) -> Option<FieldId> {
        self.schema.resolve_field(self.class, name)
    }

    fn block(&mut self, block: &Block) -> Vec<RStmt> {
        block.0.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &Stmt) -> RStmt {
        match stmt {
            Stmt::Skip => RStmt::Skip,
            Stmt::Assign { name, expr } => {
                let expr = self.expr(expr);
                if let Some(slot) = self.slot(name) {
                    RStmt::SetLocal { slot, expr }
                } else if let Some(field) = self.field(name) {
                    RStmt::SetField { field, expr }
                } else {
                    RStmt::SetUnknown {
                        name: name.as_str().into(),
                        expr,
                    }
                }
            }
            Stmt::VarDecl { name, expr } => {
                // The initializer is resolved before the name is in
                // scope: `var f := f + 1` reads the field.
                let expr = self.expr(expr);
                let slot = self.slot(name).unwrap_or_else(|| {
                    self.slot_names.push(name.as_str().into());
                    (self.slot_names.len() - 1) as u32
                });
                RStmt::SetLocal { slot, expr }
            }
            Stmt::Send(send) => RStmt::Send(self.send(send)),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => RStmt::If {
                cond: self.expr(cond),
                then_blk: self.block(then_blk),
                else_blk: else_blk.as_ref().map_or_else(Vec::new, |b| self.block(b)),
            },
            Stmt::While { cond, body } => RStmt::While {
                cond: self.expr(cond),
                body: self.block(body),
            },
            Stmt::Return(e) => RStmt::Return(match e {
                Some(e) => self.expr(e),
                None => RExpr::Const(Value::Nil),
            }),
        }
    }

    fn expr(&mut self, expr: &Expr) -> RExpr {
        match expr {
            Expr::Int(v) => RExpr::Const(Value::Int(*v)),
            Expr::Float(bits) => RExpr::Const(Value::Float(Expr::float_value(*bits))),
            Expr::Str(s) => RExpr::Const(Value::str(s)),
            Expr::Bool(b) => RExpr::Const(Value::Bool(*b)),
            Expr::Nil => RExpr::Const(Value::Nil),
            Expr::SelfRef => RExpr::SelfRef,
            Expr::Name(name) => {
                if let Some(slot) = self.slot(name) {
                    RExpr::Local(slot)
                } else if let Some(field) = self.field(name) {
                    RExpr::Field(field)
                } else {
                    RExpr::Unknown(name.as_str().into())
                }
            }
            Expr::Call { func, args } => RExpr::Call {
                func: func.as_str().into(),
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
            Expr::Unary { op, expr } => RExpr::Unary {
                op: *op,
                expr: Box::new(self.expr(expr)),
            },
            Expr::Binary { op, lhs, rhs } => RExpr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
            },
            Expr::Send(send) => RExpr::Send(Box::new(self.send(send))),
        }
    }

    fn send(&mut self, send: &SendExpr) -> RSend {
        let args = send.args.iter().map(|a| self.expr(a)).collect();
        let to = match (&send.prefix, &send.target) {
            (Some(prefix), Target::SelfRef) => self.prefixed(prefix, &send.method),
            (None, Target::SelfRef) => RTarget::SelfSend(self.bodies.intern(&send.method)),
            (None, Target::Field(fname)) => match (self.slot(fname), self.field(fname)) {
                (None, Some(field)) => RTarget::Field {
                    field,
                    selector: self.bodies.intern(&send.method),
                },
                _ => RTarget::Error(ExecError::UnknownName(fname.clone())),
            },
            (Some(_), Target::Field(_)) => RTarget::Error(ExecError::TypeError(
                "prefixed send must target self".into(),
            )),
        };
        RSend { args, to }
    }

    /// Definition 8: `C'` must be a proper ancestor of the defining
    /// class and `M'` visible in `C'`.
    fn prefixed(&self, prefix: &str, method: &str) -> RTarget {
        let Some(class) = self.schema.class_by_name(prefix) else {
            return RTarget::Error(ExecError::UnknownName(prefix.to_string()));
        };
        if !self.schema.class(self.class).ancestors.contains(&class) {
            return RTarget::Error(ExecError::TypeError(format!(
                "`send {prefix}.{method}`: `{prefix}` is not a proper ancestor"
            )));
        }
        match self.schema.resolve_method(class, method) {
            Some(method) => RTarget::Prefixed { class, method },
            None => RTarget::Error(ExecError::MessageNotUnderstood {
                class,
                method: method.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::{build_schema, FIGURE1_SOURCE};

    #[test]
    fn dispatch_rows_are_late_binding() {
        let (s, b) = build_schema(FIGURE1_SOURCE).unwrap();
        for ci in s.classes() {
            for name in ["m", "m1", "m2", "m3", "m4"] {
                let sel = b.selector(name).unwrap();
                assert_eq!(b.selector_name(sel), name);
                assert_eq!(b.dispatch(ci.id, sel), s.resolve_method(ci.id, name));
            }
        }
        assert_eq!(b.selector("nope"), None);
    }

    #[test]
    fn sent_but_undefined_names_get_a_selector() {
        let src = "class a { method t is send hook to self end }";
        let (s, b) = build_schema(src).unwrap();
        let a = s.class_by_name("a").unwrap();
        let hook = b.selector("hook").expect("interned from the send");
        assert_eq!(b.dispatch(a, hook), None);
    }

    #[test]
    fn slots_are_params_then_distinct_vars() {
        let src = r#"
class a {
  fields { x: integer; }
  method m(p, q) is
    var t := p;
    if q then var u := 1 end;
    var t := 2;
    var p := 3
  end
}
"#;
        let (s, b) = build_schema(src).unwrap();
        let a = s.class_by_name("a").unwrap();
        let r = b.resolved(s.resolve_method(a, "m").unwrap());
        let names: Vec<&str> = r.slot_names.iter().map(|n| &**n).collect();
        assert_eq!(names, ["p", "q", "t", "u"]);
        assert_eq!(r.params, 2);
    }
}
