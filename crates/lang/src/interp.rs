//! The executor of resolved method bodies.
//!
//! What runs is the [`crate::resolve`]d form `build_schema` produced:
//! locals are slots of one value stack (a frame is a base index into
//! it; arguments are evaluated straight into the callee's parameter
//! slots), fields are [`FieldId`]s, and a self-send late-binds through
//! one index into the receiver class's dispatch row. After the top
//! send's own `&str` nothing is looked up by name; names reappear only
//! inside error values. The scoping rule is in [`crate::resolve`]'s
//! module docs.
//!
//! All data access goes through the [`DataAccess`] trait, which is the
//! seam every concurrency-control scheme plugs into:
//!
//! * [`DataAccess::on_message`] fires when a *top* message is sent to an
//!   instance (from the application, or through a reference field). Under
//!   the paper's scheme this is the **only** point that acquires a lock —
//!   the transitive access vector covers everything below.
//! * [`DataAccess::on_self_message`] fires for every self-directed message
//!   (simple or prefixed). Per-message baselines (ORION-style read/write
//!   locking) acquire here too — which is precisely what produces the
//!   paper's problems P2 (repeated controls) and P3 (escalation).
//! * [`DataAccess::read_field`] / [`DataAccess::write_field`] fire on
//!   every field access; run-time field locking (Agrawal–El Abbadi)
//!   acquires here.
//!
//! Late binding follows §2.2 exactly: a self-directed message re-resolves
//! in the *receiver's* class, even when sent from an ancestor's method
//! body reached through a prefixed call.

use crate::ast::{BinOp, UnOp};
use crate::builtins::Builtins;
use crate::error::ExecError;
use crate::resolve::{MethodBodies, RExpr, RSend, RStmt, RTarget, Resolved, Selector};
use finecc_model::{ClassId, FieldId, MethodId, Oid, Schema, Value};

/// The interpreter's window onto the database, and the hook surface for
/// concurrency control. See the module docs for when each hook fires.
pub trait DataAccess {
    /// The proper class of an instance.
    fn class_of(&mut self, oid: Oid) -> Result<ClassId, ExecError>;

    /// Reads one field of an instance.
    fn read_field(&mut self, oid: Oid, field: FieldId) -> Result<Value, ExecError>;

    /// Writes one field of an instance.
    fn write_field(&mut self, oid: Oid, field: FieldId, value: Value) -> Result<(), ExecError>;

    /// Hook: a top message `method` is about to run on `oid`.
    fn on_message(&mut self, oid: Oid, class: ClassId, method: MethodId) -> Result<(), ExecError> {
        let _ = (oid, class, method);
        Ok(())
    }

    /// Hook: a self-directed message (simple or prefixed) is about to run.
    fn on_self_message(
        &mut self,
        oid: Oid,
        class: ClassId,
        method: MethodId,
    ) -> Result<(), ExecError> {
        let _ = (oid, class, method);
        Ok(())
    }
}

/// Interpreter configuration + immutable program context.
pub struct Interpreter<'a> {
    schema: &'a Schema,
    bodies: &'a MethodBodies,
    builtins: &'a Builtins,
    /// Maximum message depth (self-sends and cross-instance sends).
    pub max_depth: usize,
    /// Maximum number of loop iterations + message sends per top call.
    pub max_fuel: u64,
}

/// The mutable state of one top-level send: limits and the value stack
/// every frame of the execution lives in.
#[derive(Default)]
struct Run {
    depth: usize,
    fuel: u64,
    /// Frame slots of every active method, innermost last. `None` is a
    /// `var` slot whose declaration has not executed.
    stack: Vec<Option<Value>>,
}

impl Run {
    fn burn(&mut self) -> Result<(), ExecError> {
        if self.fuel == 0 {
            return Err(ExecError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }
}

/// One active method: the receiver, the class self-sends late-bind in,
/// and where the method's slots start in the value stack.
#[derive(Clone, Copy)]
struct Frame<'b> {
    receiver: Oid,
    receiver_class: ClassId,
    base: usize,
    method: &'b Resolved,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter with default limits (depth 128, fuel 1M).
    pub fn new(schema: &'a Schema, bodies: &'a MethodBodies, builtins: &'a Builtins) -> Self {
        Interpreter {
            schema,
            bodies,
            builtins,
            max_depth: 128,
            max_fuel: 1_000_000,
        }
    }

    /// Sends the *top* message `method(args)` to `oid`: resolves late
    /// binding in the receiver's class, fires [`DataAccess::on_message`],
    /// runs the body, and returns its value (nil unless `return`).
    pub fn send(
        &self,
        da: &mut dyn DataAccess,
        oid: Oid,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        let selector = self.bodies.selector(method);
        self.send_in(da, &mut Run::default(), oid, selector, method, args)
    }

    /// [`Interpreter::send`] to each of `oids` in turn, each with the
    /// full fuel budget, collecting the results; stops at the first
    /// failure. The method name is interned once and one value stack
    /// serves the whole extent.
    pub fn send_each(
        &self,
        da: &mut dyn DataAccess,
        oids: impl IntoIterator<Item = Oid>,
        method: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ExecError> {
        let selector = self.bodies.selector(method);
        let mut run = Run::default();
        let oids = oids.into_iter();
        let mut results = Vec::with_capacity(oids.size_hint().0);
        for oid in oids {
            results.push(self.send_in(da, &mut run, oid, selector, method, args)?);
        }
        Ok(results)
    }

    fn send_in(
        &self,
        da: &mut dyn DataAccess,
        run: &mut Run,
        oid: Oid,
        selector: Option<Selector>,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        let Some(selector) = selector else {
            // No class defines a message of this name.
            return Err(ExecError::MessageNotUnderstood {
                class: da.class_of(oid)?,
                method: method.to_string(),
            });
        };
        run.depth = 0;
        run.fuel = self.max_fuel;
        run.stack.clear();
        run.stack.extend(args.iter().cloned().map(Some));
        self.send_top(da, run, oid, selector, 0)
    }

    /// A top message whose arguments sit at `run.stack[base..]`.
    fn send_top(
        &self,
        da: &mut dyn DataAccess,
        run: &mut Run,
        oid: Oid,
        selector: Selector,
        base: usize,
    ) -> Result<Value, ExecError> {
        let class = da.class_of(oid)?;
        let mid = self.late_bind(class, selector)?;
        da.on_message(oid, class, mid)?;
        self.run_method(da, run, oid, class, mid, base)
    }

    fn late_bind(&self, class: ClassId, selector: Selector) -> Result<MethodId, ExecError> {
        self.bodies
            .dispatch(class, selector)
            .ok_or_else(|| ExecError::MessageNotUnderstood {
                class,
                method: self.bodies.selector_name(selector).to_string(),
            })
    }

    /// Runs `mid` on `receiver` with its arguments at `run.stack[base..]`
    /// (they become the parameter slots) and pops the frame.
    fn run_method(
        &self,
        da: &mut dyn DataAccess,
        run: &mut Run,
        receiver: Oid,
        receiver_class: ClassId,
        mid: MethodId,
        base: usize,
    ) -> Result<Value, ExecError> {
        if run.depth >= self.max_depth {
            return Err(ExecError::DepthExceeded(self.max_depth));
        }
        run.burn()?;
        let method = self.bodies.resolved(mid);
        let got = run.stack.len() - base;
        if method.params != got {
            return Err(ExecError::ArityMismatch {
                method: self.schema.method(mid).sig.name.clone(),
                expected: method.params,
                got,
            });
        }
        run.stack.resize(base + method.slot_names.len(), None);
        let frame = Frame {
            receiver,
            receiver_class,
            base,
            method,
        };
        run.depth += 1;
        let returned = self.exec_block(da, run, frame, &method.body);
        run.depth -= 1;
        run.stack.truncate(base);
        Ok(returned?.unwrap_or(Value::Nil))
    }

    /// Runs a block; `Some` is the value of a `return` that ended it.
    fn exec_block(
        &self,
        da: &mut dyn DataAccess,
        run: &mut Run,
        frame: Frame<'_>,
        block: &[RStmt],
    ) -> Result<Option<Value>, ExecError> {
        for stmt in block {
            if let Some(v) = self.exec_stmt(da, run, frame, stmt)? {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn exec_stmt(
        &self,
        da: &mut dyn DataAccess,
        run: &mut Run,
        frame: Frame<'_>,
        stmt: &RStmt,
    ) -> Result<Option<Value>, ExecError> {
        match stmt {
            RStmt::Skip => {}
            RStmt::SetLocal { slot, expr } => {
                let v = self.eval(da, run, frame, expr)?;
                run.stack[frame.base + *slot as usize] = Some(v);
            }
            RStmt::SetField { field, expr } => {
                let v = self.eval(da, run, frame, expr)?;
                da.write_field(frame.receiver, *field, v)?;
            }
            RStmt::SetUnknown { name, expr } => {
                self.eval(da, run, frame, expr)?;
                return Err(ExecError::UnknownName(name.to_string()));
            }
            RStmt::Send(send) => {
                self.eval_send(da, run, frame, send)?;
            }
            RStmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let blk = if self.eval(da, run, frame, cond)?.truthy() {
                    then_blk
                } else {
                    else_blk
                };
                return self.exec_block(da, run, frame, blk);
            }
            RStmt::While { cond, body } => loop {
                run.burn()?;
                if !self.eval(da, run, frame, cond)?.truthy() {
                    break;
                }
                if let Some(v) = self.exec_block(da, run, frame, body)? {
                    return Ok(Some(v));
                }
            },
            RStmt::Return(e) => return Ok(Some(self.eval(da, run, frame, e)?)),
        }
        Ok(None)
    }

    fn eval_send(
        &self,
        da: &mut dyn DataAccess,
        run: &mut Run,
        frame: Frame<'_>,
        send: &RSend,
    ) -> Result<Value, ExecError> {
        // Arguments are evaluated straight into the callee's parameter
        // slots. A nested send works above them and pops back to here.
        let base = run.stack.len();
        for a in &send.args {
            let v = self.eval(da, run, frame, a)?;
            run.stack.push(Some(v));
        }
        let Frame {
            receiver,
            receiver_class,
            ..
        } = frame;
        match &send.to {
            // Simple self-send: late binding in the receiver's class.
            RTarget::SelfSend(selector) => {
                let mid = self.late_bind(receiver_class, *selector)?;
                da.on_self_message(receiver, receiver_class, mid)?;
                self.run_method(da, run, receiver, receiver_class, mid, base)
            }
            // Prefixed self-send: the named ancestor's definition; late
            // binding of nested self-sends still uses the receiver class.
            RTarget::Prefixed { method, .. } => {
                da.on_self_message(receiver, receiver_class, *method)?;
                self.run_method(da, run, receiver, receiver_class, *method, base)
            }
            // Send through a reference field: a *top* message on the
            // referenced instance.
            RTarget::Field { field, selector } => match da.read_field(receiver, *field)? {
                Value::Ref(oid) => self.send_top(da, run, oid, *selector, base),
                Value::Nil => Err(ExecError::NilReceiver {
                    method: self.bodies.selector_name(*selector).to_string(),
                }),
                _ => Err(ExecError::NotAReference {
                    method: self.bodies.selector_name(*selector).to_string(),
                }),
            },
            RTarget::Error(e) => Err(e.clone()),
        }
    }

    fn eval(
        &self,
        da: &mut dyn DataAccess,
        run: &mut Run,
        frame: Frame<'_>,
        expr: &RExpr,
    ) -> Result<Value, ExecError> {
        match expr {
            RExpr::Const(v) => Ok(v.clone()),
            RExpr::SelfRef => Ok(Value::Ref(frame.receiver)),
            RExpr::Local(slot) => run.stack[frame.base + *slot as usize]
                .clone()
                .ok_or_else(|| {
                    ExecError::UnknownName(frame.method.slot_names[*slot as usize].to_string())
                }),
            RExpr::Field(field) => da.read_field(frame.receiver, *field),
            RExpr::Unknown(name) => Err(ExecError::UnknownName(name.to_string())),
            RExpr::Call { func, args } => {
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval(da, run, frame, a)?);
                }
                self.builtins.call(func, &vs)
            }
            RExpr::Unary { op, expr } => {
                let v = self.eval(da, run, frame, expr)?;
                unary_value(*op, v)
            }
            RExpr::Binary { op, lhs, rhs } => match op {
                // Short-circuit logicals first.
                BinOp::And => Ok(Value::Bool(
                    self.eval(da, run, frame, lhs)?.truthy()
                        && self.eval(da, run, frame, rhs)?.truthy(),
                )),
                BinOp::Or => Ok(Value::Bool(
                    self.eval(da, run, frame, lhs)?.truthy()
                        || self.eval(da, run, frame, rhs)?.truthy(),
                )),
                _ => {
                    let l = self.eval(da, run, frame, lhs)?;
                    let r = self.eval(da, run, frame, rhs)?;
                    binary_value(*op, &l, &r)
                }
            },
            RExpr::Send(send) => self.eval_send(da, run, frame, send),
        }
    }
}

/// Applies a unary operator.
pub(crate) fn unary_value(op: UnOp, v: Value) -> Result<Value, ExecError> {
    match op {
        UnOp::Not => Ok(Value::Bool(!v.truthy())),
        UnOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(ExecError::TypeError(format!(
                "cannot negate a {}",
                other.type_name()
            ))),
        },
    }
}

/// Applies a non-logical binary operator to two values.
///
/// Numeric rules: ints stay ints (wrapping; `/` and `%` by zero yield 0 so
/// generated workloads are total); mixing int and float coerces to float.
/// `+` concatenates strings. Equality across different types is `false`;
/// ordering across different types is a type error.
pub fn binary_value(op: BinOp, l: &Value, r: &Value) -> Result<Value, ExecError> {
    use BinOp::*;
    use Value::*;
    let type_err = || {
        Err(ExecError::TypeError(format!(
            "`{op}` not defined on {} and {}",
            l.type_name(),
            r.type_name()
        )))
    };
    match op {
        Add => match (l, r) {
            (Int(a), Int(b)) => Ok(Int(a.wrapping_add(*b))),
            (Float(a), Float(b)) => Ok(Float(a + b)),
            (Int(a), Float(b)) => Ok(Float(*a as f64 + b)),
            (Float(a), Int(b)) => Ok(Float(a + *b as f64)),
            (Str(a), Str(b)) => Ok(Value::str(format!("{a}{b}"))),
            _ => type_err(),
        },
        Sub | Mul | Div | Mod => {
            let f = |a: i64, b: i64| match op {
                Sub => a.wrapping_sub(b),
                Mul => a.wrapping_mul(b),
                Div => {
                    if b == 0 {
                        0
                    } else {
                        a.wrapping_div(b)
                    }
                }
                Mod => {
                    if b == 0 {
                        0
                    } else {
                        a.wrapping_rem(b)
                    }
                }
                _ => unreachable!(),
            };
            let g = |a: f64, b: f64| match op {
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        0.0
                    } else {
                        a / b
                    }
                }
                Mod => {
                    if b == 0.0 {
                        0.0
                    } else {
                        a % b
                    }
                }
                _ => unreachable!(),
            };
            match (l, r) {
                (Int(a), Int(b)) => Ok(Int(f(*a, *b))),
                (Float(a), Float(b)) => Ok(Float(g(*a, *b))),
                (Int(a), Float(b)) => Ok(Float(g(*a as f64, *b))),
                (Float(a), Int(b)) => Ok(Float(g(*a, *b as f64))),
                _ => type_err(),
            }
        }
        Eq | Ne => {
            let eq = match (l, r) {
                (Int(a), Float(b)) | (Float(b), Int(a)) => (*a as f64) == *b,
                (a, b) => a == b,
            };
            Ok(Bool(if op == Eq { eq } else { !eq }))
        }
        Lt | Le | Gt | Ge => {
            let ord = match (l, r) {
                (Int(a), Int(b)) => a.partial_cmp(b),
                (Float(a), Float(b)) => a.partial_cmp(b),
                (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
                (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
                (Str(a), Str(b)) => Some(a.cmp(b)),
                (Bool(a), Bool(b)) => Some(a.cmp(b)),
                _ => return type_err(),
            };
            let Some(ord) = ord else {
                // NaN comparisons are false.
                return Ok(Bool(false));
            };
            Ok(Bool(match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        And | Or => unreachable!("short-circuited by the evaluator"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{build_schema, FIGURE1_SOURCE};
    use finecc_model::Instance;
    use std::collections::HashMap;

    /// A plain in-memory store with call-tracing, for interpreter tests.
    struct TraceStore {
        schema: Schema,
        heap: HashMap<Oid, Instance>,
        msgs: Vec<String>,
        self_msgs: Vec<String>,
        reads: usize,
        writes: usize,
    }

    impl TraceStore {
        fn new(schema: Schema) -> Self {
            TraceStore {
                schema,
                heap: HashMap::new(),
                msgs: Vec::new(),
                self_msgs: Vec::new(),
                reads: 0,
                writes: 0,
            }
        }

        fn create(&mut self, class: &str, oid: u64) -> Oid {
            let cid = self.schema.class_by_name(class).unwrap();
            let inst = Instance::new(&self.schema, cid);
            self.heap.insert(Oid(oid), inst);
            Oid(oid)
        }

        fn get_field(&self, oid: Oid, class: &str, name: &str) -> Value {
            let cid = self.schema.class_by_name(class).unwrap();
            let f = self.schema.resolve_field(cid, name).unwrap();
            self.heap[&oid].get(&self.schema, f).unwrap().clone()
        }

        fn set_field(&mut self, oid: Oid, class: &str, name: &str, v: Value) {
            let cid = self.schema.class_by_name(class).unwrap();
            let f = self.schema.resolve_field(cid, name).unwrap();
            let schema = self.schema.clone();
            self.heap.get_mut(&oid).unwrap().set(&schema, f, v).unwrap();
        }
    }

    impl DataAccess for TraceStore {
        fn class_of(&mut self, oid: Oid) -> Result<ClassId, ExecError> {
            self.heap
                .get(&oid)
                .map(|i| i.class)
                .ok_or(ExecError::UnknownOid(oid))
        }
        fn read_field(&mut self, oid: Oid, field: FieldId) -> Result<Value, ExecError> {
            self.reads += 1;
            let inst = self.heap.get(&oid).ok_or(ExecError::UnknownOid(oid))?;
            inst.get(&self.schema, field)
                .cloned()
                .ok_or(ExecError::FieldNotVisible { oid, field })
        }
        fn write_field(&mut self, oid: Oid, field: FieldId, value: Value) -> Result<(), ExecError> {
            self.writes += 1;
            let schema = self.schema.clone();
            let inst = self.heap.get_mut(&oid).ok_or(ExecError::UnknownOid(oid))?;
            inst.set(&schema, field, value)
                .map(drop)
                .ok_or(ExecError::FieldNotVisible { oid, field })
        }
        fn on_message(&mut self, _o: Oid, _c: ClassId, m: MethodId) -> Result<(), ExecError> {
            self.msgs.push(format!("{m}"));
            Ok(())
        }
        fn on_self_message(&mut self, _o: Oid, _c: ClassId, m: MethodId) -> Result<(), ExecError> {
            self.self_msgs.push(format!("{m}"));
            Ok(())
        }
    }

    fn fig1() -> (Schema, MethodBodies, Builtins) {
        let (s, b) = build_schema(FIGURE1_SOURCE).unwrap();
        (s, b, Builtins::standard())
    }

    #[test]
    fn m2_on_c1_instance_writes_f1() {
        let (s, b, bi) = fig1();
        let mut store = TraceStore::new(s.clone());
        let o = store.create("c1", 1);
        store.set_field(o, "c1", "f1", Value::Int(10));
        store.set_field(o, "c1", "f2", Value::Bool(true));
        let interp = Interpreter::new(&s, &b, &bi);
        interp.send(&mut store, o, "m2", &[Value::Int(5)]).unwrap();
        // expr(f1, f2, p1) = 10 + 1 + 5 = 16
        assert_eq!(store.get_field(o, "c1", "f1"), Value::Int(16));
    }

    #[test]
    fn late_binding_selects_override() {
        let (s, b, bi) = fig1();
        let mut store = TraceStore::new(s.clone());
        let o = store.create("c2", 1);
        store.set_field(o, "c2", "f5", Value::Int(7));
        let interp = Interpreter::new(&s, &b, &bi);
        // m1 → self m2 (c2's override!) → prefixed c1.m2 writes f1;
        // override body writes f4 := expr(f5, p1) = 7 + 3 = 10.
        interp.send(&mut store, o, "m1", &[Value::Int(3)]).unwrap();
        assert_eq!(store.get_field(o, "c2", "f4"), Value::Int(10));
        // c1.m2 wrote f1 := expr(f1, f2, p1) = 0 + 0 + 3 = 3.
        assert_eq!(store.get_field(o, "c2", "f1"), Value::Int(3));
    }

    #[test]
    fn top_vs_self_message_hooks() {
        let (s, b, bi) = fig1();
        let mut store = TraceStore::new(s.clone());
        let o = store.create("c2", 1);
        let interp = Interpreter::new(&s, &b, &bi);
        interp.send(&mut store, o, "m1", &[Value::Int(1)]).unwrap();
        // Exactly one top message (m1); self messages: m2(c2), c1.m2, m3.
        assert_eq!(store.msgs.len(), 1);
        assert_eq!(store.self_msgs.len(), 3);
    }

    #[test]
    fn send_through_field_is_top_message() {
        let (s, b, bi) = fig1();
        let mut store = TraceStore::new(s.clone());
        let o1 = store.create("c1", 1);
        let o3 = store.create("c3", 2);
        store.set_field(o1, "c1", "f2", Value::Bool(true));
        store.set_field(o1, "c1", "f3", Value::Ref(o3));
        let interp = Interpreter::new(&s, &b, &bi);
        interp.send(&mut store, o1, "m3", &[]).unwrap();
        // Two top messages: m3 on o1 and m on o3.
        assert_eq!(store.msgs.len(), 2);
        assert_eq!(store.get_field(o3, "c3", "g1"), Value::Int(1));
    }

    #[test]
    fn conditional_external_send_skipped() {
        let (s, b, bi) = fig1();
        let mut store = TraceStore::new(s.clone());
        let o1 = store.create("c1", 1);
        let interp = Interpreter::new(&s, &b, &bi);
        // f2 is false: no send through f3, no nil-receiver error.
        interp.send(&mut store, o1, "m3", &[]).unwrap();
        assert_eq!(store.msgs.len(), 1);
    }

    #[test]
    fn nil_receiver_error() {
        let (s, b, bi) = fig1();
        let mut store = TraceStore::new(s.clone());
        let o1 = store.create("c1", 1);
        store.set_field(o1, "c1", "f2", Value::Bool(true));
        let interp = Interpreter::new(&s, &b, &bi);
        assert!(matches!(
            interp.send(&mut store, o1, "m3", &[]),
            Err(ExecError::NilReceiver { .. })
        ));
    }

    #[test]
    fn message_not_understood() {
        let (s, b, bi) = fig1();
        let mut store = TraceStore::new(s.clone());
        let o1 = store.create("c1", 1);
        let interp = Interpreter::new(&s, &b, &bi);
        assert!(matches!(
            interp.send(&mut store, o1, "m4", &[Value::Int(1), Value::Int(2)]),
            Err(ExecError::MessageNotUnderstood { .. })
        ));
    }

    #[test]
    fn arity_checked() {
        let (s, b, bi) = fig1();
        let mut store = TraceStore::new(s.clone());
        let o1 = store.create("c1", 1);
        let interp = Interpreter::new(&s, &b, &bi);
        assert!(matches!(
            interp.send(&mut store, o1, "m2", &[]),
            Err(ExecError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn m4_branches_on_cond() {
        let (s, b, bi) = fig1();
        let mut store = TraceStore::new(s.clone());
        let o = store.create("c2", 1);
        let interp = Interpreter::new(&s, &b, &bi);
        // cond(f5=0, p1=-1) = false → f6 untouched.
        interp
            .send(&mut store, o, "m4", &[Value::Int(-1), Value::Int(2)])
            .unwrap();
        assert_eq!(store.get_field(o, "c2", "f6"), Value::str(""));
        // cond(0, 5) = true → f6 := expr("", p2).
        interp
            .send(&mut store, o, "m4", &[Value::Int(5), Value::Int(2)])
            .unwrap();
        assert_eq!(store.get_field(o, "c2", "f6"), Value::str("|2"));
    }

    #[test]
    fn recursion_depth_limited() {
        let src = "class a { method loop is send loop to self end }";
        let (s, b) = build_schema(src).unwrap();
        let bi = Builtins::standard();
        let mut store = TraceStore::new(s.clone());
        let o = store.create("a", 1);
        let mut interp = Interpreter::new(&s, &b, &bi);
        interp.max_depth = 16;
        assert!(matches!(
            interp.send(&mut store, o, "loop", &[]),
            Err(ExecError::DepthExceeded(16))
        ));
    }

    #[test]
    fn while_loop_and_fuel() {
        let src = r#"
class a {
  fields { n: integer; acc: integer; }
  method sum is
    while n > 0 do
      acc := acc + n;
      n := n - 1
    end;
    return acc
  end
  method forever is
    while true do skip end
  end
}
"#;
        let (s, b) = build_schema(src).unwrap();
        let bi = Builtins::standard();
        let mut store = TraceStore::new(s.clone());
        let o = store.create("a", 1);
        store.set_field(o, "a", "n", Value::Int(5));
        let mut interp = Interpreter::new(&s, &b, &bi);
        let v = interp.send(&mut store, o, "sum", &[]).unwrap();
        assert_eq!(v, Value::Int(15));
        interp.max_fuel = 1000;
        assert!(matches!(
            interp.send(&mut store, o, "forever", &[]),
            Err(ExecError::FuelExhausted)
        ));
    }

    #[test]
    fn return_value_via_expression_send() {
        let src = r#"
class cell { fields { v: integer; } method get is return v end }
class user {
  fields { c: cell; out: integer; }
  method pull is out := (send get to c) + 1 end
}
"#;
        let (s, b) = build_schema(src).unwrap();
        let bi = Builtins::standard();
        let mut store = TraceStore::new(s.clone());
        let cell = store.create("cell", 1);
        let user = store.create("user", 2);
        store.set_field(cell, "cell", "v", Value::Int(41));
        store.set_field(user, "user", "c", Value::Ref(cell));
        let interp = Interpreter::new(&s, &b, &bi);
        interp.send(&mut store, user, "pull", &[]).unwrap();
        assert_eq!(store.get_field(user, "user", "out"), Value::Int(42));
    }

    #[test]
    fn binary_semantics() {
        use BinOp::*;
        let i = Value::Int;
        assert_eq!(binary_value(Add, &i(2), &i(3)), Ok(i(5)));
        assert_eq!(binary_value(Div, &i(7), &i(0)), Ok(i(0)));
        assert_eq!(binary_value(Mod, &i(7), &i(0)), Ok(i(0)));
        assert_eq!(
            binary_value(Add, &Value::str("a"), &Value::str("b")),
            Ok(Value::str("ab"))
        );
        assert_eq!(
            binary_value(Eq, &i(1), &Value::str("1")),
            Ok(Value::Bool(false))
        );
        assert_eq!(
            binary_value(Ne, &i(1), &Value::str("1")),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            binary_value(Lt, &i(1), &Value::Float(1.5)),
            Ok(Value::Bool(true))
        );
        assert!(binary_value(Lt, &i(1), &Value::str("x")).is_err());
        assert_eq!(
            binary_value(Add, &Value::Float(0.5), &i(1)),
            Ok(Value::Float(1.5))
        );
    }

    #[test]
    fn self_expression_is_receiver_ref() {
        let src = r#"
class node {
  fields { next: node; }
  method tie is next := self end
}
"#;
        let (s, b) = build_schema(src).unwrap();
        let bi = Builtins::standard();
        let mut store = TraceStore::new(s.clone());
        let o = store.create("node", 5);
        let interp = Interpreter::new(&s, &b, &bi);
        interp.send(&mut store, o, "tie", &[]).unwrap();
        assert_eq!(store.get_field(o, "node", "next"), Value::Ref(o));
    }
}
