//! Test-only reference evaluator: a by-name tree walker over the AST.
//!
//! It states the language's semantics — including the textual scoping
//! rule of [`crate::resolve`] — a second, independent way: nothing is
//! resolved ahead of time, every name is looked up when its statement
//! runs, and "a `var` shadows from its declaration to the end of the
//! body" is tracked dynamically as the set of names declared *textually
//! before* the current statement. The differential tests below run
//! generated programs through this and through the resolved executor and
//! demand the same value, the same hook sequence and the same error.

use crate::ast::{BinOp, Block, Expr, SendExpr, Stmt, Target};
use crate::builtins::Builtins;
use crate::error::ExecError;
use crate::interp::{binary_value, unary_value, DataAccess};
use crate::resolve::MethodBodies;
use finecc_model::{ClassId, FieldId, MethodId, Oid, Schema, Value};
use std::collections::{BTreeSet, HashMap};

pub(crate) struct Reference<'a> {
    pub(crate) schema: &'a Schema,
    pub(crate) bodies: &'a MethodBodies,
    pub(crate) builtins: &'a Builtins,
    pub(crate) max_depth: usize,
    pub(crate) max_fuel: u64,
}

struct Run {
    depth: usize,
    fuel: u64,
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

struct Frame {
    receiver: Oid,
    receiver_class: ClassId,
    defining_class: ClassId,
    /// Parameters, plus every `var` name textually before the statement
    /// being executed.
    declared: BTreeSet<String>,
    /// The locals that hold a value.
    values: HashMap<String, Value>,
}

/// Every name a `var` declares anywhere inside `block`.
fn vars_of(block: &Block, out: &mut BTreeSet<String>) {
    for stmt in &block.0 {
        match stmt {
            Stmt::VarDecl { name, .. } => {
                out.insert(name.clone());
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                vars_of(then_blk, out);
                if let Some(e) = else_blk {
                    vars_of(e, out);
                }
            }
            Stmt::While { body, .. } => vars_of(body, out),
            _ => {}
        }
    }
}

impl Reference<'_> {
    pub(crate) fn send(
        &self,
        da: &mut dyn DataAccess,
        oid: Oid,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        let mut run = Run {
            depth: 0,
            fuel: self.max_fuel,
        };
        self.send_top(da, &mut run, oid, method, args)
    }

    fn send_top(
        &self,
        da: &mut dyn DataAccess,
        run: &mut Run,
        oid: Oid,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        let class = da.class_of(oid)?;
        let mid = self.bind(class, method)?;
        da.on_message(oid, class, mid)?;
        self.run_method(da, run, oid, class, mid, args)
    }

    fn bind(&self, class: ClassId, method: &str) -> Result<MethodId, ExecError> {
        self.schema
            .resolve_method(class, method)
            .ok_or_else(|| ExecError::MessageNotUnderstood {
                class,
                method: method.to_string(),
            })
    }

    fn run_method(
        &self,
        da: &mut dyn DataAccess,
        run: &mut Run,
        receiver: Oid,
        receiver_class: ClassId,
        mid: MethodId,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        if run.depth >= self.max_depth {
            return Err(ExecError::DepthExceeded(self.max_depth));
        }
        run.burn()?;
        let mi = self.schema.method(mid);
        if mi.sig.params.len() != args.len() {
            return Err(ExecError::ArityMismatch {
                method: mi.sig.name.clone(),
                expected: mi.sig.params.len(),
                got: args.len(),
            });
        }
        let mut frame = Frame {
            receiver,
            receiver_class,
            defining_class: mi.owner,
            declared: mi.sig.params.iter().cloned().collect(),
            // With a repeated parameter name the later argument wins.
            values: mi
                .sig
                .params
                .iter()
                .cloned()
                .zip(args.iter().cloned())
                .collect(),
        };
        run.depth += 1;
        let returned = self.block(da, run, &mut frame, self.bodies.body(mid));
        run.depth -= 1;
        Ok(returned?.unwrap_or(Value::Nil))
    }

    fn field(&self, frame: &Frame, name: &str) -> Option<FieldId> {
        self.schema.resolve_field(frame.defining_class, name)
    }

    fn block(
        &self,
        da: &mut dyn DataAccess,
        run: &mut Run,
        frame: &mut Frame,
        block: &Block,
    ) -> Result<Option<Value>, ExecError> {
        for stmt in &block.0 {
            if let Some(v) = self.stmt(da, run, frame, stmt)? {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn stmt(
        &self,
        da: &mut dyn DataAccess,
        run: &mut Run,
        frame: &mut Frame,
        stmt: &Stmt,
    ) -> Result<Option<Value>, ExecError> {
        match stmt {
            Stmt::Skip => {}
            Stmt::Assign { name, expr } => {
                let v = self.eval(da, run, frame, expr)?;
                if frame.declared.contains(name) {
                    frame.values.insert(name.clone(), v);
                } else if let Some(f) = self.field(frame, name) {
                    da.write_field(frame.receiver, f, v)?;
                } else {
                    return Err(ExecError::UnknownName(name.clone()));
                }
            }
            Stmt::VarDecl { name, expr } => {
                let v = self.eval(da, run, frame, expr)?;
                frame.declared.insert(name.clone());
                frame.values.insert(name.clone(), v);
            }
            Stmt::Send(send) => {
                self.eval_send(da, run, frame, send)?;
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let taken = if self.eval(da, run, frame, cond)?.truthy() {
                    Some(then_blk)
                } else {
                    // The `then` branch's `var`s are textually behind
                    // the `else` branch, run or not.
                    vars_of(then_blk, &mut frame.declared);
                    else_blk.as_ref()
                };
                if let Some(blk) = taken {
                    if let Some(v) = self.block(da, run, frame, blk)? {
                        return Ok(Some(v));
                    }
                }
                // Past the `if`, so are the `var`s of both branches.
                vars_of(then_blk, &mut frame.declared);
                if let Some(e) = else_blk {
                    vars_of(e, &mut frame.declared);
                }
            }
            Stmt::While { cond, body } => {
                // Each iteration re-enters the body with only what is
                // declared textually before the loop.
                let before = frame.declared.clone();
                loop {
                    run.burn()?;
                    frame.declared.clone_from(&before);
                    if !self.eval(da, run, frame, cond)?.truthy() {
                        break;
                    }
                    if let Some(v) = self.block(da, run, frame, body)? {
                        return Ok(Some(v));
                    }
                }
                vars_of(body, &mut frame.declared);
            }
            Stmt::Return(e) => {
                return Ok(Some(match e {
                    Some(e) => self.eval(da, run, frame, e)?,
                    None => Value::Nil,
                }));
            }
        }
        Ok(None)
    }

    fn eval_send(
        &self,
        da: &mut dyn DataAccess,
        run: &mut Run,
        frame: &mut Frame,
        send: &SendExpr,
    ) -> Result<Value, ExecError> {
        let mut args = Vec::new();
        for a in &send.args {
            args.push(self.eval(da, run, frame, a)?);
        }
        let (receiver, class) = (frame.receiver, frame.receiver_class);
        match (&send.prefix, &send.target) {
            (Some(prefix), Target::SelfRef) => {
                let pid = self
                    .schema
                    .class_by_name(prefix)
                    .ok_or_else(|| ExecError::UnknownName(prefix.clone()))?;
                let ancestors = &self.schema.class(frame.defining_class).ancestors;
                if !ancestors.contains(&pid) {
                    return Err(ExecError::TypeError(format!(
                        "`send {prefix}.{}`: `{prefix}` is not a proper ancestor",
                        send.method
                    )));
                }
                let mid = self.bind(pid, &send.method)?;
                da.on_self_message(receiver, class, mid)?;
                self.run_method(da, run, receiver, class, mid, &args)
            }
            (None, Target::SelfRef) => {
                let mid = self.bind(class, &send.method)?;
                da.on_self_message(receiver, class, mid)?;
                self.run_method(da, run, receiver, class, mid, &args)
            }
            (None, Target::Field(fname)) => {
                let f = Some(fname)
                    .filter(|n| !frame.declared.contains(*n))
                    .and_then(|n| self.field(frame, n))
                    .ok_or_else(|| ExecError::UnknownName(fname.clone()))?;
                match da.read_field(receiver, f)? {
                    Value::Ref(oid) => self.send_top(da, run, oid, &send.method, &args),
                    Value::Nil => Err(ExecError::NilReceiver {
                        method: send.method.clone(),
                    }),
                    _ => Err(ExecError::NotAReference {
                        method: send.method.clone(),
                    }),
                }
            }
            (Some(_), Target::Field(_)) => Err(ExecError::TypeError(
                "prefixed send must target self".into(),
            )),
        }
    }

    fn eval(
        &self,
        da: &mut dyn DataAccess,
        run: &mut Run,
        frame: &mut Frame,
        expr: &Expr,
    ) -> Result<Value, ExecError> {
        match expr {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(bits) => Ok(Value::Float(Expr::float_value(*bits))),
            Expr::Str(s) => Ok(Value::str(s)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Nil => Ok(Value::Nil),
            Expr::SelfRef => Ok(Value::Ref(frame.receiver)),
            Expr::Name(name) => {
                if frame.declared.contains(name) {
                    // Declared but never run: an uninitialised local.
                    return frame
                        .values
                        .get(name)
                        .cloned()
                        .ok_or_else(|| ExecError::UnknownName(name.clone()));
                }
                match self.field(frame, name) {
                    Some(f) => da.read_field(frame.receiver, f),
                    None => Err(ExecError::UnknownName(name.clone())),
                }
            }
            Expr::Call { func, args } => {
                let mut vs = Vec::new();
                for a in args {
                    vs.push(self.eval(da, run, frame, a)?);
                }
                self.builtins.call(func, &vs)
            }
            Expr::Unary { op, expr } => {
                let v = self.eval(da, run, frame, expr)?;
                unary_value(*op, v)
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(da, run, frame, lhs)?;
                match op {
                    BinOp::And if !l.truthy() => Ok(Value::Bool(false)),
                    BinOp::Or if l.truthy() => Ok(Value::Bool(true)),
                    BinOp::And | BinOp::Or => {
                        Ok(Value::Bool(self.eval(da, run, frame, rhs)?.truthy()))
                    }
                    _ => {
                        let r = self.eval(da, run, frame, rhs)?;
                        binary_value(*op, &l, &r)
                    }
                }
            }
            Expr::Send(send) => self.eval_send(da, run, frame, send),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::UnOp;
    use crate::interp::Interpreter;
    use crate::parser::{
        build_schema, build_schema_from_program, ClassSource, FieldSrc, MethodSrc, Program,
    };
    use finecc_model::Instance;
    use std::collections::BTreeMap;

    /// What the interpreter did to the store, in order.
    #[derive(Clone, Debug, PartialEq)]
    enum Event {
        Message(Oid, ClassId, MethodId),
        SelfMessage(Oid, ClassId, MethodId),
        Read(Oid, FieldId),
        Write(Oid, FieldId, Value),
    }

    /// An unchecked in-memory store that records every hook.
    #[derive(Clone)]
    struct Recorder<'s> {
        schema: &'s Schema,
        heap: BTreeMap<Oid, Instance>,
        log: Vec<Event>,
    }

    impl DataAccess for Recorder<'_> {
        fn class_of(&mut self, oid: Oid) -> Result<ClassId, ExecError> {
            self.heap
                .get(&oid)
                .map(|i| i.class)
                .ok_or(ExecError::UnknownOid(oid))
        }
        fn read_field(&mut self, oid: Oid, field: FieldId) -> Result<Value, ExecError> {
            self.log.push(Event::Read(oid, field));
            let inst = self.heap.get(&oid).ok_or(ExecError::UnknownOid(oid))?;
            inst.get(self.schema, field)
                .cloned()
                .ok_or(ExecError::FieldNotVisible { oid, field })
        }
        fn write_field(&mut self, oid: Oid, field: FieldId, value: Value) -> Result<(), ExecError> {
            self.log.push(Event::Write(oid, field, value.clone()));
            let inst = self.heap.get_mut(&oid).ok_or(ExecError::UnknownOid(oid))?;
            inst.set(self.schema, field, value)
                .map(drop)
                .ok_or(ExecError::FieldNotVisible { oid, field })
        }
        fn on_message(&mut self, o: Oid, c: ClassId, m: MethodId) -> Result<(), ExecError> {
            self.log.push(Event::Message(o, c, m));
            Ok(())
        }
        fn on_self_message(&mut self, o: Oid, c: ClassId, m: MethodId) -> Result<(), ExecError> {
            self.log.push(Event::SelfMessage(o, c, m));
            Ok(())
        }
    }

    /// Runs one top send through both evaluators over copies of `store`
    /// and demands the same value or error, hook sequence and final
    /// state. Returns the common outcome.
    fn same_on_both(
        schema: &Schema,
        bodies: &MethodBodies,
        store: &Recorder<'_>,
        (max_depth, max_fuel): (usize, u64),
        oid: Oid,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        let builtins = Builtins::standard();
        let mut interp = Interpreter::new(schema, bodies, &builtins);
        interp.max_depth = max_depth;
        interp.max_fuel = max_fuel;
        let reference = Reference {
            schema,
            bodies,
            builtins: &builtins,
            max_depth,
            max_fuel,
        };
        let (mut a, mut b) = (store.clone(), store.clone());
        let got = interp.send(&mut a, oid, method, args);
        let want = reference.send(&mut b, oid, method, args);
        let what = format!("{method}{args:?} on {oid}");
        assert_eq!(got, want, "outcome of {what}");
        assert_eq!(a.log, b.log, "hook sequence of {what}");
        assert_eq!(a.heap, b.heap, "final state after {what}");
        got
    }

    // -- hand-written contract cases ------------------------------------

    const SHADOWING: &str = r#"
class acct {
  fields { balance: integer; flag: boolean; other: acct; n: integer; }
  method sneaky(v) is
    if flag then var balance := 0 end;
    balance := v
  end
  method peek is
    if flag then var t := balance end;
    return t
  end
  method late(v) is
    balance := v;
    var balance := 1;
    balance := balance + 1;
    return balance
  end
  method looped is
    var i := 0;
    while i < 2 do
      n := n + 1;
      var n := 10;
      i := i + 1
    end;
    return n
  end
  method dup(p, p) is return p end
  method redeclare(p) is
    if flag then var p := 7 end;
    return p
  end
  method through(v) is
    var other := v;
    send sneaky(1) to other
  end
}
"#;

    fn one_acct(schema: &Schema, flag: bool) -> (Recorder<'_>, Oid) {
        let acct = schema.class_by_name("acct").unwrap();
        let mut inst = Instance::new(schema, acct);
        let f = |n| schema.resolve_field(acct, n).unwrap();
        inst.set(schema, f("balance"), Value::Int(7));
        inst.set(schema, f("flag"), Value::Bool(flag));
        let store = Recorder {
            schema,
            heap: BTreeMap::from([(Oid(1), inst)]),
            log: Vec::new(),
        };
        (store, Oid(1))
    }

    #[test]
    fn shadowing_is_textual_in_both_evaluators() {
        let (s, b) = build_schema(SHADOWING).unwrap();
        let acct = s.class_by_name("acct").unwrap();
        let balance = s.resolve_field(acct, "balance").unwrap();
        let limits = (16, 1000);
        for flag in [false, true] {
            let (store, o) = one_acct(&s, flag);
            let run = |m: &str, args: &[Value]| same_on_both(&s, &b, &store, limits, o, m, args);

            // `sneaky`: the assignment after the `if` is to the local,
            // taken branch or not — never a field write.
            let mut probe = store.clone();
            let bi = Builtins::standard();
            Interpreter::new(&s, &b, &bi)
                .send(&mut probe, o, "sneaky", &[Value::Int(3)])
                .unwrap();
            assert!(!probe.log.iter().any(|e| matches!(e, Event::Write(..))));
            assert_eq!(probe.heap[&o].get(&s, balance), Some(&Value::Int(7)));
            run("sneaky", &[Value::Int(3)]).unwrap();

            // `peek`: reading a slot whose `var` did not run.
            let peeked = run("peek", &[]);
            if flag {
                assert_eq!(peeked, Ok(Value::Int(7)));
            } else {
                assert_eq!(peeked, Err(ExecError::UnknownName("t".into())));
            }
            // `late`: before its `var` the name is the field.
            assert_eq!(run("late", &[Value::Int(5)]), Ok(Value::Int(2)));
            // `looped`: `n := n + 1` precedes `var n` textually, so it is
            // the field on every iteration.
            assert_eq!(run("looped", &[]), Ok(Value::Int(10)));
            assert_eq!(
                run("dup", &[Value::Int(1), Value::Int(2)]),
                Ok(Value::Int(2))
            );
            assert_eq!(
                run("redeclare", &[Value::Int(1)]),
                Ok(Value::Int(if flag { 7 } else { 1 }))
            );
            // A local is not a reference field.
            assert_eq!(
                run("through", &[Value::Nil]),
                Err(ExecError::UnknownName("other".into()))
            );
        }
    }

    // -- generated programs ---------------------------------------------

    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        fn pick<'x, T: ?Sized>(&mut self, xs: &[&'x T]) -> &'x T {
            xs[self.below(xs.len() as u64) as usize]
        }
        fn one_in(&mut self, n: u64) -> bool {
            self.below(n) == 0
        }
    }

    /// Message names and their arity, fixed across programs so that most
    /// generated sends are well-formed.
    const METHODS: [(&str, usize); 6] = [
        ("m0", 0),
        ("m1", 1),
        ("m2", 2),
        ("m3", 1),
        ("m4", 0),
        ("m5", 1),
    ];

    struct Gen<'g> {
        rng: &'g mut Lcg,
        /// Names an occurrence may use: visible fields, parameters, and
        /// the `var` names declared textually so far (two of which
        /// shadow a field and a parameter).
        names: Vec<&'static str>,
        /// The defining class's proper ancestors.
        prefixes: Vec<&'static str>,
        /// How many of [`METHODS`] the defining class understands.
        understood: usize,
    }

    const VAR_NAMES: [&str; 4] = ["t", "u", "a", "p"];

    impl Gen<'_> {
        fn name(&mut self) -> String {
            if self.rng.one_in(80) {
                return "ghost".into();
            }
            self.rng.pick(&self.names).to_string()
        }

        /// An expression that is probably an integer — or, one time in
        /// eight, anything at all.
        fn expr(&mut self, depth: u32) -> Expr {
            if self.rng.one_in(8) {
                return self.wild(depth);
            }
            if depth == 0 || self.rng.one_in(3) {
                return if self.rng.one_in(2) {
                    // Rarely the boolean or the reference field.
                    let name = self.name();
                    let typed = matches!(&*name, "flag" | "next") && !self.rng.one_in(10);
                    Expr::Name(if typed { "a".into() } else { name })
                } else {
                    Expr::Int(self.rng.below(7) as i64 - 2)
                };
            }
            match self.rng.below(8) {
                0..=4 => {
                    use BinOp::*;
                    Expr::Binary {
                        op: [Add, Sub, Mul, Div, Mod][self.rng.below(5) as usize],
                        lhs: Box::new(self.expr(depth - 1)),
                        rhs: Box::new(self.expr(depth - 1)),
                    }
                }
                5 => Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(self.expr(depth - 1)),
                },
                6 => Expr::Call {
                    func: "expr".into(),
                    args: (0..1 + self.rng.below(2))
                        .map(|_| self.expr(depth - 1))
                        .collect(),
                },
                _ => Expr::Send(Box::new(self.send(depth - 1))),
            }
        }

        /// An expression that is probably a boolean.
        fn cond(&mut self, depth: u32) -> Expr {
            use BinOp::*;
            match self.rng.below(if depth == 0 { 6 } else { 10 }) {
                0..=3 => Expr::Binary {
                    op: [Lt, Le, Eq, Ne, Gt, Ge][self.rng.below(6) as usize],
                    lhs: Box::new(self.expr(depth)),
                    rhs: Box::new(self.expr(depth)),
                },
                4 => Expr::Name("flag".into()),
                5 => Expr::Call {
                    func: "cond".into(),
                    args: vec![self.expr(depth)],
                },
                6 => self.wild(depth),
                7 => Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(self.cond(depth - 1)),
                },
                _ => Expr::Binary {
                    op: if self.rng.one_in(2) { And } else { Or },
                    lhs: Box::new(self.cond(depth - 1)),
                    rhs: Box::new(self.cond(depth - 1)),
                },
            }
        }

        /// Any expression of any type.
        fn wild(&mut self, depth: u32) -> Expr {
            if depth == 0 || self.rng.one_in(3) {
                return match self.rng.below(8) {
                    0..=2 => Expr::Name(self.name()),
                    3 => Expr::Int(self.rng.below(7) as i64 - 2),
                    4 => Expr::Bool(self.rng.one_in(2)),
                    5 => Expr::Str("x".into()),
                    6 => Expr::float(1.5),
                    _ if self.rng.one_in(2) => Expr::Nil,
                    _ => Expr::SelfRef,
                };
            }
            match self.rng.below(10) {
                0..=4 => {
                    use BinOp::*;
                    let ops = [Add, Sub, Mul, Div, Mod, Lt, Le, Eq, Ne, Gt, Ge, And, Or];
                    Expr::Binary {
                        op: ops[self.rng.below(ops.len() as u64) as usize],
                        lhs: Box::new(self.wild(depth - 1)),
                        rhs: Box::new(self.wild(depth - 1)),
                    }
                }
                5 => Expr::Unary {
                    op: if self.rng.one_in(2) {
                        UnOp::Neg
                    } else {
                        UnOp::Not
                    },
                    expr: Box::new(self.wild(depth - 1)),
                },
                6 | 7 => Expr::Call {
                    func: self.rng.pick(&["expr", "cond", "nope"]).into(),
                    args: (0..1 + self.rng.below(2))
                        .map(|_| self.wild(depth - 1))
                        .collect(),
                },
                _ => Expr::Send(Box::new(self.send(depth - 1))),
            }
        }

        fn send(&mut self, depth: u32) -> SendExpr {
            // Mostly a message the defining class understands.
            let among = if self.rng.one_in(8) {
                METHODS.len()
            } else {
                self.understood
            };
            let (method, arity) = METHODS[self.rng.below(among as u64) as usize];
            let method = if self.rng.one_in(25) {
                "nohook"
            } else {
                method
            };
            let argc = if self.rng.one_in(25) {
                arity + 1
            } else {
                arity
            };
            let args = (0..argc).map(|_| self.expr(depth)).collect();
            let (prefix, target) = match self.rng.below(10) {
                0..=4 => (None, Target::SelfRef),
                5 | 6 if self.prefixes.is_empty() && !self.rng.one_in(6) => (None, Target::SelfRef),
                5 | 6 => {
                    // Mostly a proper ancestor; sometimes a class that
                    // does not exist or (for all but `leaf`) is none.
                    let class = if self.prefixes.is_empty() || self.rng.one_in(12) {
                        self.rng.pick(&["ghost", "leaf"])
                    } else {
                        self.rng.pick(&self.prefixes)
                    };
                    (Some(class.to_string()), Target::SelfRef)
                }
                7 | 8 => {
                    let field = if self.rng.one_in(10) {
                        self.name()
                    } else {
                        "next".into()
                    };
                    (None, Target::Field(field))
                }
                _ if self.rng.one_in(4) => (Some("base".into()), Target::Field("next".into())),
                _ => (None, Target::Field("next".into())),
            };
            SendExpr {
                prefix,
                method: method.to_string(),
                args,
                target,
            }
        }

        fn block(&mut self, depth: u32) -> Block {
            Block(
                (0..1 + self.rng.below(3))
                    .map(|_| self.stmt(depth))
                    .collect(),
            )
        }

        fn stmt(&mut self, depth: u32) -> Stmt {
            match self.rng.below(if depth == 0 { 7 } else { 10 }) {
                0..=2 => Stmt::Assign {
                    name: self.name(),
                    expr: self.expr(2),
                },
                3 => {
                    let expr = self.expr(2);
                    let name = self.rng.pick(&VAR_NAMES);
                    self.names.push(name);
                    Stmt::VarDecl {
                        name: name.to_string(),
                        expr,
                    }
                }
                4 => Stmt::Send(self.send(1)),
                5 => Stmt::Return(if self.rng.one_in(3) {
                    None
                } else {
                    Some(self.expr(2))
                }),
                6 => Stmt::Skip,
                7 | 8 => Stmt::If {
                    cond: self.cond(2),
                    then_blk: self.block(depth - 1),
                    else_blk: if self.rng.one_in(2) {
                        Some(self.block(depth - 1))
                    } else {
                        None
                    },
                },
                _ => Stmt::While {
                    cond: self.cond(2),
                    body: self.block(depth - 1),
                },
            }
        }
    }

    /// One class of the generated hierarchy: its own fields (name, type)
    /// and the indices into [`METHODS`] it defines.
    struct Shape {
        name: &'static str,
        fields: &'static [(&'static str, &'static str)],
        defines: &'static [usize],
    }

    /// A three-level chain: `base` defines m0–m3, `mid` overrides m1 and
    /// adds m4, `leaf` overrides m2 and adds m5.
    const SHAPES: [Shape; 3] = [
        Shape {
            name: "base",
            fields: &[
                ("a", "integer"),
                ("b", "integer"),
                ("flag", "boolean"),
                ("next", "base"),
            ],
            defines: &[0, 1, 2, 3],
        },
        Shape {
            name: "mid",
            fields: &[("c", "integer")],
            defines: &[1, 4],
        },
        Shape {
            name: "leaf",
            fields: &[("d", "integer")],
            defines: &[2, 5],
        },
    ];

    /// [`SHAPES`] with generated bodies.
    fn program(rng: &mut Lcg) -> Program {
        let mut visible: Vec<&'static str> = Vec::new();
        let mut ancestors: Vec<&'static str> = Vec::new();
        let mut classes = Vec::new();
        for shape in &SHAPES {
            visible.extend(shape.fields.iter().map(|(name, _)| name));
            let methods = shape
                .defines
                .iter()
                .map(|&m| {
                    let (mname, arity) = METHODS[m];
                    // Sometimes `(p, p)`: a repeated parameter name.
                    let params: Vec<String> = (0..arity)
                        .map(|i| if i == 0 || rng.one_in(3) { "p" } else { "q" }.to_string())
                        .collect();
                    // Integer names three times over: most arithmetic
                    // should type-check.
                    let mut names = visible.clone();
                    names.extend(["a", "b", "a", "b"]);
                    names.extend(["p", "q"].iter().filter(|n| params.iter().any(|p| p == *n)));
                    let body = Gen {
                        rng: &mut *rng,
                        names,
                        prefixes: ancestors.clone(),
                        understood: 4 + ancestors.len(),
                    }
                    .block(2);
                    MethodSrc {
                        name: mname.into(),
                        params,
                        redefined: !ancestors.is_empty() && m <= 3,
                        body,
                    }
                })
                .collect();
            classes.push(ClassSource {
                name: shape.name.into(),
                parents: ancestors.last().iter().map(|p| p.to_string()).collect(),
                fields: shape
                    .fields
                    .iter()
                    .map(|(name, ty)| FieldSrc {
                        name: name.to_string(),
                        ty_name: ty.to_string(),
                    })
                    .collect(),
                methods,
            });
            ancestors.push(shape.name);
        }
        Program { classes }
    }

    fn variant(e: &ExecError) -> &'static str {
        match e {
            ExecError::MessageNotUnderstood { .. } => "MessageNotUnderstood",
            ExecError::ArityMismatch { .. } => "ArityMismatch",
            ExecError::DepthExceeded(_) => "DepthExceeded",
            ExecError::FuelExhausted => "FuelExhausted",
            ExecError::UnknownName(_) => "UnknownName",
            ExecError::NilReceiver { .. } => "NilReceiver",
            ExecError::NotAReference { .. } => "NotAReference",
            ExecError::TypeError(m) if m == "prefixed send must target self" => "PrefixedToField",
            ExecError::TypeError(_) => "TypeError",
            ExecError::UnknownBuiltin(_) => "UnknownBuiltin",
            _ => "other",
        }
    }

    #[test]
    fn resolved_execution_matches_the_reference_on_generated_programs() {
        let mut rng = Lcg(0x5eed_1993);
        let mut seen: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut ok = 0usize;
        for _ in 0..150 {
            let prog = program(&mut rng);
            let (s, b) = build_schema_from_program(&prog).unwrap();
            let class = |n| s.class_by_name(n).unwrap();
            let next = s.resolve_field(class("base"), "next").unwrap();
            // o1:base → o2:mid → o3:leaf → nil; o4:leaf → o1.
            let mut heap = BTreeMap::new();
            for (oid, cname, to) in [
                (1, "base", Some(2)),
                (2, "mid", Some(3)),
                (3, "leaf", None),
                (4, "leaf", Some(1)),
            ] {
                let mut inst = Instance::new(&s, class(cname));
                if let Some(to) = to {
                    inst.set(&s, next, Value::Ref(Oid(to)));
                }
                heap.insert(Oid(oid), inst);
            }
            let store = Recorder {
                schema: &s,
                heap,
                log: Vec::new(),
            };
            for oid in 1..=4 {
                for (method, arity) in METHODS.iter().chain(&[("nohook", 0)]) {
                    let argc = if rng.one_in(20) { arity + 1 } else { *arity };
                    let args: Vec<Value> = (0..argc)
                        .map(|_| Value::Int(rng.below(5) as i64 - 1))
                        .collect();
                    let limits = (6, 150);
                    match same_on_both(&s, &b, &store, limits, Oid(oid), method, &args) {
                        Ok(_) => ok += 1,
                        Err(e) => *seen.entry(variant(&e)).or_default() += 1,
                    }
                }
            }
        }
        // The corpus must actually reach every contract error — and
        // plenty of clean runs.
        for v in [
            "MessageNotUnderstood",
            "ArityMismatch",
            "DepthExceeded",
            "FuelExhausted",
            "UnknownName",
            "NilReceiver",
            "NotAReference",
            "PrefixedToField",
            "TypeError",
        ] {
            assert!(seen.contains_key(v), "no run ended in {v}: {seen:?}");
        }
        assert!(ok > 500, "only {ok} clean runs: {seen:?}");
    }
}
