//! Pretty-printer: renders ASTs back to surface syntax.
//!
//! Checked by round-trip tests (`parse ∘ print ∘ parse = parse`).

use crate::ast::{BinOp, Block, Expr, SendExpr, Stmt, Target};
use crate::parser::{ClassSource, Program};
use std::fmt::Write as _;

/// Renders a whole program.
pub fn program_to_string(p: &Program) -> String {
    let mut out = String::new();
    for (i, c) in p.classes.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        class_to_string_into(&mut out, c);
    }
    out
}

fn class_to_string_into(out: &mut String, c: &ClassSource) {
    write!(out, "class {}", c.name).unwrap();
    if !c.parents.is_empty() {
        write!(out, " inherits {}", c.parents.join(", ")).unwrap();
    }
    out.push_str(" {\n");
    if !c.fields.is_empty() {
        out.push_str("  fields {\n");
        for f in &c.fields {
            writeln!(out, "    {}: {};", f.name, f.ty_name).unwrap();
        }
        out.push_str("  }\n");
    }
    for m in &c.methods {
        write!(out, "  method {}", m.name).unwrap();
        if !m.params.is_empty() {
            write!(out, "({})", m.params.join(", ")).unwrap();
        }
        out.push_str(" is");
        if m.redefined {
            out.push_str(" redefined as");
        }
        out.push('\n');
        block_into(out, &m.body, 2);
        out.push_str("  end\n");
    }
    out.push_str("}\n");
}

/// Renders a block at top level (no indentation).
pub fn block_to_string(b: &Block) -> String {
    let mut out = String::new();
    block_into(&mut out, b, 0);
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn block_into(out: &mut String, b: &Block, level: usize) {
    if b.is_empty() {
        indent(out, level + 1);
        out.push_str("skip\n");
        return;
    }
    let n = b.0.len();
    for (i, s) in b.0.iter().enumerate() {
        stmt_into(out, s, level + 1, i + 1 == n);
    }
}

fn stmt_into(out: &mut String, s: &Stmt, level: usize, last: bool) {
    indent(out, level);
    match s {
        Stmt::Skip => out.push_str("skip"),
        Stmt::Assign { name, expr } => {
            write!(out, "{name} := {}", expr_to_string(expr)).unwrap();
        }
        Stmt::VarDecl { name, expr } => {
            write!(out, "var {name} := {}", expr_to_string(expr)).unwrap();
        }
        Stmt::Send(send) => send_into(out, send),
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => {
            writeln!(out, "if {} then", expr_to_string(cond)).unwrap();
            block_into(out, then_blk, level);
            if let Some(e) = else_blk {
                indent(out, level);
                out.push_str("else\n");
                block_into(out, e, level);
            }
            indent(out, level);
            out.push_str("end");
        }
        Stmt::While { cond, body } => {
            writeln!(out, "while {} do", expr_to_string(cond)).unwrap();
            block_into(out, body, level);
            indent(out, level);
            out.push_str("end");
        }
        Stmt::Return(None) => out.push_str("return"),
        Stmt::Return(Some(e)) => {
            write!(out, "return {}", expr_to_string(e)).unwrap();
        }
    }
    if !last {
        out.push(';');
    }
    out.push('\n');
}

fn send_into(out: &mut String, s: &SendExpr) {
    out.push_str("send ");
    if let Some(p) = &s.prefix {
        write!(out, "{p}.").unwrap();
    }
    out.push_str(&s.method);
    if !s.args.is_empty() {
        let args: Vec<String> = s.args.iter().map(expr_to_string).collect();
        write!(out, "({})", args.join(", ")).unwrap();
    }
    match &s.target {
        Target::SelfRef => out.push_str(" to self"),
        Target::Field(f) => write!(out, " to {f}").unwrap(),
    }
}

/// Renders an expression (fully parenthesized where precedence demands).
pub fn expr_to_string(e: &Expr) -> String {
    let mut out = String::new();
    expr_into(&mut out, e, 0);
    out
}

fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div | BinOp::Mod => 5,
    }
}

fn expr_into(out: &mut String, e: &Expr, min_prec: u8) {
    match e {
        Expr::Int(v) => write!(out, "{v}").unwrap(),
        Expr::Float(bits) => {
            let v = Expr::float_value(*bits);
            if v.fract() == 0.0 && v.is_finite() {
                write!(out, "{v:.1}").unwrap();
            } else {
                write!(out, "{v}").unwrap();
            }
        }
        Expr::Str(s) => write!(out, "{s:?}").unwrap(),
        Expr::Bool(b) => write!(out, "{b}").unwrap(),
        Expr::Nil => out.push_str("nil"),
        Expr::SelfRef => out.push_str("self"),
        Expr::Name(n) => out.push_str(n),
        Expr::Call { func, args } => {
            let rendered: Vec<String> = args.iter().map(expr_to_string).collect();
            write!(out, "{func}({})", rendered.join(", ")).unwrap();
        }
        Expr::Unary { op, expr } => {
            write!(out, "{op}").unwrap();
            // Unary binds tighter than any binary.
            expr_into(out, expr, 6);
        }
        Expr::Binary { op, lhs, rhs } => {
            let p = prec(*op);
            let need = p < min_prec;
            if need {
                out.push('(');
            }
            expr_into(out, lhs, p);
            write!(out, " {op} ").unwrap();
            // Left-associative: right child needs strictly higher prec.
            expr_into(out, rhs, p + 1);
            if need {
                out.push(')');
            }
        }
        Expr::Send(send) => {
            out.push('(');
            send_into(out, send);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_body, parse_program, FIGURE1_SOURCE};

    #[test]
    fn figure1_round_trips() {
        let p1 = parse_program(FIGURE1_SOURCE).unwrap();
        let rendered = program_to_string(&p1);
        let p2 = parse_program(&rendered).unwrap();
        assert_eq!(p1, p2, "print ∘ parse must be a fixpoint:\n{rendered}");
    }

    #[test]
    fn precedence_preserved() {
        for src in [
            "x := (1 + 2) * 3",
            "x := 1 + 2 * 3",
            "x := -(1 + 2)",
            "x := a or b and c",
            "x := (a or b) and c",
            "x := 1 - (2 - 3)",
            "x := 1 - 2 - 3",
            "y := not (a and b)",
        ] {
            let b1 = parse_body(src).unwrap();
            let out = block_to_string(&b1);
            let b2 = parse_body(&out).unwrap();
            assert_eq!(b1, b2, "round-trip failed for `{src}` → `{out}`");
        }
    }

    #[test]
    fn sends_and_control_round_trip() {
        let src = "send c1.m2(p1) to self; if x > 0 then send m to f else skip end; \
                   while b do var t := (send get to f); b := t end; return 4.0";
        let b1 = parse_body(src).unwrap();
        let out = block_to_string(&b1);
        let b2 = parse_body(&out).unwrap();
        assert_eq!(b1, b2, "rendered:\n{out}");
    }

    #[test]
    fn empty_body_prints_skip() {
        let rendered = block_to_string(&Block::empty());
        assert!(rendered.contains("skip"));
        parse_body(&rendered).unwrap();
    }

    #[test]
    fn string_literals_escaped() {
        let b1 = parse_body(r#"x := "a\"b\n""#).unwrap();
        let out = block_to_string(&b1);
        let b2 = parse_body(&out).unwrap();
        assert_eq!(b1, b2);
    }
}
