//! Recursive-descent parser for class files and method bodies, plus
//! [`build_schema`], which turns a parsed program into a validated
//! [`Schema`] and its [`MethodBodies`]: the per-method ASTs and, from
//! them, the resolved bodies the interpreter runs and the analysis
//! reads ([`crate::resolve`]).

use crate::ast::{BinOp, Block, Expr, SendExpr, Stmt, Target, UnOp};
use crate::error::ParseError;
use crate::lexer::{lex, Spanned, Tok};
use crate::resolve::MethodBodies;
use finecc_model::{FieldType, ModelError, Schema, SchemaBuilder};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A parsed field declaration (type still by name).
#[derive(Clone, Debug, PartialEq)]
pub struct FieldSrc {
    /// Field name.
    pub name: String,
    /// Type name: `integer`, `boolean`, `float`, `string`, or a class name.
    pub ty_name: String,
}

/// A parsed method definition.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodSrc {
    /// Method name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// `true` when declared `is redefined as`, i.e. an explicit override.
    pub redefined: bool,
    /// The body.
    pub body: Block,
}

/// A parsed class declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassSource {
    /// Class name.
    pub name: String,
    /// Parent class names.
    pub parents: Vec<String>,
    /// Field declarations.
    pub fields: Vec<FieldSrc>,
    /// Method definitions.
    pub methods: Vec<MethodSrc>,
}

/// A parsed program: a list of class declarations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Classes in source order.
    pub classes: Vec<ClassSource>,
}

/// Errors from [`build_schema`]: syntactic, semantic, or an
/// override-marker inconsistency.
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Schema validation failed.
    Model(ModelError),
    /// `is redefined as` marker disagrees with the hierarchy.
    Redefinition {
        /// Class containing the definition.
        class: String,
        /// Method name.
        method: String,
        /// `true` if the marker was present but nothing is overridden;
        /// `false` if an override lacks the marker.
        marked: bool,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Parse(e) => write!(f, "{e}"),
            BuildError::Model(e) => write!(f, "{e}"),
            BuildError::Redefinition {
                class,
                method,
                marked: true,
            } => write!(
                f,
                "method `{method}` in class `{class}` is marked `redefined` but overrides nothing"
            ),
            BuildError::Redefinition { class, method, .. } => write!(
                f,
                "method `{method}` in class `{class}` overrides an inherited method; mark it `is redefined as`"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ParseError> for BuildError {
    fn from(e: ParseError) -> Self {
        BuildError::Parse(e)
    }
}
impl From<ModelError> for BuildError {
    fn from(e: ModelError) -> Self {
        BuildError::Model(e)
    }
}

/// Parses a program (a sequence of `class` declarations).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut classes = Vec::new();
    while p.peek() != &Tok::Eof {
        classes.push(p.parse_class()?);
    }
    Ok(Program { classes })
}

/// Parses a stand-alone method body (used by tests and programmatic
/// schema construction).
pub fn parse_body(src: &str) -> Result<Block, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let blk = p.parse_block(&[Tok::Eof])?;
    p.expect(Tok::Eof)?;
    Ok(blk)
}

/// Parses `src` and builds the validated schema plus method bodies,
/// resolving every name in every body once ([`crate::resolve`]).
pub fn build_schema(src: &str) -> Result<(Schema, MethodBodies), BuildError> {
    let prog = parse_program(src)?;
    build_schema_from_program(&prog)
}

/// Builds a schema from an already-parsed [`Program`].
pub fn build_schema_from_program(prog: &Program) -> Result<(Schema, MethodBodies), BuildError> {
    let mut b = SchemaBuilder::new();
    for cs in &prog.classes {
        let decl = b.class(&cs.name);
        for p in &cs.parents {
            decl.inherits(p);
        }
        for f in &cs.fields {
            match f.ty_name.as_str() {
                "integer" => decl.field(&f.name, FieldType::Int),
                "boolean" => decl.field(&f.name, FieldType::Bool),
                "float" => decl.field(&f.name, FieldType::Float),
                "string" => decl.field(&f.name, FieldType::Str),
                cls => decl.ref_field(&f.name, cls),
            };
        }
        for m in &cs.methods {
            let params: Vec<&str> = m.params.iter().map(String::as_str).collect();
            decl.method(&m.name, &params);
        }
    }
    let schema = b.finish()?;

    // Attach bodies by (class name, method name); check `redefined` markers.
    let mut by_key: HashMap<(String, String), &MethodSrc> = HashMap::new();
    for cs in &prog.classes {
        for m in &cs.methods {
            by_key.insert((cs.name.clone(), m.name.clone()), m);
        }
    }
    let mut bodies: Vec<Arc<Block>> = (0..schema.method_count())
        .map(|_| Arc::new(Block::empty()))
        .collect();
    for mi in schema.methods() {
        let cname = schema.class(mi.owner).name.clone();
        let src = by_key
            .get(&(cname.clone(), mi.sig.name.clone()))
            .expect("every schema method came from the program");
        if src.redefined != mi.overrides.is_some() {
            return Err(BuildError::Redefinition {
                class: cname,
                method: mi.sig.name.clone(),
                marked: src.redefined,
            });
        }
        bodies[mi.id.index()] = Arc::new(src.body.clone());
    }
    let bodies = MethodBodies::resolve(&schema, bodies);
    Ok((schema, bodies))
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn here(&self) -> (u32, u32) {
        let s = &self.toks[self.pos];
        (s.line, s.col)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let (l, c) = self.here();
        ParseError::new(msg, l, c)
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseError> {
        if *self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Tok::Ident(_) => match self.bump() {
                Tok::Ident(s) => Ok(s),
                _ => unreachable!(),
            },
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn parse_class(&mut self) -> Result<ClassSource, ParseError> {
        self.expect(Tok::KwClass)?;
        let name = self.expect_ident()?;
        let mut parents = Vec::new();
        if *self.peek() == Tok::KwInherits {
            self.bump();
            parents.push(self.expect_ident()?);
            while *self.peek() == Tok::Comma {
                self.bump();
                parents.push(self.expect_ident()?);
            }
        }
        self.expect(Tok::LBrace)?;

        let mut fields = Vec::new();
        if *self.peek() == Tok::KwFields {
            self.bump();
            self.expect(Tok::LBrace)?;
            while *self.peek() != Tok::RBrace {
                let fname = self.expect_ident()?;
                self.expect(Tok::Colon)?;
                let ty_name = self.expect_ident()?;
                self.expect(Tok::Semi)?;
                fields.push(FieldSrc {
                    name: fname,
                    ty_name,
                });
            }
            self.expect(Tok::RBrace)?;
        }

        let mut methods = Vec::new();
        while *self.peek() == Tok::KwMethod {
            methods.push(self.parse_method()?);
        }
        self.expect(Tok::RBrace)?;
        Ok(ClassSource {
            name,
            parents,
            fields,
            methods,
        })
    }

    fn parse_method(&mut self) -> Result<MethodSrc, ParseError> {
        self.expect(Tok::KwMethod)?;
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        if *self.peek() == Tok::LParen {
            self.bump();
            if *self.peek() != Tok::RParen {
                params.push(self.expect_ident()?);
                while *self.peek() == Tok::Comma {
                    self.bump();
                    params.push(self.expect_ident()?);
                }
            }
            self.expect(Tok::RParen)?;
        }
        self.expect(Tok::KwIs)?;
        let mut redefined = false;
        if *self.peek() == Tok::KwRedefined {
            self.bump();
            self.expect(Tok::KwAs)?;
            redefined = true;
        }
        let body = self.parse_block(&[Tok::KwEnd])?;
        self.expect(Tok::KwEnd)?;
        Ok(MethodSrc {
            name,
            params,
            redefined,
            body,
        })
    }

    /// Parses statements until one of `terminators` (not consumed).
    fn parse_block(&mut self, terminators: &[Tok]) -> Result<Block, ParseError> {
        let mut stmts = Vec::new();
        loop {
            while *self.peek() == Tok::Semi {
                self.bump();
            }
            if terminators.contains(self.peek()) {
                break;
            }
            stmts.push(self.parse_stmt()?);
            if !terminators.contains(self.peek()) {
                self.expect(Tok::Semi)?;
            }
        }
        Ok(Block(stmts))
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Tok::KwSkip => {
                self.bump();
                Ok(Stmt::Skip)
            }
            Tok::KwVar => {
                self.bump();
                let name = self.expect_ident()?;
                self.expect(Tok::Assign)?;
                let expr = self.parse_expr()?;
                Ok(Stmt::VarDecl { name, expr })
            }
            Tok::KwSend => {
                let send = self.parse_send()?;
                Ok(Stmt::Send(send))
            }
            Tok::KwIf => {
                self.bump();
                let cond = self.parse_expr()?;
                self.expect(Tok::KwThen)?;
                let then_blk = self.parse_block(&[Tok::KwElse, Tok::KwEnd])?;
                let else_blk = if *self.peek() == Tok::KwElse {
                    self.bump();
                    Some(self.parse_block(&[Tok::KwEnd])?)
                } else {
                    None
                };
                self.expect(Tok::KwEnd)?;
                Ok(Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                })
            }
            Tok::KwWhile => {
                self.bump();
                let cond = self.parse_expr()?;
                self.expect(Tok::KwDo)?;
                let body = self.parse_block(&[Tok::KwEnd])?;
                self.expect(Tok::KwEnd)?;
                Ok(Stmt::While { cond, body })
            }
            Tok::KwReturn => {
                self.bump();
                let stop = matches!(
                    self.peek(),
                    Tok::Semi | Tok::KwEnd | Tok::KwElse | Tok::RBrace | Tok::Eof
                );
                let expr = if stop { None } else { Some(self.parse_expr()?) };
                Ok(Stmt::Return(expr))
            }
            Tok::Ident(_) => {
                let name = self.expect_ident()?;
                self.expect(Tok::Assign)?;
                let expr = self.parse_expr()?;
                Ok(Stmt::Assign { name, expr })
            }
            other => Err(self.err(format!("expected a statement, found {other}"))),
        }
    }

    /// `send [C .] M [(args)] to (self | field)`.
    fn parse_send(&mut self) -> Result<SendExpr, ParseError> {
        self.expect(Tok::KwSend)?;
        let first = self.expect_ident()?;
        let (prefix, method) = if *self.peek() == Tok::Dot {
            self.bump();
            let m = self.expect_ident()?;
            (Some(first), m)
        } else {
            (None, first)
        };
        let mut args = Vec::new();
        if *self.peek() == Tok::LParen {
            self.bump();
            if *self.peek() != Tok::RParen {
                args.push(self.parse_expr()?);
                while *self.peek() == Tok::Comma {
                    self.bump();
                    args.push(self.parse_expr()?);
                }
            }
            self.expect(Tok::RParen)?;
        }
        self.expect(Tok::KwTo)?;
        let target = match self.peek().clone() {
            Tok::KwSelf => {
                self.bump();
                Target::SelfRef
            }
            Tok::Ident(_) => Target::Field(self.expect_ident()?),
            other => return Err(self.err(format!("expected `self` or a field, found {other}"))),
        };
        if prefix.is_some() && target != Target::SelfRef {
            return Err(self.err("a prefixed send (`send C.M ...`) must target `self`"));
        }
        Ok(SendExpr {
            prefix,
            method,
            args,
            target,
        })
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while *self.peek() == Tok::KwOr {
            self.bump();
            let rhs = self.parse_and()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_not()?;
        while *self.peek() == Tok::KwAnd {
            self.bump();
            let rhs = self.parse_not()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if *self.peek() == Tok::KwNot {
            self.bump();
            let e = self.parse_not()?;
            Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            })
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Tok::Eq => Some(BinOp::Eq),
            Tok::Ne => Some(BinOp::Ne),
            Tok::Lt => Some(BinOp::Lt),
            Tok::Le => Some(BinOp::Le),
            Tok::Gt => Some(BinOp::Gt),
            Tok::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_add()?;
            Ok(Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            })
        } else {
            Ok(lhs)
        }
    }

    fn parse_add(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_mul()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if *self.peek() == Tok::Minus {
            self.bump();
            let e = self.parse_unary()?;
            Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(e),
            })
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(Expr::float(v))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Str(s))
            }
            Tok::KwTrue => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            Tok::KwFalse => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            Tok::KwNil => {
                self.bump();
                Ok(Expr::Nil)
            }
            Tok::KwSelf => {
                self.bump();
                Ok(Expr::SelfRef)
            }
            Tok::KwSend => {
                let send = self.parse_send()?;
                Ok(Expr::Send(Box::new(send)))
            }
            Tok::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(_) => {
                let name = self.expect_ident()?;
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        args.push(self.parse_expr()?);
                        while *self.peek() == Tok::Comma {
                            self.bump();
                            args.push(self.parse_expr()?);
                        }
                    }
                    self.expect(Tok::RParen)?;
                    Ok(Expr::Call { func: name, args })
                } else {
                    Ok(Expr::Name(name))
                }
            }
            other => Err(self.err(format!("expected an expression, found {other}"))),
        }
    }
}

/// The Figure 1 program of the paper, verbatim modulo concrete syntax.
/// `c3.m` is given a trivial body (the paper elides it).
pub const FIGURE1_SOURCE: &str = r#"
class c1 {
  fields {
    f1: integer;
    f2: boolean;
    f3: c3;
  }
  method m1(p1) is
    send m2(p1) to self;
    send m3 to self
  end
  method m2(p1) is
    f1 := expr(f1, f2, p1)
  end
  method m3 is
    if f2 then
      send m to f3
    end
  end
}

class c2 inherits c1 {
  fields {
    f4: integer;
    f5: integer;
    f6: string;
  }
  method m2(p1) is redefined as
    send c1.m2(p1) to self;
    f4 := expr(f5, p1)
  end
  method m4(p1, p2) is
    if cond(f5, p1) then
      f6 := expr(f6, p2)
    end
  end
}

class c3 {
  fields {
    g1: integer;
  }
  method m is
    g1 := g1 + 1
  end
}
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_parses() {
        let prog = parse_program(FIGURE1_SOURCE).unwrap();
        assert_eq!(prog.classes.len(), 3);
        let c1 = &prog.classes[0];
        assert_eq!(c1.name, "c1");
        assert_eq!(c1.fields.len(), 3);
        assert_eq!(c1.methods.len(), 3);
        let c2 = &prog.classes[1];
        assert_eq!(c2.parents, ["c1"]);
        assert!(c2.methods[0].redefined);
        assert!(!c2.methods[1].redefined);
    }

    #[test]
    fn figure1_builds() {
        let (schema, bodies) = build_schema(FIGURE1_SOURCE).unwrap();
        assert_eq!(schema.class_count(), 3);
        assert_eq!(bodies.len(), schema.method_count());
        let c2 = schema.class_by_name("c2").unwrap();
        let m2 = schema.resolve_method(c2, "m2").unwrap();
        let body = bodies.body(m2);
        assert_eq!(body.len(), 2);
        assert!(matches!(
            &body.0[0],
            Stmt::Send(SendExpr {
                prefix: Some(p),
                target: Target::SelfRef,
                ..
            }) if p == "c1"
        ));
    }

    #[test]
    fn redefinition_marker_enforced_missing() {
        let src = r#"
class a { method m is skip end }
class b inherits a { method m is skip end }
"#;
        assert!(matches!(
            build_schema(src),
            Err(BuildError::Redefinition { marked: false, .. })
        ));
    }

    #[test]
    fn redefinition_marker_enforced_spurious() {
        let src = "class a { method m is redefined as skip end }";
        assert!(matches!(
            build_schema(src),
            Err(BuildError::Redefinition { marked: true, .. })
        ));
    }

    #[test]
    fn expression_precedence() {
        let b = parse_body("x := 1 + 2 * 3").unwrap();
        let Stmt::Assign { expr, .. } = &b.0[0] else {
            panic!()
        };
        // 1 + (2 * 3)
        assert_eq!(
            *expr,
            Expr::Binary {
                op: BinOp::Add,
                lhs: Box::new(Expr::Int(1)),
                rhs: Box::new(Expr::Binary {
                    op: BinOp::Mul,
                    lhs: Box::new(Expr::Int(2)),
                    rhs: Box::new(Expr::Int(3)),
                }),
            }
        );
    }

    #[test]
    fn logical_precedence_and_parens() {
        let b = parse_body("x := a or b and not c; y := (1 + 2) * 3").unwrap();
        let Stmt::Assign { expr, .. } = &b.0[0] else {
            panic!()
        };
        assert!(matches!(expr, Expr::Binary { op: BinOp::Or, .. }));
        let Stmt::Assign { expr, .. } = &b.0[1] else {
            panic!()
        };
        assert!(matches!(expr, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn send_forms() {
        let b = parse_body(
            "send m to self; send m(1, x) to f; send c1.m2(p) to self; x := send get to f",
        )
        .unwrap();
        assert_eq!(b.len(), 4);
        assert!(matches!(
            &b.0[1],
            Stmt::Send(SendExpr {
                target: Target::Field(f),
                args,
                ..
            }) if f == "f" && args.len() == 2
        ));
        assert!(matches!(
            &b.0[3],
            Stmt::Assign {
                expr: Expr::Send(_),
                ..
            }
        ));
    }

    #[test]
    fn prefixed_send_to_field_rejected() {
        assert!(parse_body("send c1.m to f").is_err());
    }

    #[test]
    fn control_flow() {
        let b = parse_body(
            "if x > 0 then y := 1 else y := 2 end; while y < 10 do y := y + 1 end; return y",
        )
        .unwrap();
        assert_eq!(b.len(), 3);
        assert!(matches!(
            &b.0[0],
            Stmt::If {
                else_blk: Some(_),
                ..
            }
        ));
        assert!(matches!(&b.0[1], Stmt::While { .. }));
        assert!(matches!(&b.0[2], Stmt::Return(Some(_))));
    }

    #[test]
    fn bare_return_and_trailing_semis() {
        let b = parse_body("return;;").unwrap();
        assert!(matches!(&b.0[0], Stmt::Return(None)));
        let b = parse_body("skip;").unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn var_decl_and_call() {
        let b = parse_body("var t := expr(f1, 3); f1 := t").unwrap();
        assert!(matches!(
            &b.0[0],
            Stmt::VarDecl {
                expr: Expr::Call { func, args },
                ..
            } if func == "expr" && args.len() == 2
        ));
    }

    #[test]
    fn errors_carry_position() {
        let e = parse_body("x :=").unwrap_err();
        assert!(e.line >= 1);
        let e = parse_program("class { }").unwrap_err();
        assert!(e.msg.contains("identifier"));
    }

    #[test]
    fn multiple_inheritance_syntax() {
        let p = parse_program("class a {} class b {} class c inherits a, b {}").unwrap();
        assert_eq!(p.classes[2].parents, ["a", "b"]);
    }

    #[test]
    fn empty_body_method() {
        let (schema, bodies) = build_schema("class a { method m is end }").unwrap();
        let a = schema.class_by_name("a").unwrap();
        let m = schema.resolve_method(a, "m").unwrap();
        assert!(bodies.body(m).is_empty());
    }

    #[test]
    fn comparison_is_non_associative() {
        assert!(parse_body("x := 1 < 2 < 3").is_err());
    }
}
