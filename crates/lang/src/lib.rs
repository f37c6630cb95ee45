//! # finecc-lang — the method language
//!
//! The paper abstracts method code as "a sequence of assignments,
//! expressions and messages" (§2.2) with two message forms:
//!
//! * simple: `send M to self` / `send M to f` (a field holding a reference),
//! * prefixed: `send C.M to self` — calling the overridden version.
//!
//! This crate makes that concrete with a small imperative language whose
//! surface syntax mirrors the paper (Figure 1 parses verbatim modulo
//! delimiters):
//!
//! ```text
//! class c2 inherits c1 {
//!   fields { f4: integer; f5: integer; f6: string; }
//!   method m2(p1) is redefined as
//!     send c1.m2(p1) to self;
//!     f4 := expr(f5, p1)
//!   end
//!   method m4(p1, p2) is
//!     if cond(f5, p1) then f6 := expr(f6, p2) end
//!   end
//! }
//! ```
//!
//! The crate provides:
//!
//! * [`parse_program`] / [`build_schema`] — parse class files into a
//!   [`finecc_model::Schema`] plus [`MethodBodies`]: per method, the AST
//!   and its **resolved body**,
//! * [`resolve`] — what is decided when. Everything a name can mean is
//!   decided once, at `build_schema`: parameters and `var`s become frame
//!   slots, field names [`finecc_model::FieldId`]s, literals values,
//!   `send m to self` a selector into a dense per-class dispatch row
//!   (late binding still happens per receiver, as one array index),
//!   `send C.m to self` a [`finecc_model::MethodId`]. Scoping is static
//!   and textual: a `var` shadows from its declaration to the end of the
//!   body, whatever branch it sits in. Only builtins are still bound by
//!   name at the call (the registry belongs to the interpreter),
//! * [`mod@analyze`] — the compile-time extraction of Definitions 6–8: field
//!   reads/writes and the DSC/PSC self-call sets, read off the resolved
//!   body — so the access vector covers exactly what executes,
//! * [`Interpreter`] — the executor of resolved bodies over a
//!   [`DataAccess`] trait, so every concurrency-control scheme can
//!   intercept field accesses and message sends; per message it looks
//!   nothing up by name after the top send's own `&str`,
//! * [`Builtins`] — the registry behind the paper's uninterpreted
//!   `expr(...)`/`cond(...)` functions, with deterministic,
//!   type-preserving defaults.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod ast;
pub mod builtins;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
#[cfg(test)]
mod reference;
pub mod resolve;

pub use analyze::{analyze, MethodFacts};
pub use ast::{BinOp, Block, Expr, SendExpr, Stmt, Target, UnOp};
pub use builtins::Builtins;
pub use error::{ExecError, ParseError};
pub use interp::{DataAccess, Interpreter};
pub use parser::{build_schema, parse_program, ClassSource, Program};
pub use resolve::MethodBodies;
