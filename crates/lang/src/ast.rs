//! Abstract syntax of method bodies.
//!
//! The AST is what the parser produces and the pretty-printer renders:
//! names (`Expr::Name`, `Stmt::Assign`, message and class names) are
//! plain strings here. Nothing executes or analyses this form.
//! [`crate::build_schema`] resolves every body **once**
//! ([`crate::resolve`]) against the method's parameters, its `var`s and
//! the fields visible in the *defining* class — the order the paper's
//! Definition 6 presumes, with the textual scoping rule stated there —
//! and both the interpreter and [`mod@crate::analyze`] consume that
//! resolved body.

use std::fmt;

/// Binary operators, loosest first in the grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// Logical or (short-circuit).
    Or,
    /// Logical and (short-circuit).
    And,
    /// Equality.
    Eq,
    /// Inequality (`<>`).
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// Addition (ints/floats) or concatenation (strings).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division on ints; division by zero yields 0,
    /// keeping generated workloads total).
    Div,
    /// Remainder.
    Mod,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Or => "or",
            BinOp::And => "and",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => f.write_str("-"),
            UnOp::Not => f.write_str("not "),
        }
    }
}

/// The receiver of a message send.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// `... to self` — the current instance.
    SelfRef,
    /// `... to f` — the instance referenced by field `f`.
    Field(String),
}

/// A message send, in statement or expression position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SendExpr {
    /// `Some(class)` for the prefixed form `send C.M to self`
    /// (only valid with [`Target::SelfRef`]).
    pub prefix: Option<String>,
    /// The method name.
    pub method: String,
    /// Argument expressions.
    pub args: Vec<Expr>,
    /// The receiver.
    pub target: Target,
}

/// An expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal (stored as bits for `Eq`).
    Float(u64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `nil`.
    Nil,
    /// `self` as a reference value.
    SelfRef,
    /// A name: parameter, local, or field (decided at resolution).
    Name(String),
    /// A builtin call such as the paper's `expr(f1, f2, p1)`.
    Call {
        /// Builtin name.
        func: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A value-returning message send `(send m(x) to f)`.
    Send(Box<SendExpr>),
}

impl Expr {
    /// Float literal constructor.
    pub fn float(v: f64) -> Expr {
        Expr::Float(v.to_bits())
    }

    /// The float value of a [`Expr::Float`] literal.
    pub fn float_value(bits: u64) -> f64 {
        f64::from_bits(bits)
    }
}

/// A statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// No-op (`skip`), the empty body.
    Skip,
    /// `name := expr` — assignment to a field or local.
    Assign {
        /// Target name (field of the defining class, or a local).
        name: String,
        /// Right-hand side.
        expr: Expr,
    },
    /// `var name := expr` — local variable declaration.
    VarDecl {
        /// Local name (shadows fields for the rest of the body).
        name: String,
        /// Initializer.
        expr: Expr,
    },
    /// A message send in statement position.
    Send(SendExpr),
    /// Conditional.
    If {
        /// Condition.
        cond: Expr,
        /// `then` branch.
        then_blk: Block,
        /// Optional `else` branch.
        else_blk: Option<Block>,
    },
    /// Loop.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Block,
    },
    /// `return [expr]` — leaves the method with a value (default nil).
    Return(Option<Expr>),
}

/// A sequence of statements.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Block(pub Vec<Stmt>);

impl Block {
    /// An empty block.
    pub fn empty() -> Block {
        Block(Vec::new())
    }

    /// Number of statements (non-recursive).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if the block has no statements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_roundtrip() {
        let e = Expr::float(2.5);
        if let Expr::Float(bits) = e {
            assert_eq!(Expr::float_value(bits), 2.5);
        } else {
            unreachable!();
        }
    }

    #[test]
    fn ops_display() {
        assert_eq!(BinOp::Ne.to_string(), "<>");
        assert_eq!(BinOp::Add.to_string(), "+");
        assert_eq!(UnOp::Not.to_string(), "not ");
    }

    #[test]
    fn block_helpers() {
        assert!(Block::empty().is_empty());
        assert_eq!(Block(vec![Stmt::Skip]).len(), 1);
    }
}
