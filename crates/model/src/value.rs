//! Runtime values stored in instance fields and flowing through the method
//! interpreter.

use crate::ids::Oid;
use std::fmt;
use std::sync::Arc;

/// A dynamically-typed runtime value.
///
/// Strings are `Arc<str>` so that cloning values (undo logging, snapshots,
/// message arguments) never reallocates the character data.
#[derive(Clone, Debug)]
pub enum Value {
    /// Absent reference (`nil`). Also the initial value of reference fields.
    Nil,
    /// 64-bit signed integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// IEEE-754 double.
    Float(f64),
    /// Immutable shared string.
    Str(Arc<str>),
    /// Reference to another instance.
    Ref(Oid),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Truthiness used by `if`/`while` and the `cond(...)` builtin:
    /// `false`, `0`, `0.0`, `""`, and `nil` are false, everything else true.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Nil => false,
            Value::Int(i) => *i != 0,
            Value::Bool(b) => *b,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Ref(_) => true,
        }
    }

    /// Integer view used by arithmetic builtins; booleans coerce to 0/1.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// The OID if this is a reference.
    pub fn as_ref_oid(&self) -> Option<Oid> {
        match self {
            Value::Ref(o) => Some(*o),
            _ => None,
        }
    }

    /// A short type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Nil => "nil",
            Value::Int(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Ref(_) => "ref",
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Nil, Value::Nil) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            // Float equality is bitwise so that undo-log round-trips are
            // exact (NaN restores to NaN).
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Ref(a), Value::Ref(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => write!(f, "nil"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Ref(o) => write!(f, "{o}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<Oid> for Value {
    fn from(v: Oid) -> Self {
        Value::Ref(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Nil.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-3).truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Bool(true).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(Value::Ref(Oid(0)).truthy());
        assert!(!Value::Float(0.0).truthy());
    }

    #[test]
    fn nan_is_self_equal() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_ne!(Value::Float(0.0), Value::Float(1.0));
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::str("x").as_int(), None);
        assert_eq!(Value::Ref(Oid(4)).as_ref_oid(), Some(Oid(4)));
        assert_eq!(Value::Nil.as_ref_oid(), None);
    }

    #[test]
    fn from_impls_and_display() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::from(true).to_string(), "true");
        assert_eq!(Value::from(Oid(2)).to_string(), "oid:2");
        assert_eq!(Value::str("a").to_string(), "\"a\"");
    }

    #[test]
    fn str_clone_shares_buffer() {
        let a = Value::str("shared");
        let b = a.clone();
        if let (Value::Str(x), Value::Str(y)) = (&a, &b) {
            assert!(Arc::ptr_eq(x, y));
        } else {
            unreachable!()
        }
    }
}
