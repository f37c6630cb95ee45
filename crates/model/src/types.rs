//! Field types.
//!
//! The paper distinguishes fields of a *base type* (integers, booleans, …)
//! from fields that *reference instances* of another class (e.g. `f3 : c3`
//! in Figure 1). Complex types (tuples/sets/lists as in O2) are explicitly
//! out of the paper's scope and out of ours.

use crate::ids::ClassId;
use crate::value::Value;
use std::fmt;

/// The declared type of a field.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FieldType {
    /// 64-bit signed integer (`integer` in the surface syntax).
    Int,
    /// Boolean (`boolean`).
    Bool,
    /// IEEE-754 double (`float`).
    Float,
    /// UTF-8 string (`string`).
    Str,
    /// Reference to an instance whose class is in the domain rooted at the
    /// given class (covariant with inheritance), or nil.
    Ref(ClassId),
}

impl FieldType {
    /// The default value a freshly created instance holds in a field of
    /// this type.
    pub fn default_value(self) -> Value {
        match self {
            FieldType::Int => Value::Int(0),
            FieldType::Bool => Value::Bool(false),
            FieldType::Float => Value::Float(0.0),
            FieldType::Str => Value::str(""),
            FieldType::Ref(_) => Value::Nil,
        }
    }

    /// Whether `v` may be stored in a field of this type.
    ///
    /// Reference typing is structural at this level: any OID (or nil) is
    /// accepted; class-membership is checked by the store, which knows the
    /// schema and the target's class.
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (FieldType::Int, Value::Int(_))
                | (FieldType::Bool, Value::Bool(_))
                | (FieldType::Float, Value::Float(_))
                | (FieldType::Str, Value::Str(_))
                | (FieldType::Ref(_), Value::Ref(_))
                | (FieldType::Ref(_), Value::Nil)
        )
    }

    /// `true` for reference types.
    pub fn is_ref(self) -> bool {
        matches!(self, FieldType::Ref(_))
    }
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldType::Int => write!(f, "integer"),
            FieldType::Bool => write!(f, "boolean"),
            FieldType::Float => write!(f, "float"),
            FieldType::Str => write!(f, "string"),
            FieldType::Ref(c) => write!(f, "ref({c})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Oid;

    #[test]
    fn defaults_match_types() {
        assert!(FieldType::Int.admits(&FieldType::Int.default_value()));
        assert!(FieldType::Bool.admits(&FieldType::Bool.default_value()));
        assert!(FieldType::Float.admits(&FieldType::Float.default_value()));
        assert!(FieldType::Str.admits(&FieldType::Str.default_value()));
        assert!(FieldType::Ref(ClassId(0)).admits(&FieldType::Ref(ClassId(0)).default_value()));
    }

    #[test]
    fn admits_rejects_mismatches() {
        assert!(!FieldType::Int.admits(&Value::Bool(true)));
        assert!(!FieldType::Bool.admits(&Value::Int(1)));
        assert!(!FieldType::Str.admits(&Value::Nil));
        assert!(FieldType::Ref(ClassId(3)).admits(&Value::Ref(Oid(9))));
        assert!(FieldType::Ref(ClassId(3)).admits(&Value::Nil));
        assert!(!FieldType::Ref(ClassId(3)).admits(&Value::Int(9)));
    }

    #[test]
    fn display_names() {
        assert_eq!(FieldType::Int.to_string(), "integer");
        assert_eq!(FieldType::Ref(ClassId(2)).to_string(), "ref(c#2)");
    }
}
