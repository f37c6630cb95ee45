//! Lockable resources.

use finecc_model::{ClassId, FieldId, Oid};
use std::fmt;

/// Identifies one lockable resource.
///
/// Instance resources carry the instance's class so the
/// [`crate::ModeSource`] can pick the right per-class commutativity
/// matrix without a store lookup; an instance has exactly one class for
/// its lifetime, so all requesters agree.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ResourceId {
    /// One instance, under its proper class's mode table.
    Instance(Oid, ClassId),
    /// One class (the explicit class locks of §5).
    Class(ClassId),
    /// One field of one instance — the granule of the Agrawal–El Abbadi
    /// run-time field-locking baseline.
    Field(Oid, FieldId),
    /// A whole relation of the relational-decomposition baseline
    /// (identified by the class whose local fields it holds).
    Relation(ClassId),
    /// One tuple of one relation (`(relation, key)`); the key is the OID
    /// the tuple projects.
    Tuple(ClassId, Oid),
}

impl ResourceId {
    /// The class whose mode table governs this resource, when any.
    pub fn class(&self) -> Option<ClassId> {
        match self {
            ResourceId::Instance(_, c) | ResourceId::Class(c) => Some(*c),
            _ => None,
        }
    }

    /// `true` for class-level resources (the ones that may carry
    /// hierarchical/intentional locks).
    pub fn is_class(&self) -> bool {
        matches!(self, ResourceId::Class(_))
    }

    /// `true` for the resources every transaction of a class (or
    /// relation) announces itself on — the ones the lock table splits
    /// into partitions.
    pub(crate) fn is_partitioned(&self) -> bool {
        matches!(self, ResourceId::Class(_) | ResourceId::Relation(_))
    }
}

/// What a lock-table entry is keyed by: a resource, or one partition of
/// a class-level one (see [`crate::LockManager`]). Compatibility is
/// always asked of `res`, the logical resource.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Granule {
    pub(crate) res: ResourceId,
    /// The partition; 0 for a resource that has none.
    pub(crate) part: u8,
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceId::Instance(o, c) => write!(f, "inst({o} of {c})"),
            ResourceId::Class(c) => write!(f, "class({c})"),
            ResourceId::Field(o, fld) => write!(f, "field({o}.{fld})"),
            ResourceId::Relation(c) => write!(f, "rel({c})"),
            ResourceId::Tuple(c, o) => write!(f, "tuple({c}[{o}])"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_extraction() {
        let r = ResourceId::Instance(Oid(1), ClassId(2));
        assert_eq!(r.class(), Some(ClassId(2)));
        assert!(!r.is_class());
        assert!(ResourceId::Class(ClassId(0)).is_class());
        assert_eq!(ResourceId::Field(Oid(1), FieldId(2)).class(), None);
    }

    #[test]
    fn distinct_resources_hash_distinct() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(ResourceId::Instance(Oid(1), ClassId(0)));
        s.insert(ResourceId::Class(ClassId(0)));
        s.insert(ResourceId::Tuple(ClassId(0), Oid(1)));
        s.insert(ResourceId::Relation(ClassId(0)));
        s.insert(ResourceId::Field(Oid(1), FieldId(0)));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn display() {
        assert_eq!(
            ResourceId::Tuple(ClassId(1), Oid(9)).to_string(),
            "tuple(c#1[oid:9])"
        );
    }
}
