//! Strongly-typed identifiers used throughout the workspace.
//!
//! All identifiers are plain integers behind newtypes: cheap to copy, hash
//! and order, and impossible to confuse with one another at compile time.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $repr:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $repr);

        impl $name {
            /// Returns the raw integer value.
            #[inline]
            pub const fn raw(self) -> $repr {
                self.0
            }

            /// Returns the identifier as a `usize`, for indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an identifier from a `usize` index.
            #[inline]
            pub fn from_index(i: usize) -> Self {
                Self(i as $repr)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a class within a [`crate::Schema`].
    ClassId,
    u32,
    "c#"
);

id_type!(
    /// Identifies a field *definition*. An inherited field keeps the
    /// `FieldId` assigned at its defining class, so access vectors of a
    /// subclass and its superclass index common fields identically
    /// (Definition 6(i) of the paper).
    FieldId,
    u32,
    "f#"
);

id_type!(
    /// Identifies a method *definition site* (a `(class, name, body)`
    /// triple). A method inherited unchanged shares the `MethodId` of the
    /// defining ancestor; an override introduces a fresh `MethodId`.
    MethodId,
    u32,
    "m#"
);

id_type!(
    /// An object identifier. Unique per database, never reused.
    Oid,
    u64,
    "oid:"
);

id_type!(
    /// A transaction identifier. Monotonically increasing; doubles as the
    /// timestamp used by deadlock victim selection.
    TxnId,
    u64,
    "txn:"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_distinct_types_and_roundtrip() {
        let c = ClassId::from_index(7);
        assert_eq!(c.index(), 7);
        assert_eq!(c.raw(), 7);
        assert_eq!(format!("{c}"), "c#7");
        assert_eq!(format!("{c:?}"), "c#7");
    }

    #[test]
    fn ids_hash_and_order() {
        let mut set = HashSet::new();
        set.insert(Oid(1));
        set.insert(Oid(2));
        set.insert(Oid(1));
        assert_eq!(set.len(), 2);
        assert!(TxnId(3) < TxnId(10));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(FieldId::default(), FieldId(0));
        assert_eq!(MethodId::default().index(), 0);
    }
}
