//! Lock modes and pluggable compatibility sources.

use crate::resource::ResourceId;
use finecc_core::CompiledSchema;
use std::fmt;
use std::sync::Arc;

/// The read mode of the classical 2-mode table.
pub const READ: u16 = 0;
/// The write mode of the classical 2-mode table.
pub const WRITE: u16 = 1;

/// How a lock covers its resource (§5.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LockKind {
    /// An ordinary lock on a non-class resource (instance, field, tuple…).
    Plain,
    /// A class lock with `hierarchical = false`: the transaction will lock
    /// the individual instances it uses. Intentional locks are mutually
    /// compatible — conflicts surface at instance granularity.
    Intentional,
    /// A class lock with `hierarchical = true`: implicitly locks **all**
    /// instances of the class; compatibility falls back to the access-mode
    /// matrix against any other class lock.
    Hierarchical,
}

/// A lock mode: an access-mode index into the resource's mode table, plus
/// the coverage kind.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LockMode {
    /// Index into the governing mode table (a method's access mode for
    /// commutativity tables; [`READ`]/[`WRITE`] for RW tables).
    pub mode: u16,
    /// Coverage kind.
    pub kind: LockKind,
}

impl LockMode {
    /// An ordinary (instance/field/tuple) lock.
    pub fn plain(mode: u16) -> LockMode {
        LockMode {
            mode,
            kind: LockKind::Plain,
        }
    }

    /// A class lock: `(mode, hierarchical)` as in §5.2.
    pub fn class(mode: u16, hierarchical: bool) -> LockMode {
        LockMode {
            mode,
            kind: if hierarchical {
                LockKind::Hierarchical
            } else {
                LockKind::Intentional
            },
        }
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            LockKind::Plain => write!(f, "m{}", self.mode),
            LockKind::Intentional => write!(f, "(m{},false)", self.mode),
            LockKind::Hierarchical => write!(f, "(m{},true)", self.mode),
        }
    }
}

/// Per-resource access-mode compatibility: the seam that lets one lock
/// manager serve the paper's commutativity matrices, classical RW tables,
/// and the relational baseline.
pub trait ModeSource: Send + Sync {
    /// Whether raw modes `a` and `b` are compatible on `res`.
    fn modes_compatible(&self, res: &ResourceId, a: u16, b: u16) -> bool;

    /// Full lock-mode compatibility: layers the §5.2 kind semantics over
    /// the raw matrix. Intentional↔intentional is always compatible; any
    /// hierarchical participant (and plain locks) consult the matrix.
    fn compatible(&self, res: &ResourceId, a: LockMode, b: LockMode) -> bool {
        match (a.kind, b.kind) {
            (LockKind::Intentional, LockKind::Intentional) => true,
            _ => self.modes_compatible(res, a.mode, b.mode),
        }
    }

    /// Whether a hierarchical class lock held in raw mode `held` already
    /// locks `res`, one of the class's instances (or the class itself),
    /// for raw mode `wanted` (§5.2: `(m, true)` locks every instance
    /// *for m*). By default only the same mode does.
    fn covers(&self, _res: &ResourceId, held: u16, wanted: u16) -> bool {
        held == wanted
    }
}

/// The classical 2-mode read/write table, for every resource.
/// Read–read is the only compatible pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct RwSource;

impl ModeSource for RwSource {
    #[inline]
    fn modes_compatible(&self, _res: &ResourceId, a: u16, b: u16) -> bool {
        a == READ && b == READ
    }

    /// A write lock covers reads too.
    #[inline]
    fn covers(&self, _res: &ResourceId, held: u16, wanted: u16) -> bool {
        held == WRITE || held == wanted
    }
}

/// The paper's scheme: per-class generated commutativity matrices for
/// instance and class resources; RW for anything else (not used by the
/// TAV scheme, but keeps the source total).
#[derive(Clone)]
pub struct CommutSource {
    compiled: Arc<CompiledSchema>,
}

impl CommutSource {
    /// Wraps a compiled schema.
    pub fn new(compiled: Arc<CompiledSchema>) -> CommutSource {
        CommutSource { compiled }
    }

    /// The compiled schema backing this source.
    pub fn compiled(&self) -> &CompiledSchema {
        &self.compiled
    }
}

impl ModeSource for CommutSource {
    #[inline]
    fn modes_compatible(&self, res: &ResourceId, a: u16, b: u16) -> bool {
        match res.class() {
            Some(c) => self.compiled.class(c).commute(a as usize, b as usize),
            None => a == READ && b == READ,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finecc_lang::parser::{build_schema, FIGURE1_SOURCE};
    use finecc_model::{ClassId, Oid};

    #[test]
    fn rw_table() {
        let s = RwSource;
        let r = ResourceId::Field(Oid(1), finecc_model::FieldId(0));
        assert!(s.modes_compatible(&r, READ, READ));
        assert!(!s.modes_compatible(&r, READ, WRITE));
        assert!(!s.modes_compatible(&r, WRITE, READ));
        assert!(!s.modes_compatible(&r, WRITE, WRITE));
    }

    #[test]
    fn kind_semantics() {
        let s = RwSource;
        let c = ResourceId::Class(ClassId(0));
        let iw = LockMode::class(WRITE, false);
        let ir = LockMode::class(READ, false);
        let hw = LockMode::class(WRITE, true);
        let hr = LockMode::class(READ, true);
        // Intentional ↔ intentional: always compatible.
        assert!(s.compatible(&c, iw, ir));
        assert!(s.compatible(&c, iw, iw));
        // Hierarchical participant: matrix decides.
        assert!(!s.compatible(&c, hw, ir));
        assert!(!s.compatible(&c, iw, hr));
        assert!(s.compatible(&c, hr, ir));
        assert!(s.compatible(&c, hr, hr));
        assert!(!s.compatible(&c, hw, hr));
        // Plain locks: matrix.
        let i = ResourceId::Instance(Oid(1), ClassId(0));
        assert!(!s.compatible(&i, LockMode::plain(WRITE), LockMode::plain(READ)));
        assert!(s.compatible(&i, LockMode::plain(READ), LockMode::plain(READ)));
    }

    #[test]
    fn a_hierarchical_lock_covers_its_own_mode_and_what_it_implies() {
        let r = ResourceId::Instance(Oid(1), ClassId(0));
        assert!(RwSource.covers(&r, WRITE, READ));
        assert!(RwSource.covers(&r, WRITE, WRITE));
        assert!(RwSource.covers(&r, READ, READ));
        assert!(!RwSource.covers(&r, READ, WRITE));
        let (schema, bodies) = build_schema(FIGURE1_SOURCE).unwrap();
        let src = CommutSource::new(Arc::new(finecc_core::compile(&schema, &bodies).unwrap()));
        assert!(src.covers(&r, 2, 2));
        assert!(!src.covers(&r, 2, 3));
    }

    #[test]
    fn commut_source_uses_class_matrix() {
        let (schema, bodies) = build_schema(FIGURE1_SOURCE).unwrap();
        let compiled = Arc::new(finecc_core::compile(&schema, &bodies).unwrap());
        let c2 = schema.class_by_name("c2").unwrap();
        let t = compiled.class(c2);
        let (m1, m2, m3, m4) = (
            t.index_of("m1").unwrap() as u16,
            t.index_of("m2").unwrap() as u16,
            t.index_of("m3").unwrap() as u16,
            t.index_of("m4").unwrap() as u16,
        );
        let src = CommutSource::new(compiled);
        let inst = ResourceId::Instance(Oid(7), c2);
        // Table 2 semantics through the lock layer.
        assert!(!src.modes_compatible(&inst, m1, m2));
        assert!(src.modes_compatible(&inst, m2, m4));
        assert!(src.modes_compatible(&inst, m3, m3));
        assert!(!src.modes_compatible(&inst, m4, m4));
        // Class-resource uses the same matrix.
        let cls = ResourceId::Class(c2);
        assert!(src.modes_compatible(&cls, m2, m3));
    }

    #[test]
    fn lockmode_display() {
        assert_eq!(LockMode::plain(3).to_string(), "m3");
        assert_eq!(LockMode::class(1, true).to_string(), "(m1,true)");
        assert_eq!(LockMode::class(1, false).to_string(), "(m1,false)");
    }
}
