//! The sharded, thread-safe object heap with class extents.

use crate::error::StoreError;
use finecc_model::{ClassId, FieldId, FieldType, Instance, MulMap, Oid, Schema, Value};
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SHARD_COUNT: usize = 64;

/// The object base: schema + heap + extents.
///
/// All operations take `&self`; the heap is sharded by OID and each shard
/// guarded by a `parking_lot::RwLock`, so concurrent transactions scale.
/// The store performs *physical* synchronization only — *logical*
/// concurrency control (who may read/write what, and when) is the lock
/// manager's job in `finecc-lock`/`finecc-runtime`.
pub struct Database {
    schema: Arc<Schema>,
    shards: Box<[RwLock<MulMap<Oid, Instance>>]>,
    extents: Vec<RwLock<BTreeSet<Oid>>>,
    next_oid: AtomicU64,
}

impl Database {
    /// Creates an empty database over a schema.
    pub fn new(schema: Arc<Schema>) -> Database {
        let shards = (0..SHARD_COUNT)
            .map(|_| RwLock::new(MulMap::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let extents = (0..schema.class_count())
            .map(|_| RwLock::new(BTreeSet::new()))
            .collect();
        Database {
            schema,
            shards,
            extents,
            next_oid: AtomicU64::new(1),
        }
    }

    /// The schema this database instantiates.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    #[inline]
    fn shard(&self, oid: Oid) -> &RwLock<MulMap<Oid, Instance>> {
        &self.shards[(oid.raw() as usize) % SHARD_COUNT]
    }

    /// Creates a default-initialized instance of `class`.
    pub fn create(&self, class: ClassId) -> Oid {
        let oid = Oid(self.next_oid.fetch_add(1, Ordering::Relaxed));
        let inst = Instance::new(&self.schema, class);
        self.shard(oid).write().insert(oid, inst);
        self.extents[class.index()].write().insert(oid);
        oid
    }

    /// Creates an instance and initializes the given fields (type-checked).
    pub fn create_with(
        &self,
        class: ClassId,
        fields: impl IntoIterator<Item = (FieldId, Value)>,
    ) -> Result<Oid, StoreError> {
        let oid = self.create(class);
        for (f, v) in fields {
            self.write(oid, f, v)?;
        }
        Ok(oid)
    }

    /// Inserts an instance under a caller-chosen OID — the recovery
    /// path's constructor (checkpoint load / log replay), where OIDs
    /// come from the previous incarnation of the database and must be
    /// preserved exactly. Returns `false` (and changes nothing) if the
    /// OID is already live. Keeps `next_oid` above every inserted OID
    /// so post-recovery [`Database::create`] never reuses one.
    pub fn insert_instance(&self, oid: Oid, class: ClassId, values: Vec<Value>) -> bool {
        debug_assert_eq!(
            values.len(),
            self.schema.class(class).field_count(),
            "instance value vector must match the class layout"
        );
        let mut shard = self.shard(oid).write();
        if shard.contains_key(&oid) {
            return false;
        }
        shard.insert(oid, Instance { class, values });
        drop(shard);
        self.extents[class.index()].write().insert(oid);
        self.next_oid.fetch_max(oid.raw() + 1, Ordering::Relaxed);
        true
    }

    /// Raises the OID allocator to at least `next` (recovery restores
    /// the allocator recorded in a checkpoint even when the tail of the
    /// OID space holds no live instance).
    pub fn set_next_oid(&self, next: u64) {
        self.next_oid.fetch_max(next, Ordering::Relaxed);
    }

    /// The next OID [`Database::create`] would allocate (checkpoints
    /// persist it so recovery never reuses an OID).
    pub fn next_oid_hint(&self) -> u64 {
        self.next_oid.load(Ordering::Relaxed)
    }

    /// The proper class of an instance.
    pub fn class_of(&self, oid: Oid) -> Result<ClassId, StoreError> {
        self.shard(oid)
            .read()
            .get(&oid)
            .map(|i| i.class)
            .ok_or(StoreError::UnknownOid(oid))
    }

    /// Reads one field.
    pub fn read(&self, oid: Oid, field: FieldId) -> Result<Value, StoreError> {
        let shard = self.shard(oid).read();
        let inst = shard.get(&oid).ok_or(StoreError::UnknownOid(oid))?;
        inst.get(&self.schema, field)
            .cloned()
            .ok_or(StoreError::FieldNotVisible { oid, field })
    }

    /// Validates that `value` may be written to `field`: the type check
    /// and the reference domain check, **without** touching the target
    /// shard. Split out so callers that serialize writes themselves
    /// (the MVCC heap's per-shard writer latch) can run validation
    /// outside their critical section and follow up with
    /// [`Database::exchange_unchecked`].
    pub fn check_write(&self, field: FieldId, value: &Value) -> Result<(), StoreError> {
        let fi = self.schema.field(field);
        if !fi.ty.admits(value) {
            return Err(StoreError::TypeMismatch {
                field,
                expected: fi.ty.to_string(),
                got: value.type_name(),
            });
        }
        if let (FieldType::Ref(domain_root), Value::Ref(target)) = (fi.ty, value) {
            let target_class = self.class_of(*target)?;
            if !self.schema.in_domain(domain_root, target_class) {
                return Err(StoreError::RefDomainMismatch {
                    field,
                    expected_domain: domain_root,
                    got_class: target_class,
                });
            }
        }
        Ok(())
    }

    /// Writes a field **without** type checking and returns the
    /// previous value — the exchange half of [`Database::write`], for
    /// callers that already ran [`Database::check_write`]. One shard
    /// `RwLock::write`, nothing else.
    pub fn exchange_unchecked(
        &self,
        oid: Oid,
        field: FieldId,
        value: Value,
    ) -> Result<Value, StoreError> {
        let mut shard = self.shard(oid).write();
        let inst = shard.get_mut(&oid).ok_or(StoreError::UnknownOid(oid))?;
        inst.set(&self.schema, field, value)
            .ok_or(StoreError::FieldNotVisible { oid, field })
    }

    /// Writes one field after type checking (including the reference
    /// domain check). Returns the previous value.
    pub fn write(&self, oid: Oid, field: FieldId, value: Value) -> Result<Value, StoreError> {
        self.check_write(field, &value)?;
        self.exchange_unchecked(oid, field, value)
    }

    /// Writes a field **without** type checking — used only by undo
    /// (restoring a before-image that was read from this same instance).
    pub fn write_unchecked(
        &self,
        oid: Oid,
        field: FieldId,
        value: Value,
    ) -> Result<(), StoreError> {
        let mut shard = self.shard(oid).write();
        let inst = shard.get_mut(&oid).ok_or(StoreError::UnknownOid(oid))?;
        inst.set(&self.schema, field, value)
            .map(drop)
            .ok_or(StoreError::FieldNotVisible { oid, field })
    }

    /// Deletes an instance. Dangling references elsewhere surface as
    /// [`StoreError::UnknownOid`] on later traversal.
    pub fn delete(&self, oid: Oid) -> Result<(), StoreError> {
        let inst = self
            .shard(oid)
            .write()
            .remove(&oid)
            .ok_or(StoreError::UnknownOid(oid))?;
        self.extents[inst.class.index()].write().remove(&oid);
        Ok(())
    }

    /// The *shallow* extent: proper instances of `class` only, in OID
    /// order (deterministic).
    pub fn extent(&self, class: ClassId) -> Vec<Oid> {
        self.extents[class.index()].read().iter().copied().collect()
    }

    /// The *deep* extent: instances of every class in the domain rooted at
    /// `class` — the unit the §5.2 protocol locks for "all instances of a
    /// class" and "all instances of a domain".
    pub fn deep_extent(&self, class: ClassId) -> Vec<Oid> {
        let mut out = Vec::new();
        for &c in self.schema.domain(class) {
            out.extend(self.extents[c.index()].read().iter().copied());
        }
        out.sort_unstable();
        out
    }

    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// `true` when no instance exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent point-in-time copy of the whole heap (grabs all shard
    /// locks; intended for tests and invariant checks, not hot paths).
    pub fn snapshot(&self) -> BTreeMap<Oid, Instance> {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let mut out = BTreeMap::new();
        for g in &guards {
            for (&oid, inst) in g.iter() {
                out.insert(oid, inst.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finecc_model::{FieldType, SchemaBuilder};

    fn schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new();
        b.class("p")
            .field("x", FieldType::Int)
            .ref_field("buddy", "p");
        b.class("q").inherits("p").field("y", FieldType::Bool);
        b.class("other").field("z", FieldType::Int);
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn create_read_write_roundtrip() {
        let s = schema();
        let db = Database::new(Arc::clone(&s));
        let p = s.class_by_name("p").unwrap();
        let x = s.resolve_field(p, "x").unwrap();
        let o = db.create(p);
        assert_eq!(db.read(o, x), Ok(Value::Int(0)));
        assert_eq!(db.write(o, x, Value::Int(5)), Ok(Value::Int(0)));
        assert_eq!(db.read(o, x), Ok(Value::Int(5)));
        assert_eq!(db.class_of(o), Ok(p));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn type_checking() {
        let s = schema();
        let db = Database::new(Arc::clone(&s));
        let p = s.class_by_name("p").unwrap();
        let x = s.resolve_field(p, "x").unwrap();
        let o = db.create(p);
        assert!(matches!(
            db.write(o, x, Value::Bool(true)),
            Err(StoreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn ref_domain_enforced() {
        let s = schema();
        let db = Database::new(Arc::clone(&s));
        let p = s.class_by_name("p").unwrap();
        let q = s.class_by_name("q").unwrap();
        let other = s.class_by_name("other").unwrap();
        let buddy = s.resolve_field(p, "buddy").unwrap();
        let a = db.create(p);
        let b = db.create(q);
        let c = db.create(other);
        // q is in p's domain: allowed.
        db.write(a, buddy, Value::Ref(b)).unwrap();
        // `other` is not: rejected.
        assert!(matches!(
            db.write(a, buddy, Value::Ref(c)),
            Err(StoreError::RefDomainMismatch { .. })
        ));
        // nil always allowed.
        db.write(a, buddy, Value::Nil).unwrap();
    }

    #[test]
    fn extents_shallow_vs_deep() {
        let s = schema();
        let db = Database::new(Arc::clone(&s));
        let p = s.class_by_name("p").unwrap();
        let q = s.class_by_name("q").unwrap();
        let p1 = db.create(p);
        let q1 = db.create(q);
        let q2 = db.create(q);
        assert_eq!(db.extent(p), vec![p1]);
        assert_eq!(db.extent(q), vec![q1, q2]);
        assert_eq!(db.deep_extent(p), vec![p1, q1, q2]);
        assert_eq!(db.deep_extent(q), vec![q1, q2]);
    }

    #[test]
    fn delete_removes_from_extent() {
        let s = schema();
        let db = Database::new(Arc::clone(&s));
        let p = s.class_by_name("p").unwrap();
        let o = db.create(p);
        db.delete(o).unwrap();
        assert!(db.extent(p).is_empty());
        assert_eq!(db.delete(o), Err(StoreError::UnknownOid(o)));
        assert!(db.is_empty());
        let x = s.resolve_field(p, "x").unwrap();
        assert_eq!(db.read(o, x), Err(StoreError::UnknownOid(o)));
    }

    #[test]
    fn create_with_initializers() {
        let s = schema();
        let db = Database::new(Arc::clone(&s));
        let q = s.class_by_name("q").unwrap();
        let x = s.resolve_field(q, "x").unwrap();
        let y = s.resolve_field(q, "y").unwrap();
        let o = db
            .create_with(q, [(x, Value::Int(3)), (y, Value::Bool(true))])
            .unwrap();
        assert_eq!(db.read(o, x), Ok(Value::Int(3)));
        assert_eq!(db.read(o, y), Ok(Value::Bool(true)));
    }

    #[test]
    fn field_visibility_checked() {
        let s = schema();
        let db = Database::new(Arc::clone(&s));
        let p = s.class_by_name("p").unwrap();
        let q = s.class_by_name("q").unwrap();
        let y = s.resolve_field(q, "y").unwrap();
        let o = db.create(p);
        assert!(matches!(
            db.read(o, y),
            Err(StoreError::FieldNotVisible { .. })
        ));
    }

    #[test]
    fn snapshot_is_point_in_time_copy() {
        let s = schema();
        let db = Database::new(Arc::clone(&s));
        let p = s.class_by_name("p").unwrap();
        let x = s.resolve_field(p, "x").unwrap();
        let o = db.create(p);
        db.write(o, x, Value::Int(1)).unwrap();
        let snap = db.snapshot();
        db.write(o, x, Value::Int(2)).unwrap();
        assert_eq!(snap[&o].get(&s, x), Some(&Value::Int(1)));
    }

    #[test]
    fn oids_unique_across_threads() {
        let s = schema();
        let db = Arc::new(Database::new(Arc::clone(&s)));
        let p = s.class_by_name("p").unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                (0..500).map(|_| db.create(p)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<Oid> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        assert_eq!(db.len(), 4000);
        assert_eq!(db.extent(p).len(), 4000);
    }
}
