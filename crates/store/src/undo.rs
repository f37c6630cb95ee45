//! Per-transaction undo logging and the shared field-image projection.
//!
//! Follows the paper's recovery remark: before-images are projections of
//! instances through the *Write* part of access vectors, recorded once per
//! `(instance, field)` per transaction. Strict two-phase locking (writes
//! are exclusive until commit) makes reverse-order restore sufficient to
//! undo an aborted transaction without touching other transactions' work.
//!
//! The same projection yields the *redo* side of durability: at commit,
//! [`UndoLog::redo_projection`] re-reads the recorded `(instance, field)`
//! pairs — still exclusive under 2PL — producing the after-images the
//! write-ahead log persists. Undo images and log payloads are both
//! [`FieldImage`] lists built from one projection path, so the log-record
//! granularity is exactly the access-vector *Write* granularity.

use crate::db::Database;
use crate::error::StoreError;
use finecc_model::{FieldId, MulSet, Oid, Value};

/// One projected field image: the value of `(oid, field)` at a given
/// moment. The undo log stores *before*-images; the write-ahead log
/// stores *after*-images — same shape, same projection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldImage {
    /// The instance.
    pub oid: Oid,
    /// The projected field.
    pub field: FieldId,
    /// The field's value at projection time.
    pub value: Value,
}

/// One transaction's undo log.
#[derive(Debug, Default)]
pub struct UndoLog {
    records: Vec<FieldImage>,
    seen: MulSet<(Oid, FieldId)>,
}

impl UndoLog {
    /// An empty log.
    pub fn new() -> UndoLog {
        UndoLog::default()
    }

    /// Records a before-image for `(oid, field)` unless one is already
    /// present — only the *first* image per transaction matters.
    /// Returns `true` if the image was recorded.
    pub fn record(&mut self, oid: Oid, field: FieldId, before: Value) -> bool {
        if self.seen.insert((oid, field)) {
            self.records.push(FieldImage {
                oid,
                field,
                value: before,
            });
            true
        } else {
            false
        }
    }

    /// Records before-images for every `Write` field of an access vector
    /// projection, reading current values from the database. Fields not
    /// visible on the instance are skipped (a subclass TAV projected onto
    /// a superclass instance).
    pub fn record_projection(
        &mut self,
        db: &Database,
        oid: Oid,
        write_fields: impl IntoIterator<Item = FieldId>,
    ) -> Result<usize, StoreError> {
        let mut n = 0;
        for f in write_fields {
            if self.seen.contains(&(oid, f)) {
                continue;
            }
            match db.read(oid, f) {
                Ok(v) => {
                    self.record(oid, f, v);
                    n += 1;
                }
                Err(StoreError::FieldNotVisible { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(n)
    }

    /// The recorded before-images, in record order.
    pub fn images(&self) -> &[FieldImage] {
        &self.records
    }

    /// The *redo* projection: the current (after) value of every
    /// `(oid, field)` pair this log holds a before-image for. Under
    /// strict 2PL the transaction still holds exclusive locks on these
    /// fields at commit, so the values read here are exactly what it
    /// wrote — the payload the write-ahead log persists. Fields of
    /// since-deleted instances are skipped (mirroring
    /// [`UndoLog::rollback`]).
    pub fn redo_projection(&self, db: &Database) -> Vec<FieldImage> {
        // `filter_map` hints a lower bound of zero; the record count is
        // the exact size whenever nothing was deleted meanwhile.
        let mut images = Vec::with_capacity(self.records.len());
        images.extend(self.records.iter().filter_map(|img| {
            db.read(img.oid, img.field).ok().map(|value| FieldImage {
                oid: img.oid,
                field: img.field,
                value,
            })
        }));
        images
    }

    /// Number of recorded images.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Rolls every image back in reverse order and clears the log.
    /// Returns the number of restored fields. Images of since-deleted
    /// instances are skipped.
    pub fn rollback(&mut self, db: &Database) -> usize {
        let mut n = 0;
        for img in self.records.drain(..).rev() {
            if db.write_unchecked(img.oid, img.field, img.value).is_ok() {
                n += 1;
            }
        }
        self.seen.clear();
        n
    }

    /// Discards the log (commit path).
    pub fn clear(&mut self) {
        self.records.clear();
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finecc_model::{FieldType, Schema, SchemaBuilder};
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, Database) {
        let mut b = SchemaBuilder::new();
        b.class("a")
            .field("x", FieldType::Int)
            .field("y", FieldType::Str);
        let s = Arc::new(b.finish().unwrap());
        let db = Database::new(Arc::clone(&s));
        (s, db)
    }

    #[test]
    fn rollback_restores_first_image() {
        let (s, db) = setup();
        let a = s.class_by_name("a").unwrap();
        let x = s.resolve_field(a, "x").unwrap();
        let o = db.create(a);
        db.write(o, x, Value::Int(1)).unwrap();

        let mut log = UndoLog::new();
        // Transaction writes x twice; only the first before-image counts.
        assert!(log.record(o, x, db.read(o, x).unwrap()));
        db.write(o, x, Value::Int(2)).unwrap();
        assert!(!log.record(o, x, db.read(o, x).unwrap()));
        db.write(o, x, Value::Int(3)).unwrap();

        assert_eq!(log.rollback(&db), 1);
        assert_eq!(db.read(o, x), Ok(Value::Int(1)));
        assert!(log.is_empty());
    }

    #[test]
    fn rollback_is_reverse_order_across_fields() {
        let (s, db) = setup();
        let a = s.class_by_name("a").unwrap();
        let x = s.resolve_field(a, "x").unwrap();
        let y = s.resolve_field(a, "y").unwrap();
        let o = db.create(a);
        db.write(o, x, Value::Int(10)).unwrap();
        db.write(o, y, Value::str("ten")).unwrap();

        let mut log = UndoLog::new();
        log.record_projection(&db, o, [x, y]).unwrap();
        db.write(o, x, Value::Int(99)).unwrap();
        db.write(o, y, Value::str("smash")).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.rollback(&db), 2);
        assert_eq!(db.read(o, x), Ok(Value::Int(10)));
        assert_eq!(db.read(o, y), Ok(Value::str("ten")));
    }

    #[test]
    fn projection_skips_already_seen_and_invisible() {
        let (s, db) = setup();
        let a = s.class_by_name("a").unwrap();
        let x = s.resolve_field(a, "x").unwrap();
        let o = db.create(a);
        let mut log = UndoLog::new();
        assert_eq!(log.record_projection(&db, o, [x]).unwrap(), 1);
        assert_eq!(log.record_projection(&db, o, [x]).unwrap(), 0);
    }

    #[test]
    fn clear_on_commit() {
        let (s, db) = setup();
        let a = s.class_by_name("a").unwrap();
        let x = s.resolve_field(a, "x").unwrap();
        let o = db.create(a);
        let mut log = UndoLog::new();
        log.record(o, x, Value::Int(0));
        db.write(o, x, Value::Int(7)).unwrap();
        log.clear();
        assert_eq!(log.rollback(&db), 0, "cleared log undoes nothing");
        assert_eq!(db.read(o, x), Ok(Value::Int(7)));
    }

    #[test]
    fn rollback_survives_deleted_instance() {
        let (s, db) = setup();
        let a = s.class_by_name("a").unwrap();
        let x = s.resolve_field(a, "x").unwrap();
        let o = db.create(a);
        let mut log = UndoLog::new();
        log.record(o, x, Value::Int(0));
        db.delete(o).unwrap();
        assert_eq!(log.rollback(&db), 0);
    }

    #[test]
    fn redo_projection_reads_after_images() {
        let (s, db) = setup();
        let a = s.class_by_name("a").unwrap();
        let x = s.resolve_field(a, "x").unwrap();
        let y = s.resolve_field(a, "y").unwrap();
        let o = db.create(a);
        let mut log = UndoLog::new();
        log.record_projection(&db, o, [x, y]).unwrap();
        db.write(o, x, Value::Int(42)).unwrap();
        db.write(o, y, Value::str("after")).unwrap();
        let redo = log.redo_projection(&db);
        assert_eq!(redo.len(), 2);
        assert!(redo.contains(&FieldImage {
            oid: o,
            field: x,
            value: Value::Int(42)
        }));
        assert!(redo.contains(&FieldImage {
            oid: o,
            field: y,
            value: Value::str("after")
        }));
        // Before-images are untouched: rollback still restores.
        assert_eq!(log.images().len(), 2);
        assert_eq!(log.rollback(&db), 2);
        assert_eq!(db.read(o, x), Ok(Value::Int(0)));
    }
}
