//! First-class read snapshots.

use crate::heap::{EpochHandle, MvccHeap};
use crate::Ts;
use finecc_model::{FieldId, Oid, Value};
use finecc_store::StoreError;
use std::sync::Arc;

/// A stable, read-only view of the heap as of one commit timestamp.
///
/// Snapshot reads take **no logical locks** and never block writers;
/// writers never block snapshot readers. While the snapshot is alive it
/// is registered with the heap's sharded epoch table, pinning the
/// version records it may still need; dropping it releases them for GC.
pub struct Snapshot {
    heap: Arc<MvccHeap>,
    epoch: EpochHandle,
}

impl Snapshot {
    pub(crate) fn new(heap: Arc<MvccHeap>, epoch: EpochHandle) -> Snapshot {
        Snapshot { heap, epoch }
    }

    /// The commit timestamp this snapshot observes.
    pub fn ts(&self) -> Ts {
        self.epoch.ts
    }

    /// Reads one field as of the snapshot.
    pub fn read(&self, oid: Oid, field: FieldId) -> Result<Value, StoreError> {
        self.heap.walk(self.epoch.ts, None, oid, field, None)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.heap.release_snapshot(self.epoch);
    }
}
