//! Per-object / per-field contention attribution.
//!
//! Every blocking or aborting interaction in the runtime has a
//! *causing* object: the instance whose lock was held, the OID whose
//! version chain refused a write, the record an SSI pivot read. The
//! [`ContentionRegistry`] attributes each such event to an [`ObjKey`]
//! in a striped hash map of exact event counts, so experiments can
//! render a "hottest objects" table ([`ContentionRegistry::top_k`]:
//! cumulative totals since startup, deterministic and
//! time-independent).
//!
//! The registry sits off the hot path by construction: it is only
//! touched when something already went wrong (a block, a conflict, an
//! abort), never on a granted lock or a read.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Contention event classes tracked per object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContentionKind {
    /// A lock request blocked on this resource (lock schemes).
    LockBlock = 0,
    /// A first-updater-wins write-write conflict on this OID (mvcc).
    WwConflict = 1,
    /// An SSI dangerous-structure abort attributed to this OID
    /// (mvcc-ssi).
    SsiAbort = 2,
}

/// Number of [`ContentionKind`] classes.
pub const KIND_COUNT: usize = 3;

impl ContentionKind {
    /// All classes, in counter order.
    pub const ALL: [ContentionKind; KIND_COUNT] = [
        ContentionKind::LockBlock,
        ContentionKind::WwConflict,
        ContentionKind::SsiAbort,
    ];

    /// Stable snake_case name for tables and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            ContentionKind::LockBlock => "lock_blocks",
            ContentionKind::WwConflict => "ww_conflicts",
            ContentionKind::SsiAbort => "ssi_aborts",
        }
    }
}

/// The object (or finer granule) a contention event is attributed to.
///
/// Raw integers rather than `finecc-model` newtypes so this crate sits
/// below every other crate in the dependency graph; callers convert
/// with `.raw()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjKey {
    /// One instance, by OID.
    Instance(u64),
    /// One field of one instance (the field-locking baseline's
    /// granule).
    Field(u64, u32),
    /// A class-level resource: explicit class locks, relation locks.
    Class(u32),
    /// Contention with no single causing object (e.g. an SSI abort of
    /// a read-only pivot).
    Unattributed,
}

impl ObjKey {
    /// The instance OID this key refers to, when it has one (fields
    /// belong to their instance; class-level keys do not).
    pub fn oid(self) -> Option<u64> {
        match self {
            ObjKey::Instance(o) | ObjKey::Field(o, _) => Some(o),
            _ => None,
        }
    }

    fn stripe_hash(self) -> usize {
        match self {
            ObjKey::Instance(o) => o as usize,
            ObjKey::Field(o, f) => (o ^ ((f as u64) << 32) ^ 0x9e37) as usize,
            ObjKey::Class(c) => c as usize ^ 0x5bd1,
            ObjKey::Unattributed => usize::MAX,
        }
    }
}

impl fmt::Display for ObjKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjKey::Instance(o) => write!(f, "oid:{o}"),
            ObjKey::Field(o, fid) => write!(f, "oid:{o}.f#{fid}"),
            ObjKey::Class(c) => write!(f, "class:{c}"),
            ObjKey::Unattributed => f.write_str("(unattributed)"),
        }
    }
}

/// One row of the hottest-objects table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HotObject {
    /// The attributed object.
    pub key: ObjKey,
    /// Event counts indexed by [`ContentionKind`].
    pub counts: [u64; KIND_COUNT],
}

impl HotObject {
    /// Total contention events on this object.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Count for one class.
    pub fn count(&self, kind: ContentionKind) -> u64 {
        self.counts[kind as usize]
    }
}

/// Stripes the registry's map is split over.
const STRIPES: usize = 64;

/// Striped, OID-keyed contention counters.
pub struct ContentionRegistry {
    stripes: Vec<Mutex<HashMap<ObjKey, [u64; KIND_COUNT]>>>,
}

impl Default for ContentionRegistry {
    fn default() -> Self {
        ContentionRegistry::new()
    }
}

impl ContentionRegistry {
    /// An empty registry.
    pub fn new() -> ContentionRegistry {
        ContentionRegistry {
            stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Attributes one event to `key`. Locks one stripe briefly; called
    /// only on contention paths.
    pub fn record(&self, key: ObjKey, kind: ContentionKind) {
        let mut map = self.stripes[key.stripe_hash() % STRIPES]
            .lock()
            .expect("contention stripe poisoned");
        map.entry(key).or_insert([0; KIND_COUNT])[kind as usize] += 1;
    }

    /// Per-class totals summed across every stripe (the invariant the
    /// tests pin: these equal the scheme-level counters).
    pub fn totals(&self) -> [u64; KIND_COUNT] {
        let mut out = [0u64; KIND_COUNT];
        for stripe in &self.stripes {
            let map = stripe.lock().expect("contention stripe poisoned");
            for counts in map.values() {
                for (o, c) in out.iter_mut().zip(counts.iter()) {
                    *o += c;
                }
            }
        }
        out
    }

    /// The `k` hottest objects by cumulative total events, hottest
    /// first (ties broken by key for determinism). Exact and
    /// time-independent.
    pub fn top_k(&self, k: usize) -> Vec<HotObject> {
        let mut all: Vec<HotObject> = Vec::new();
        for stripe in &self.stripes {
            let map = stripe.lock().expect("contention stripe poisoned");
            all.extend(map.iter().map(|(&key, &counts)| HotObject { key, counts }));
        }
        all.sort_by(|a, b| b.total().cmp(&a.total()).then(a.key.cmp(&b.key)));
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_attribute_and_rank() {
        let r = ContentionRegistry::new();
        for _ in 0..5 {
            r.record(ObjKey::Instance(7), ContentionKind::LockBlock);
        }
        r.record(ObjKey::Instance(9), ContentionKind::WwConflict);
        r.record(ObjKey::Field(7, 2), ContentionKind::SsiAbort);
        let top = r.top_k(10);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].key, ObjKey::Instance(7));
        assert_eq!(top[0].count(ContentionKind::LockBlock), 5);
        assert_eq!(r.totals(), [5, 1, 1]);
    }

    #[test]
    fn top_k_truncates_deterministically() {
        let r = ContentionRegistry::new();
        for oid in 0..100u64 {
            r.record(ObjKey::Instance(oid), ContentionKind::WwConflict);
        }
        let top = r.top_k(8);
        assert_eq!(top.len(), 8);
        // Equal totals: ordered by key.
        assert_eq!(top[0].key, ObjKey::Instance(0));
        assert_eq!(top[7].key, ObjKey::Instance(7));
    }
}
