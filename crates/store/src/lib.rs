//! # finecc-store — the in-memory object base
//!
//! A thread-safe object store for the OODB: a sharded heap of
//! [`finecc_model::Instance`]s keyed by OID, per-class extents (shallow
//! and deep/domain, the units the §5.2 locking protocol targets), typed
//! field access, and an undo log whose granularity follows the paper's
//! recovery remark — before-images are *projections through access
//! vectors*, not whole-instance copies.

#![forbid(unsafe_code)]

pub mod db;
pub mod error;
pub mod integrity;
pub mod undo;

pub use db::Database;
pub use error::StoreError;
pub use integrity::{check as check_integrity, repair_dangling, Violation};
pub use undo::{FieldImage, UndoLog};
