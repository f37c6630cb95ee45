//! # finecc-model — the object-oriented data model
//!
//! This crate implements the data model of Section 2 of Malta & Martinez
//! (ICDE'93): a class-based model with instances, simple and multiple
//! inheritance, instance variables ("fields") that are either base-typed or
//! references to other instances, and methods that may be inherited or
//! overridden.
//!
//! The model is deliberately the "highest common factor" the paper targets
//! (Smalltalk, ORION, O2, GemStone, ObjectStore, VBASE): one class per
//! instance, no metaclasses, no multiple instantiation.
//!
//! The central type is [`Schema`], built through [`SchemaBuilder`]. A schema
//! owns:
//!
//! * classes ([`ClassId`]) related by inheritance, each with a C3
//!   linearization used for field and method resolution,
//! * globally identified fields ([`FieldId`]) — an inherited field keeps the
//!   `FieldId` of its defining class, which is what makes the paper's access
//!   vectors line up across a hierarchy,
//! * method *definition sites* ([`MethodId`]) — `METHODS(C)` maps a method
//!   name to the nearest definition in `C`'s linearization, i.e. late
//!   binding resolved at the class level.
//!
//! Method *bodies* are not stored here; they live in `finecc-lang`
//! (source ASTs and their resolved form) keyed by [`MethodId`], keeping
//! this crate independent of the language.
//!
//! [`hash`] holds the one hasher every map keyed by these identifiers
//! shares ([`MulMap`], [`MulSet`]); its module docs state the
//! precondition — keys drawn by this program, never by a client.

#![forbid(unsafe_code)]

pub mod error;
pub mod hash;
pub mod ids;
pub mod instance;
pub mod schema;
pub mod types;
pub mod value;

pub use error::ModelError;
pub use hash::{BuildMulHasher, MulHasher, MulMap, MulSet};
pub use ids::{ClassId, FieldId, MethodId, Oid, TxnId};
pub use instance::Instance;
pub use schema::{ClassInfo, FieldInfo, MethodInfo, MethodSig, Schema, SchemaBuilder};
pub use types::FieldType;
pub use value::Value;
