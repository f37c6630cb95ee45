//! # finecc — automating fine concurrency control in object-oriented databases
//!
//! A faithful, production-quality Rust implementation of
//! **Malta & Martinez, "Automating Fine Concurrency Control in
//! Object-Oriented Databases" (ICDE 1993)**: compile-time extraction of
//! method **access vectors**, linear-time computation of **transitive
//! access vectors** over the late-binding resolution graph, automatic
//! generation of per-class **commutativity matrices**, and a strict-2PL
//! locking protocol over inheritance graphs that uses those matrices as
//! plain access modes — plus the read/write, relational-decomposition and
//! run-time field-locking baselines the paper compares against.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names.
//!
//! ```
//! use finecc::prelude::*;
//!
//! // Parse the paper's Figure 1 program and compile it.
//! let (schema, bodies) = finecc::lang::build_schema(finecc::lang::parser::FIGURE1_SOURCE)?;
//! let compiled = compile(&schema, &bodies)?;
//!
//! // Table 2 of the paper: the generated commutativity matrix of class c2.
//! let c2 = schema.class_by_name("c2").unwrap();
//! let table = compiled.class(c2);
//! assert!(!table.commute_names("m1", "m2").unwrap()); // conflict
//! assert!(table.commute_names("m2", "m4").unwrap());  // parallel!
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

/// The object-oriented data model (classes, fields, inheritance, instances).
pub mod model {
    pub use finecc_model::*;
}

/// The method language: parser, static analysis, interpreter.
pub mod lang {
    pub use finecc_lang::*;
}

/// The paper's contribution: access vectors, TAVs, commutativity matrices.
pub mod core {
    pub use finecc_core::*;
}

/// The in-memory object store with access-vector-projected undo logging.
pub mod store {
    pub use finecc_store::*;
}

/// Observability: latency histograms, contention heat maps, tracing.
pub mod obs {
    pub use finecc_obs::*;
}

/// The generic lock manager (mode tables, 2PL, deadlock detection).
pub mod lock {
    pub use finecc_lock::*;
}

/// The multi-version heap (version chains, snapshots, epoch GC).
pub mod mvcc {
    pub use finecc_mvcc::*;
}

/// The durability subsystem (field-granular redo log, group commit,
/// checkpoints, crash recovery).
pub mod wal {
    pub use finecc_wal::*;
}

/// Executable concurrency-control schemes (TAV, RW, relational, field
/// locks, MVCC).
pub mod runtime {
    pub use finecc_runtime::*;
}

/// Workload generation, concurrent execution, metrics, paper scenarios.
pub mod sim {
    pub use finecc_sim::*;
}

/// The deterministic fault-injection harness (virtual-time scheduler,
/// fault plane, schedule minimization). Scenario-level machinery —
/// explorer, invariants, repro files — lives in [`sim::chaos`].
pub mod chaos {
    pub use finecc_chaos::*;
}

/// The most commonly used items, in one import.
pub mod prelude {
    pub use finecc_core::{compile, AccessMode, AccessVector, ClassTable, CompiledSchema};
    pub use finecc_lang::{build_schema, Builtins, Interpreter};
    pub use finecc_model::{
        ClassId, FieldId, FieldType, MethodId, Oid, Schema, SchemaBuilder, TxnId, Value,
    };
}
