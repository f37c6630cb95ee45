//! # finecc-core — access vectors, TAVs, and commutativity matrices
//!
//! The paper's primary contribution (Sections 4–5.1), implemented exactly:
//!
//! * [`mode`] — the mode lattice `Null < Read < Write` and the classical
//!   compatibility relation of **Table 1** (Definition 2).
//! * [`av`] — **access vectors** (Definition 3) with the lattice join
//!   (Definition 4) and the commutativity relation (Definition 5).
//! * [`mod@extract`] — per-definition **direct access vectors** plus the
//!   `DSC`/`PSC` self-call sets (Definitions 6–8), derived from the
//!   `finecc-lang` static analysis.
//! * [`graph`] — the per-class **late-binding resolution graph**
//!   (Definition 9), with a DOT export reproducing **Figure 2**.
//! * [`tarjan`] — iterative Tarjan strong-components (the paper cites
//!   [Tarjan 72] for the linear-time algorithm).
//! * [`compiler`] — **transitive access vectors** (Definition 10) via a
//!   single SCC pass per class, and [`compile`], the end-to-end schema
//!   compiler.
//! * [`commut`] — the generated per-class commutativity matrices
//!   (**Table 2**), i.e. the translation of access vectors into plain
//!   access modes (§5.1) so run-time checks are one table lookup.
//!
//! The recovery remark at the end of §3 — a transitive access vector's
//! write fields as the projection pattern for before-images — is
//! `finecc-store`'s `UndoLog::record_projection` over
//! [`AccessVector::write_fields`].

#![forbid(unsafe_code)]

pub mod adhoc;
pub mod av;
pub mod commut;
pub mod compiler;
pub mod error;
pub mod extract;
pub mod graph;
pub mod incremental;
pub mod mode;
pub mod tarjan;

pub use adhoc::{AdHocError, AdHocRelations, AppliedReport};
pub use av::AccessVector;
pub use commut::ClassTable;
pub use compiler::{compile, CompiledSchema};
pub use error::CompileError;
pub use extract::{extract, Extraction};
pub use graph::LbrGraph;
pub use incremental::{recompile, RecompileReport};
pub use mode::AccessMode;
