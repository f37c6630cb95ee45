//! # finecc-sim — workloads, scenarios, and the concurrent executor
//!
//! Everything the experiments need beyond the library itself:
//!
//! * [`figure1`] — the paper's running example as a reusable fixture
//!   (schema source, populated databases, and a no-key-write variant for
//!   the §5.2 relational remark).
//! * [`scenarios`] — the T1–T4 machinery of §5.2: runs each transaction's
//!   lock acquisition against a scheme and probes pairwise compatibility,
//!   reproducing the paper's "either T1‖T3‖T4 or T2‖T3‖T4" result and the
//!   baselines' weaker outcomes.
//! * [`workload`] — seeded random schema/program generation (inheritance
//!   chains, overrides, self-call graphs) and transaction mixes with
//!   hot-spot skew.
//! * [`exec`] — a multi-threaded transaction executor that counts
//!   commits, exhausted retry budgets, failures and retries.
//! * [`history`] — the one isolation checker: a recorded history of
//!   attempts (reads and writes with their values, read point, commit
//!   order) replayed against the committed state and searched for
//!   dependency cycles, every violation named by its Adya class; the
//!   [`history::Recorded`] scheme wrapper records at the `CcScheme` seam.
//! * [`chaos`] — deterministic fault-injection scenarios over the
//!   `finecc-chaos` harness: seeded schedule exploration across all six
//!   schemes, invariant checking (the history check, watermark
//!   monotonicity, recovery = committed prefix), greedy schedule
//!   minimization, and replayable repro files.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod exec;
pub mod figure1;
pub mod history;
pub mod scenarios;
pub mod workload;

pub use chaos::{
    minimize, read_repro, replay_repro, run_chaos, write_repro, Anomaly, ChaosOp, ChaosReport,
    ChaosScenario,
};
pub use exec::{run_concurrent, ExecReport};
pub use scenarios::{scenario_outcomes, ScenarioOutcome, TxnKind};
pub use workload::{GeneratedWorkload, SchemaGenConfig, TxnMix, WorkloadConfig};
