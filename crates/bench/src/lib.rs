//! Experiment harness shared by the benchmark binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§VI); this library hosts the shared experiment
//! drivers so binaries stay thin. Binaries are named after what they
//! regenerate (`fig11_fidelity` is Fig. 11, `tab02_runtime` Table II);
//! the README's "Regenerating the evaluation" section shows how to run
//! them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;

pub use runner::{run_all_strategies, StrategyOutcome};
