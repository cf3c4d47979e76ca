//! Integration-aware legalization (paper §IV-C2, Algorithm 1).
//!
//! Global placement leaves instances at continuous, possibly overlapping
//! positions. Legalization proceeds in the paper's three phases:
//!
//! 1. **Qubit legalization** — greedy spiral search to the nearest free
//!    site per qubit, followed by a min-cost-flow reassignment that
//!    minimizes total displacement ([`mcmf`]).
//! 2. **Segment legalization** — a Tetris-style left-to-right sweep
//!    placing resonator segments at their nearest free spots.
//! 3. **Resonator integration** (Algorithm 1) — every resonator's
//!    segments must form one contiguous cluster; resonators that fail
//!    grow their largest cluster by relocating or swapping scattered
//!    segments, gated by the resonance checker τ.
//!
//! # Examples
//!
//! ```
//! use qplacer_freq::FrequencyAssigner;
//! use qplacer_legal::Legalizer;
//! use qplacer_netlist::{NetlistConfig, QuantumNetlist};
//! use qplacer_place::{GlobalPlacer, PlacerConfig};
//! use qplacer_topology::Topology;
//!
//! let device = Topology::grid(2, 2);
//! let freqs = FrequencyAssigner::paper_defaults().assign(&device);
//! let mut netlist = QuantumNetlist::build(&device, &freqs, &NetlistConfig::default());
//! GlobalPlacer::new(PlacerConfig::fast()).execute(&mut netlist, Default::default());
//! let report = Legalizer::default().run(&mut netlist);
//! assert_eq!(report.remaining_overlaps, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abacus;
mod bitmap;
mod integration;
mod legalizer;
pub mod mcmf;
mod qubits;
mod resonance;
mod tetris;
mod workspace;

pub use abacus::legalize_qubits_abacus;
pub use bitmap::OccupancyBitmap;
pub use legalizer::{LegalReport, Legalizer, QubitLegalizerKind};
pub use resonance::ResonanceTracker;
pub use workspace::LegalWorkspace;
