//! The frequency-aware electrostatic placement engine (paper §IV-C1).
//!
//! This crate is the paper's central contribution: an ePlace-style
//! analytical global placer whose objective (Eq. 14) combines
//!
//! * smooth **wirelength** `W(x, y)` — keeps the layout compact,
//! * an electrostatic **density** penalty `λ·D(x, y)` — spreads instances
//!   below the target density via a spectrally-solved Poisson system,
//! * the novel **frequency repulsion** penalty `λ_f·F(x, y)` — a 1/d²
//!   force acting only between near-resonant instances from different
//!   resonators (Eqs. 9–10), swept band by band over the collision
//!   map's partners ([`FrequencyForce`]).
//!
//! Minimization uses Nesterov acceleration with Barzilai–Borwein steps;
//! both penalty weights grow geometrically so the engine glides from
//! area-first to constraint-first optimization, exactly as described in
//! §IV-C1. Disabling the frequency term yields the paper's "Classic"
//! baseline (DREAMPlace-like).
//!
//! For Condor-scale devices, setting [`PlacerConfig::levels`] above one
//! runs a multilevel V-cycle: the netlist is coarsened by
//! frequency-compatible heavy-edge matching
//! ([`qplacer_netlist::QuantumNetlist::coarsen`]), the coarsest level
//! is placed on a proportionally smaller 2/3/5-smooth bin grid, and the
//! solution is projected and refined back down to full resolution.
//!
//! # Examples
//!
//! ```
//! use qplacer_freq::FrequencyAssigner;
//! use qplacer_netlist::{NetlistConfig, QuantumNetlist};
//! use qplacer_place::{GlobalPlacer, PlacerConfig};
//! use qplacer_topology::Topology;
//!
//! let device = Topology::grid(2, 2);
//! let freqs = FrequencyAssigner::paper_defaults().assign(&device);
//! let mut netlist = QuantumNetlist::build(&device, &freqs, &NetlistConfig::default());
//! let report =
//!     GlobalPlacer::new(PlacerConfig::fast()).execute(&mut netlist, Default::default());
//! assert!(report.iterations > 0);
//! assert!(report.final_overflow < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod density;
mod freqforce;
mod multilevel;
mod placer;
mod wirelength;

pub use density::{DensityModel, DensityWorkspace};
pub use freqforce::FrequencyForce;
pub use multilevel::coarsen_hierarchy;
pub use placer::{ExecOptions, GlobalPlacer, PlacementReport, PlacerConfig, PlacerWorkspace};
pub use wirelength::{exact_hpwl, WirelengthModel};
