//! Superconducting-circuit physics models for QPlacer.
//!
//! This crate is the quantitative substrate behind the paper's §II–III:
//! fixed-frequency transmon qubits, coplanar-waveguide resonators, their
//! couplings, and the error channels that the fidelity metric (Eq. 15)
//! integrates. The paper derives these from the Jaynes–Cummings
//! Hamiltonian and Qiskit-Metal EM simulation; here every relationship is
//! an explicit, documented analytic model, so the whole pipeline builds
//! and runs offline without an EM solver or a Hamiltonian simulator.
//!
//! * [`Frequency`] — strongly-typed GHz values with detuning helpers.
//! * [`Transmon`] / [`Resonator`] — component models (geometry,
//!   capacitance, frequency).
//! * [`capacitance`] — the distance-dependent parasitic capacitance
//!   `C_p(d)` replacing Qiskit-Metal extraction (Fig. 5-b, 6-c).
//! * [`coupling`] — resonant coupling `g`, dispersive `g²/Δ`, the smooth
//!   crossover `g_eff(Δ)` (Fig. 4), and qubit/resonator variants.
//! * [`error`] — Rabi crosstalk error (Eq. 16), T1/T2 decoherence, and
//!   base gate errors.
//! * [`rip`] — resonator-induced-phase gate rate (Eq. 2) and CZ gate time.
//!
//! # Examples
//!
//! ```
//! use qplacer_physics::{coupling, Frequency};
//!
//! let g = Frequency::from_mhz(25.0);
//! // On resonance the full coupling acts; far detuned it collapses to g²/Δ.
//! let resonant = coupling::effective_coupling(g, Frequency::from_ghz(0.0));
//! let detuned = coupling::effective_coupling(g, Frequency::from_ghz(0.5));
//! assert!((resonant.ghz() - g.ghz()).abs() < 1e-12);
//! assert!(detuned.ghz() < 0.1 * g.ghz());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacitance;
pub mod constants;
pub mod coupling;
pub mod dynamics;
pub mod error;
pub mod rip;
pub mod substrate;

mod resonator;
mod transmon;
mod units;

pub use resonator::Resonator;
pub use transmon::Transmon;
pub use units::{Capacitance, Duration, Frequency};
