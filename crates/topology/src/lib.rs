//! Quantum device connectivity topologies (paper Table I).
//!
//! A [`Topology`] is an undirected graph whose vertices are physical
//! qubits and whose edges are qubit couplings — each edge is realized on
//! chip by a bus resonator. The crate provides the six device families the
//! paper evaluates:
//!
//! | Generator | Qubits | Paper description |
//! |---|---|---|
//! | [`Topology::grid`] (5×5) | 25 | QEC-friendly grid (Google Sycamore-style) |
//! | [`Topology::falcon27`] | 27 | IBM Falcon heavy-hex |
//! | [`Topology::eagle127`] | 127 | IBM Eagle heavy-hex |
//! | [`Topology::aspen`] (1×5) | 40 | Rigetti Aspen-11 octagons |
//! | [`Topology::aspen`] (2×5) | 80 | Rigetti Aspen-M octagons |
//! | [`Topology::xtree`] (4,3,3) | 53 | Pauli-string-efficient X-tree |
//!
//! Beyond the paper's six devices, the zoo adds parametric families:
//! [`Topology::heavy_hex`] at arbitrary distance (d = 5 *is* Eagle;
//! d = 10/16 reach Osprey/Condor scale), [`Topology::ring`] and
//! [`Topology::ladder`] couplers, seeded fabrication defects
//! ([`DefectMap`], [`Topology::with_yield`],
//! [`Topology::largest_connected_component`]), and a JSON
//! calibration-data import/export ([`Topology::from_json`],
//! [`Topology::to_json`]).
//!
//! # Examples
//!
//! ```
//! use qplacer_topology::Topology;
//! let falcon = Topology::falcon27();
//! assert_eq!(falcon.num_qubits(), 27);
//! assert_eq!(falcon.num_edges(), 28);
//! assert!(falcon.is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chiplet;
mod defects;
mod delta;
mod generators;
mod graph;
mod json;
mod sampling;

pub use defects::DefectMap;
pub use delta::TopologyDelta;
pub use graph::{DeviceClass, Topology, TopologyError, MAX_DEVICE_QUBITS};
pub use sampling::random_connected_subset;
