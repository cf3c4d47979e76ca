//! NISQ benchmark circuits, routing, and scheduling (paper §V-A, Table I).
//!
//! The fidelity metric (Eq. 15) evaluates *programs*, not bare layouts:
//! each benchmark is generated as a logical circuit, mapped onto a
//! connected subset of physical qubits, routed to respect the device
//! coupling graph, lightly optimized (the paper uses Qiskit's L3 preset;
//! Qiskit is not available to a pure-Rust build, so we substitute a
//! peephole pass), and scheduled so the error model knows how long each
//! qubit is busy and idle.
//!
//! * [`Gate`] / [`Circuit`] — the gate set and circuit container.
//! * [`generators`] — BV, QAOA, Ising, QGAN (Table I benchmarks) plus
//!   the zoo families GHZ and quantum volume, all resolvable by name
//!   at any size via [`benchmark_by_name`].
//! * [`Router`] — greedy shortest-path swap insertion (SABRE-flavored
//!   lookahead) producing a physical-qubit circuit.
//! * [`optimize_peephole`] — gate cancellation/merging.
//! * [`Schedule`] — ASAP schedule with per-qubit busy/idle accounting.
//!
//! # Examples
//!
//! ```
//! use qplacer_circuits::{generators, Router, Schedule};
//! use qplacer_topology::Topology;
//!
//! let device = Topology::falcon27();
//! let circuit = generators::bv(4);
//! let subset: Vec<usize> = vec![0, 1, 2, 4];
//! let routed = Router::new(&device).route(&circuit, &subset).unwrap();
//! let schedule = Schedule::asap(&routed);
//! assert!(schedule.total_duration().ns() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod gate;
pub mod generators;
mod optimizer;
mod router;
mod sabre;
mod schedule;

pub use circuit::Circuit;
pub use gate::Gate;
pub use optimizer::optimize_peephole;
pub use router::{RoutedCircuit, Router, RoutingError};
pub use sabre::SabreRouter;
pub use schedule::Schedule;

/// A named benchmark: its Table-I label and generated circuit.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Display name (e.g. `"bv-9"`).
    pub name: String,
    /// The logical circuit.
    pub circuit: Circuit,
}

/// The paper's benchmark suite (Table I): BV-4/9/16, QAOA-4/9, Ising-4,
/// QGAN-4/9, in Fig. 11's column order.
///
/// # Examples
///
/// ```
/// let suite = qplacer_circuits::paper_suite();
/// assert_eq!(suite.len(), 8);
/// assert_eq!(suite[0].name, "bv-4");
/// ```
#[must_use]
pub fn paper_suite() -> Vec<Benchmark> {
    let mk = |name: &str, circuit: Circuit| Benchmark {
        name: name.to_string(),
        circuit,
    };
    vec![
        mk("bv-4", generators::bv(4)),
        mk("bv-9", generators::bv(9)),
        mk("bv-16", generators::bv(16)),
        mk("qaoa-4", generators::qaoa(4, 2, 11)),
        mk("qaoa-9", generators::qaoa(9, 2, 13)),
        mk("ising-4", generators::ising(4, 3)),
        mk("qgan-4", generators::qgan(4, 2)),
        mk("qgan-9", generators::qgan(9, 2)),
    ]
}

/// Largest qubit count [`benchmark_by_name`] will generate — a guard
/// against typo'd workload sizes allocating absurd circuits.
pub const MAX_BENCHMARK_QUBITS: usize = 4096;

/// Resolves any `<family>-<qubits>` workload name: the Table-I names
/// (at their exact paper parameters) plus the parametric zoo families
/// sized to any device — `bv-N`, `qaoa-N` (2 ring layers), `ising-N`
/// (3 Trotter steps), `qgan-N` (2 layers), `ghz-N`, and `qv-N`
/// (quantum volume, depth = N). Returns `None` for unknown families,
/// malformed sizes, sizes below the family minimum, or sizes above
/// [`MAX_BENCHMARK_QUBITS`].
///
/// # Examples
///
/// ```
/// let b = qplacer_circuits::benchmark_by_name("ghz-12").unwrap();
/// assert_eq!(b.circuit.num_qubits(), 12);
/// // Paper names resolve to their exact Table-I circuits.
/// let qaoa = qplacer_circuits::benchmark_by_name("qaoa-4").unwrap();
/// assert_eq!(qaoa.circuit, qplacer_circuits::paper_suite()[3].circuit);
/// assert!(qplacer_circuits::benchmark_by_name("teleport-9").is_none());
/// ```
#[must_use]
pub fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    // Paper names win, at their exact paper parameters.
    if let Some(b) = paper_suite().into_iter().find(|b| b.name == name) {
        return Some(b);
    }
    let (family, size) = name.rsplit_once('-')?;
    let n: usize = size.parse().ok()?;
    if n > MAX_BENCHMARK_QUBITS {
        return None;
    }
    let circuit = match family {
        "bv" if n >= 2 => generators::bv(n),
        // Seed derived from the size so every ring instance is distinct
        // but reproducible (the paper's qaoa-4/9 resolve above).
        "qaoa" if n >= 3 => generators::qaoa(n, 2, 0x0A0A ^ n as u64),
        "ising" if n >= 2 => generators::ising(n, 3),
        "qgan" if n >= 2 => generators::qgan(n, 2),
        "ghz" if n >= 2 => generators::ghz(n),
        "qv" if n >= 2 => generators::qv(n, 0x5176 ^ n as u64),
        _ => return None,
    };
    Some(Benchmark {
        name: name.to_string(),
        circuit,
    })
}
