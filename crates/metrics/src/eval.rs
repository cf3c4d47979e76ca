//! Benchmark-level evaluation: many random subsets, averaged fidelity
//! (the Fig. 11 protocol).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use qplacer_circuits::{optimize_peephole, Circuit, Router, Schedule};
use qplacer_netlist::QuantumNetlist;
use qplacer_topology::{random_connected_subset, Topology};

use crate::fidelity::{FidelityModel, FidelityParams};
use crate::hotspot::HotspotReport;

/// Aggregated evaluation of one benchmark on one placed layout.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BenchmarkEvaluation {
    /// Fidelity per evaluated subset.
    pub fidelities: Vec<f64>,
    /// `ln F` per evaluated subset ([`FidelityBreakdown::log_fidelity`]),
    /// finite where the matching entry of `fidelities` underflows to 0.
    ///
    /// [`FidelityBreakdown::log_fidelity`]: crate::FidelityBreakdown::log_fidelity
    pub log_fidelities: Vec<f64>,
    /// Arithmetic mean fidelity (the Fig. 11 bar value).
    pub mean_fidelity: f64,
    /// Worst subset fidelity.
    pub min_fidelity: f64,
    /// Mean number of crosstalk-contributing violations per subset.
    pub mean_active_violations: f64,
    /// Subsets the caller asked for.
    pub requested_subsets: usize,
    /// Draws where no connected subset of the circuit's size exists
    /// (circuit too large for the device).
    pub skipped_too_large: usize,
    /// Sampled subsets the router could not route the circuit onto.
    pub skipped_unroutable: usize,
}

impl BenchmarkEvaluation {
    /// Total subsets skipped for any reason.
    #[must_use]
    pub fn skipped_subsets(&self) -> usize {
        self.skipped_too_large + self.skipped_unroutable
    }
}

// Hand-written so that evaluations serialized before `log_fidelities`
// existed keep deserializing, with `ln` of each fidelity in its place;
// the vendored serde derive has no `#[serde(default)]`.
impl Deserialize for BenchmarkEvaluation {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = value
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "BenchmarkEvaluation"))?;
        let field = |key: &str| serde::Value::field(map, key);
        let fidelities: Vec<f64> = Deserialize::from_value(field("fidelities")?)?;
        let log_fidelities = match map.iter().find(|(k, _)| k.as_str() == "log_fidelities") {
            Some((_, v)) => Deserialize::from_value(v)?,
            None => fidelities.iter().map(|f| f.ln()).collect(),
        };
        Ok(Self {
            fidelities,
            log_fidelities,
            mean_fidelity: Deserialize::from_value(field("mean_fidelity")?)?,
            min_fidelity: Deserialize::from_value(field("min_fidelity")?)?,
            mean_active_violations: Deserialize::from_value(field("mean_active_violations")?)?,
            requested_subsets: Deserialize::from_value(field("requested_subsets")?)?,
            skipped_too_large: Deserialize::from_value(field("skipped_too_large")?)?,
            skipped_unroutable: Deserialize::from_value(field("skipped_unroutable")?)?,
        })
    }
}

/// Evaluates `circuit` on `num_subsets` random connected subsets of the
/// device (the paper uses 50), with routing, peephole optimization (the
/// Qiskit-L3 substitute), ASAP scheduling, and the Eq. 15 fidelity model.
/// Subsets are drawn from `seed` so that all placers can be compared on
/// identical mappings, exactly as §VI-A requires.
///
/// Subsets that fail to route (e.g. the circuit needs more qubits than
/// the device has) are skipped and counted in
/// [`BenchmarkEvaluation::skipped_too_large`] /
/// [`BenchmarkEvaluation::skipped_unroutable`]; the fidelity statistics
/// cover whatever remains.
///
/// The layout's spatial violations depend on the layout alone, so
/// [`HotspotReport::scan`] runs once per call and every subset reads
/// that one report. Subsets are drawn from `seed` and evaluated in draw
/// order on the calling thread.
///
/// # Examples
///
/// ```
/// use qplacer_circuits::generators;
/// use qplacer_freq::FrequencyAssigner;
/// use qplacer_metrics::{evaluate_benchmark, FidelityParams};
/// use qplacer_netlist::{NetlistConfig, QuantumNetlist};
/// use qplacer_topology::Topology;
///
/// let device = Topology::falcon27();
/// let freqs = FrequencyAssigner::paper_defaults().assign(&device);
/// let netlist = QuantumNetlist::build(&device, &freqs, &NetlistConfig::default());
/// let eval = evaluate_benchmark(
///     &netlist,
///     &device,
///     &generators::bv(4),
///     5,
///     42,
///     &FidelityParams::paper(),
/// );
/// assert_eq!(eval.fidelities.len(), 5);
/// assert_eq!(eval.requested_subsets, 5);
/// assert_eq!(eval.skipped_subsets(), 0);
/// ```
#[must_use]
pub fn evaluate_benchmark(
    netlist: &QuantumNetlist,
    device: &Topology,
    circuit: &Circuit,
    num_subsets: usize,
    seed: u64,
    params: &FidelityParams,
) -> BenchmarkEvaluation {
    let _span = qplacer_obs::span!("evaluate", subsets = num_subsets);
    let mut rng = StdRng::seed_from_u64(seed);
    let router = Router::new(device);
    let model = FidelityModel::new(*params);
    let hotspots = HotspotReport::scan(netlist, &params.hotspot);

    // Per subset: routing, peephole, scheduling, and the fidelity model
    // over the one hotspot report scanned above.
    let mut skipped_too_large = 0usize;
    let mut skipped_unroutable = 0usize;
    let mut fidelities = Vec::with_capacity(num_subsets);
    let mut log_fidelities = Vec::with_capacity(num_subsets);
    let mut violations = Vec::with_capacity(num_subsets);
    for _ in 0..num_subsets {
        let Some(subset) = random_connected_subset(device, circuit.num_qubits(), &mut rng) else {
            skipped_too_large += 1;
            continue;
        };
        let Ok(mut routed) = router.route(circuit, &subset) else {
            skipped_unroutable += 1;
            continue;
        };
        // L3 substitute: peephole over the physical gate list.
        let mut as_circuit = Circuit::new(device.num_qubits());
        as_circuit.extend(routed.gates.iter().copied());
        optimize_peephole(&mut as_circuit);
        routed.gates = as_circuit.gates().to_vec();
        let schedule = Schedule::asap(&routed);
        let f = model.evaluate(netlist, &hotspots, &routed, &schedule);
        fidelities.push(f.total);
        log_fidelities.push(f.log_fidelity);
        violations.push(f.active_violations as f64);
    }

    let mean = if fidelities.is_empty() {
        0.0
    } else {
        fidelities.iter().sum::<f64>() / fidelities.len() as f64
    };
    let min = fidelities.iter().copied().fold(f64::INFINITY, f64::min);
    let mean_viol = if violations.is_empty() {
        0.0
    } else {
        violations.iter().sum::<f64>() / violations.len() as f64
    };
    BenchmarkEvaluation {
        mean_fidelity: mean,
        min_fidelity: if min.is_finite() { min } else { 0.0 },
        mean_active_violations: mean_viol,
        requested_subsets: num_subsets,
        skipped_too_large,
        skipped_unroutable,
        fidelities,
        log_fidelities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qplacer_circuits::generators;
    use qplacer_freq::FrequencyAssigner;
    use qplacer_geometry::Point;
    use qplacer_netlist::NetlistConfig;

    fn spread_netlist(device: &Topology) -> QuantumNetlist {
        let freqs = FrequencyAssigner::paper_defaults().assign(device);
        let mut nl = QuantumNetlist::build(device, &freqs, &NetlistConfig::default());
        let n = nl.num_instances();
        let side = (n as f64).sqrt().ceil() as usize;
        for i in 0..n {
            nl.set_position(
                i,
                Point::new((i % side) as f64 * 5.0, (i / side) as f64 * 5.0),
            );
        }
        nl
    }

    #[test]
    fn evaluation_is_deterministic_per_seed() {
        let device = Topology::falcon27();
        let nl = spread_netlist(&device);
        let p = FidelityParams::paper();
        let a = evaluate_benchmark(&nl, &device, &generators::bv(4), 4, 7, &p);
        let b = evaluate_benchmark(&nl, &device, &generators::bv(4), 4, 7, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn mean_and_min_are_consistent() {
        let device = Topology::falcon27();
        let nl = spread_netlist(&device);
        let e = evaluate_benchmark(
            &nl,
            &device,
            &generators::qaoa(4, 2, 11),
            6,
            3,
            &FidelityParams::paper(),
        );
        assert!(!e.fidelities.is_empty());
        assert!(e.min_fidelity <= e.mean_fidelity);
        assert_eq!(
            e.fidelities.len() + e.skipped_subsets(),
            e.requested_subsets
        );
        for &f in &e.fidelities {
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn log_fidelity_stays_finite_where_fidelity_underflows() {
        // qv-32 on Eagle: gate and decoherence errors alone drive the
        // linear product below the smallest subnormal.
        let device = Topology::eagle127();
        let nl = spread_netlist(&device);
        let circuit = qplacer_circuits::benchmark_by_name("qv-32")
            .unwrap()
            .circuit;
        let e = evaluate_benchmark(&nl, &device, &circuit, 2, 0xF1D0, &FidelityParams::paper());
        assert_eq!(e.fidelities.len(), 2);
        assert_eq!(
            e.min_fidelity, 0.0,
            "F should underflow: {:?}",
            e.fidelities
        );
        let worst = e.log_fidelities.iter().copied().fold(0.0, f64::min);
        assert!(
            worst.is_finite() && worst < f64::MIN_POSITIVE.ln(),
            "ln F {worst}"
        );
        for (&f, &log_f) in e.fidelities.iter().zip(&e.log_fidelities) {
            assert!(log_f.is_finite());
            if f > 0.0 {
                assert!(
                    (f.ln() - log_f).abs() < 1e-9 * log_f.abs(),
                    "{f} vs e^{log_f}"
                );
            }
        }
    }

    #[test]
    fn records_without_log_fidelities_still_deserialize() {
        let device = Topology::falcon27();
        let nl = spread_netlist(&device);
        let e = evaluate_benchmark(
            &nl,
            &device,
            &generators::bv(4),
            3,
            5,
            &FidelityParams::paper(),
        );
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(
            serde_json::from_str::<BenchmarkEvaluation>(&json).unwrap(),
            e
        );

        let mut old = serde_json::from_str::<serde_json::Value>(&json).unwrap();
        if let serde_json::Value::Map(fields) = &mut old {
            fields.retain(|(k, _)| k != "log_fidelities");
        }
        let parsed: BenchmarkEvaluation =
            serde_json::from_str(&serde_json::to_string(&old).unwrap()).unwrap();
        assert_eq!(parsed.fidelities, e.fidelities);
        let lns: Vec<f64> = e.fidelities.iter().map(|f| f.ln()).collect();
        assert_eq!(parsed.log_fidelities, lns);
    }

    #[test]
    fn oversized_circuits_yield_empty_eval_with_skip_counts() {
        let device = Topology::grid(2, 2);
        let nl = spread_netlist(&device);
        let e = evaluate_benchmark(
            &nl,
            &device,
            &generators::bv(9),
            3,
            1,
            &FidelityParams::paper(),
        );
        assert!(e.fidelities.is_empty());
        assert_eq!(e.mean_fidelity, 0.0);
        assert_eq!(e.requested_subsets, 3);
        assert_eq!(e.skipped_too_large, 3);
        assert_eq!(e.skipped_unroutable, 0);
        assert_eq!(e.skipped_subsets(), 3);
    }
}
