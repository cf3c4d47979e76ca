//! Worst-case program fidelity model (Eq. 15–16).
//!
//! ```text
//! F = Π_q (1 − ε_q) · Π_g (1 − ε_g) · Π_r (1 − ε_r)
//! ```
//!
//! * `ε_q` — qubit errors: base gate errors plus T1/T2 decoherence over
//!   the scheduled makespan.
//! * `ε_g` — crosstalk between spatially violating qubit pairs: parasitic
//!   coupling at the pair's clearance, detuning-reduced, driving Rabi
//!   transitions over the exposure window (Eq. 16; we use the physically
//!   consistent `ε = sin²(g_eff·t)` averaged over the dephased window;
//!   the printed `ε = 1 − sin(gt)²` is 1 at `t = 0`, see
//!   `qplacer_physics::error`).
//! * `ε_r` — crosstalk between violating resonator segments, with
//!   parasitic capacitance proportional to the adjacent length, applied
//!   when the affected resonator (or a violating partner) is active.
//!
//! Only *active* components contribute: errors on idle, uninvolved
//! elements do not corrupt the program (§V-C).
//!
//! Next to `F` the model sums `ln F = Σ ln(1 − ε)` over the same three
//! factors, which stays finite where the linear product underflows to
//! 0 (a deep circuit on a large device).

use serde::{Deserialize, Serialize};

use qplacer_circuits::{RoutedCircuit, Schedule};
use qplacer_netlist::{InstanceKind, QuantumNetlist};
use qplacer_physics::{capacitance, constants, coupling, error, Duration, Transmon};

use crate::hotspot::{HotspotConfig, HotspotReport};

/// Fidelity model parameters (paper §V-C defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FidelityParams {
    /// Base single-qubit gate error.
    pub single_qubit_error: f64,
    /// Base two-qubit gate error.
    pub two_qubit_error: f64,
    /// Relaxation time T1 (ns).
    pub t1_ns: f64,
    /// Dephasing time T2 (ns).
    pub t2_ns: f64,
    /// Include a readout error per active qubit.
    pub include_readout: bool,
    /// Readout error when enabled.
    pub readout_error: f64,
    /// Spatial-violation detection settings.
    pub hotspot: HotspotConfig,
}

impl FidelityParams {
    /// Paper-faithful defaults.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            single_qubit_error: constants::SINGLE_QUBIT_GATE_ERROR,
            two_qubit_error: constants::TWO_QUBIT_GATE_ERROR,
            t1_ns: constants::T1.ns(),
            t2_ns: constants::T2.ns(),
            include_readout: false,
            readout_error: constants::READOUT_ERROR,
            hotspot: HotspotConfig::paper(),
        }
    }
}

impl Default for FidelityParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Fidelity decomposition of one evaluated program.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FidelityBreakdown {
    /// Product of (1 − gate/decoherence errors) — the `ε_q` term.
    pub qubit_factor: f64,
    /// Product of (1 − qubit-pair crosstalk errors) — the `ε_g` term.
    pub qubit_crosstalk_factor: f64,
    /// Product of (1 − resonator crosstalk errors) — the `ε_r` term.
    pub resonator_crosstalk_factor: f64,
    /// Overall fidelity `F` (the product of the three factors).
    pub total: f64,
    /// `ln F`: the sum of `ln(1 − ε)` over every error of the three
    /// factors (`ln_1p(−ε)`, or `−t/T1 − t/T2` for decoherence). Finite
    /// even where `total` underflows to 0.
    pub log_fidelity: f64,
    /// Number of crosstalk-contributing violations.
    pub active_violations: usize,
}

// Hand-written so that breakdowns serialized before `log_fidelity`
// existed keep deserializing, with `ln(total)` in its place; the
// vendored serde derive has no `#[serde(default)]`.
impl Deserialize for FidelityBreakdown {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = value
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "FidelityBreakdown"))?;
        let field = |key: &str| serde::Value::field(map, key);
        let total: f64 = Deserialize::from_value(field("total")?)?;
        let log_fidelity = match map.iter().find(|(k, _)| k.as_str() == "log_fidelity") {
            Some((_, v)) => Deserialize::from_value(v)?,
            None => total.ln(),
        };
        Ok(Self {
            qubit_factor: Deserialize::from_value(field("qubit_factor")?)?,
            qubit_crosstalk_factor: Deserialize::from_value(field("qubit_crosstalk_factor")?)?,
            resonator_crosstalk_factor: Deserialize::from_value(field(
                "resonator_crosstalk_factor",
            )?)?,
            total,
            log_fidelity,
            active_violations: Deserialize::from_value(field("active_violations")?)?,
        })
    }
}

/// The Eq. 15 evaluator.
#[derive(Debug, Clone, Copy, Default)]
pub struct FidelityModel {
    params: FidelityParams,
}

impl FidelityModel {
    /// Creates a model with the given parameters.
    #[must_use]
    pub fn new(params: FidelityParams) -> Self {
        Self { params }
    }

    /// The parameters in use.
    #[must_use]
    pub fn params(&self) -> &FidelityParams {
        &self.params
    }

    /// Evaluates the fidelity of `routed` (with its ASAP `schedule`)
    /// executing on the placed `netlist`.
    ///
    /// `hotspots` holds the layout's spatial violations: the
    /// [`HotspotReport::scan`] of `netlist` at its current positions
    /// with `self.params().hotspot`. They depend on the layout alone,
    /// not on the mapped subset, so one scan serves every program
    /// evaluated on the same layout ([`crate::evaluate_benchmark`]
    /// makes it once per call).
    #[must_use]
    pub fn evaluate(
        &self,
        netlist: &QuantumNetlist,
        hotspots: &HotspotReport,
        routed: &RoutedCircuit,
        schedule: &Schedule,
    ) -> FidelityBreakdown {
        let p = &self.params;
        let t1 = Duration::from_ns(p.t1_ns);
        let t2 = Duration::from_ns(p.t2_ns);
        let makespan = schedule.total_duration();
        let mut log_fidelity = 0.0;

        // ---- ε_q: gate + decoherence errors over active qubits. ----
        let mut qubit_factor = 1.0;
        for gate in &routed.gates {
            let e = if gate.is_two_qubit() {
                p.two_qubit_error
            } else {
                p.single_qubit_error
            };
            qubit_factor *= 1.0 - e;
            log_fidelity += (-e).ln_1p();
        }
        // Decoherence acts on every active qubit for the full makespan
        // (busy + idle).
        let decoherence = error::decoherence_error(makespan, t1, t2);
        let decoherence_log = error::decoherence_log_survival(makespan, t1, t2);
        for _ in &routed.active_qubits {
            qubit_factor *= 1.0 - decoherence;
            log_fidelity += decoherence_log;
        }
        if p.include_readout {
            for _ in &routed.active_qubits {
                qubit_factor *= 1.0 - p.readout_error;
                log_fidelity += (-p.readout_error).ln_1p();
            }
        }

        // ---- Spatial violations at the current layout. ----
        let active_qubits: std::collections::HashSet<usize> =
            routed.active_qubits.iter().copied().collect();
        let active_resonators: std::collections::HashSet<usize> =
            routed.edge_usage.iter().map(|&(e, _)| e).collect();

        let is_active = |kind: InstanceKind| match kind {
            InstanceKind::Qubit(q) => active_qubits.contains(&q),
            InstanceKind::ResonatorSegment { resonator, .. } => {
                active_resonators.contains(&resonator)
            }
        };

        let mut qubit_crosstalk_factor = 1.0;
        let mut resonator_crosstalk_factor = 1.0;
        let mut active_violations = 0usize;
        for &(i, j) in &hotspots.violations {
            let a = netlist.instance(i);
            let b = netlist.instance(j);
            if !is_active(a.kind()) && !is_active(b.kind()) {
                continue; // errors on inactive elements don't hurt (§V-C)
            }
            active_violations += 1;
            let d = netlist.padded_rect(i).clearance(&netlist.padded_rect(j));
            let detuning = a.frequency().detuning(b.frequency());
            match (a.kind().is_qubit(), b.kind().is_qubit()) {
                (true, true) => {
                    let g = capacitance::parasitic_qubit_coupling(d, a.frequency(), b.frequency());
                    // |01⟩ ↔ |10⟩ exchange at the bare detuning.
                    let geff = coupling::effective_coupling(g, detuning);
                    let eps_exchange = error::averaged_rabi_error(geff, makespan);
                    // |11⟩ ↔ |20⟩ leakage (§V-C names both channels): the
                    // two-photon matrix element is √2·g and the relevant
                    // detuning involves the |1⟩→|2⟩ transition, which sits
                    // one anharmonicity below ω₀₁.
                    let qa = Transmon::new(a.frequency());
                    let qb = Transmon::new(b.frequency());
                    let leak_det = qa
                        .f12()
                        .detuning(qb.frequency())
                        .ghz()
                        .min(qb.f12().detuning(qa.frequency()).ghz());
                    let g_leak = coupling::effective_coupling(
                        g * std::f64::consts::SQRT_2,
                        qplacer_physics::Frequency::from_ghz(leak_det),
                    );
                    let eps_leak = error::averaged_rabi_error(g_leak, makespan);
                    let eps = error::combine_errors(&[eps_exchange, eps_leak]);
                    qubit_crosstalk_factor *= 1.0 - eps;
                    log_fidelity += (-eps).ln_1p();
                }
                _ => {
                    // Resonator-involved violation: parasitic capacitance
                    // scales with the adjacent trace length.
                    let adjacent = netlist
                        .padded_rect(i)
                        .inflated(0.5 * p.hotspot.resonant_margin_mm)
                        .adjacency_length(
                            &netlist
                                .padded_rect(j)
                                .inflated(0.5 * p.hotspot.resonant_margin_mm),
                        );
                    let g = capacitance::parasitic_resonator_coupling(
                        d,
                        adjacent,
                        a.frequency(),
                        b.frequency(),
                    );
                    let geff = coupling::effective_coupling(g, detuning);
                    let eps = error::averaged_rabi_error(geff, makespan);
                    resonator_crosstalk_factor *= 1.0 - eps;
                    log_fidelity += (-eps).ln_1p();
                }
            }
        }

        let total = qubit_factor * qubit_crosstalk_factor * resonator_crosstalk_factor;
        FidelityBreakdown {
            qubit_factor,
            qubit_crosstalk_factor,
            resonator_crosstalk_factor,
            total,
            log_fidelity,
            active_violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qplacer_circuits::{generators, Router};
    use qplacer_freq::FrequencyAssigner;
    use qplacer_geometry::Point;
    use qplacer_netlist::NetlistConfig;
    use qplacer_topology::Topology;

    fn setup() -> (Topology, QuantumNetlist, RoutedCircuit, Schedule) {
        let t = Topology::grid(3, 3);
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        let mut nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
        // Spread everything: clean layout.
        let n = nl.num_instances();
        let side = (n as f64).sqrt().ceil() as usize;
        for i in 0..n {
            nl.set_position(
                i,
                Point::new((i % side) as f64 * 5.0, (i / side) as f64 * 5.0),
            );
        }
        let routed = Router::new(&t)
            .route(&generators::bv(4), &[0, 1, 2, 4])
            .unwrap();
        let schedule = Schedule::asap(&routed);
        (t, nl, routed, schedule)
    }

    /// Default-model fidelity of `routed` on `nl`, over a fresh scan.
    fn score(
        nl: &QuantumNetlist,
        routed: &RoutedCircuit,
        schedule: &Schedule,
    ) -> FidelityBreakdown {
        let model = FidelityModel::default();
        let hotspots = HotspotReport::scan(nl, &model.params().hotspot);
        model.evaluate(nl, &hotspots, routed, schedule)
    }

    #[test]
    fn clean_layout_fidelity_is_high() {
        let (_t, nl, routed, schedule) = setup();
        let f = score(&nl, &routed, &schedule);
        assert_eq!(f.active_violations, 0);
        assert_eq!(f.qubit_crosstalk_factor, 1.0);
        assert_eq!(f.resonator_crosstalk_factor, 1.0);
        assert!(f.total > 0.8, "clean bv-4 fidelity {}", f.total);
        assert!(f.total < 1.0, "gates always cost something");
    }

    #[test]
    fn log_fidelity_is_the_log_of_the_product() {
        let (_t, nl, routed, schedule) = setup();
        let f = score(&nl, &routed, &schedule);
        assert!((f.total.ln() - f.log_fidelity).abs() < 1e-12, "{f:?}");
    }

    #[test]
    fn breakdowns_without_log_fidelity_still_deserialize() {
        let (_t, nl, routed, schedule) = setup();
        let f = score(&nl, &routed, &schedule);
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(serde_json::from_str::<FidelityBreakdown>(&json).unwrap(), f);
        let mut old = serde_json::from_str::<serde_json::Value>(&json).unwrap();
        if let serde_json::Value::Map(fields) = &mut old {
            fields.retain(|(k, _)| k != "log_fidelity");
        }
        let parsed: FidelityBreakdown =
            serde_json::from_str(&serde_json::to_string(&old).unwrap()).unwrap();
        assert_eq!(parsed.total, f.total);
        assert_eq!(parsed.log_fidelity, f.total.ln());
    }

    #[test]
    fn colliding_active_qubits_destroy_fidelity() {
        let (_t, mut nl, routed, schedule) = setup();
        let clean = score(&nl, &routed, &schedule);
        // Find two active qubits in the same frequency slot and collide
        // them; else collide any two actives (coupling still acts via the
        // resonant check — so pick the resonant pair if it exists).
        let dc = nl.detuning_threshold();
        let mut collided = false;
        let act = &routed.active_qubits;
        'outer: for (ai, &a) in act.iter().enumerate() {
            for &b in &act[ai + 1..] {
                let ia = nl.qubit_instance(a);
                let ib = nl.qubit_instance(b);
                if nl
                    .instance(ia)
                    .frequency()
                    .is_resonant_with(nl.instance(ib).frequency(), dc * 0.5)
                {
                    nl.set_position(ia, Point::new(-30.0, 0.0));
                    nl.set_position(ib, Point::new(-30.0 + 1.3, 0.0));
                    collided = true;
                    break 'outer;
                }
            }
        }
        if collided {
            let dirty = score(&nl, &routed, &schedule);
            assert!(dirty.active_violations > 0);
            assert!(
                dirty.total < clean.total * 0.9,
                "crosstalk barely moved fidelity: {} vs {}",
                dirty.total,
                clean.total
            );
        }
    }

    #[test]
    fn inactive_violations_are_free() {
        let (_t, mut nl, routed, schedule) = setup();
        // Collide two qubits that the program does not touch.
        let inactive: Vec<usize> = (0..nl.num_qubits())
            .filter(|q| !routed.active_qubits.contains(q))
            .collect();
        let dc = nl.detuning_threshold();
        let mut hit = false;
        'outer: for (i, &a) in inactive.iter().enumerate() {
            for &b in &inactive[i + 1..] {
                let ia = nl.qubit_instance(a);
                let ib = nl.qubit_instance(b);
                if nl
                    .instance(ia)
                    .frequency()
                    .is_resonant_with(nl.instance(ib).frequency(), dc * 0.5)
                {
                    nl.set_position(ia, Point::new(-30.0, 0.0));
                    nl.set_position(ib, Point::new(-28.7, 0.0));
                    hit = true;
                    break 'outer;
                }
            }
        }
        if hit {
            let f = score(&nl, &routed, &schedule);
            assert_eq!(f.active_violations, 0, "inactive collisions must not count");
            assert_eq!(f.qubit_crosstalk_factor, 1.0);
        }
    }

    #[test]
    fn longer_programs_have_lower_fidelity() {
        let t = Topology::falcon27();
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        let mut nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
        let n = nl.num_instances();
        let side = (n as f64).sqrt().ceil() as usize;
        for i in 0..n {
            nl.set_position(
                i,
                Point::new((i % side) as f64 * 5.0, (i / side) as f64 * 5.0),
            );
        }
        let subset: Vec<usize> = vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16];
        let run = |c: &qplacer_circuits::Circuit| {
            let routed = Router::new(&t)
                .route(c, &subset[..c.num_qubits()])
                .unwrap_or_else(|_| Router::new(&t).route(c, &subset).unwrap());
            let s = Schedule::asap(&routed);
            score(&nl, &routed, &s).total
        };
        let small = run(&generators::bv(4));
        let big = run(&generators::bv(16));
        assert!(big < small, "bv-16 {} !< bv-4 {}", big, small);
    }
}
