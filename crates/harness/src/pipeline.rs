//! The end-to-end placement pipeline.

use serde::{Deserialize, Serialize};

use qplacer_baselines::HumanLayout;
use qplacer_circuits::Circuit;
use qplacer_freq::{FreqWorkspace, FrequencyAssigner, FrequencyAssignment};
use qplacer_legal::{LegalReport, LegalWorkspace, Legalizer};
use qplacer_metrics::{
    evaluate_benchmark, AreaMetrics, BenchmarkEvaluation, FidelityParams, HotspotConfig,
    HotspotReport,
};
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_obs::{NullTraceSink, TraceSink};
use qplacer_place::{
    ExecOptions as PlacerExecOptions, GlobalPlacer, PlacementReport, PlacerConfig, PlacerWorkspace,
};
use qplacer_topology::Topology;

/// Which placement scheme to run (the paper's three comparison arms,
/// §V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// QPlacer: the frequency-aware electrostatic engine.
    FrequencyAware,
    /// Classic: the same engine with the frequency force disabled.
    Classic,
    /// Human: the manual IBM-style grid design (crosstalk-free, larger).
    Human,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::FrequencyAware => "Qplacer",
            Strategy::Classic => "Classic",
            Strategy::Human => "Human",
        };
        f.write_str(s)
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Frequency assignment settings.
    pub assigner: FrequencyAssigner,
    /// Netlist geometry (padding, segment size, utilization target).
    pub netlist: NetlistConfig,
    /// Global placement settings (frequency awareness is overridden by
    /// the [`Strategy`] passed to [`Qplacer::execute`]).
    pub placer: PlacerConfig,
    /// Legalization settings.
    pub legalizer: Legalizer,
    /// Fidelity model settings for evaluations.
    pub fidelity: FidelityParams,
}

impl PipelineConfig {
    /// The paper's configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            assigner: FrequencyAssigner::paper_defaults(),
            netlist: NetlistConfig::default(),
            placer: PlacerConfig::paper(),
            legalizer: Legalizer::default(),
            fidelity: FidelityParams::paper(),
        }
    }

    /// Reduced-budget configuration for tests and doc examples.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            placer: PlacerConfig::fast(),
            ..Self::paper()
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Reusable buffers for every pipeline stage, mirroring each stage's own
/// workspace type. One of these threaded through
/// [`ExecOptions::workspace`] makes repeat placements (sweeps, benchmarks)
/// reuse the frequency-assignment conflict graphs, the placer's spectral
/// scratch, and the legalizer's bitmap/grid/candidate buffers.
#[derive(Debug, Default)]
pub struct PipelineWorkspace {
    /// Frequency-assignment buffers ([`FrequencyAssigner::assign_with`]).
    pub freq: FreqWorkspace,
    /// Global-placement buffers ([`qplacer_place::ExecOptions::workspace`]).
    pub placer: PlacerWorkspace,
    /// Legalization buffers ([`Legalizer::run_with`]).
    pub legal: LegalWorkspace,
}

impl PipelineWorkspace {
    /// An empty workspace; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Wall-clock stage timings of one pipeline run (milliseconds). All
/// fields are non-deterministic; stages that did not run are 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Frequency assignment.
    pub assign_ms: f64,
    /// Global placement (matches `PlacementReport::elapsed_seconds`).
    pub place_ms: f64,
    /// Legalization (all three phases).
    pub legalize_ms: f64,
}

/// A placed (and, for the engine strategies, legalized) layout plus the
/// reports the pipeline produced along the way.
#[derive(Debug, Clone)]
pub struct PlacedLayout {
    /// The strategy that produced this layout.
    pub strategy: Strategy,
    /// The netlist at its final positions.
    pub netlist: QuantumNetlist,
    /// The frequency assignment used.
    pub assignment: FrequencyAssignment,
    /// Global-placement report (absent for the Human strategy).
    pub placement: Option<PlacementReport>,
    /// Legalization report (absent for the Human strategy).
    pub legalization: Option<LegalReport>,
    /// Per-stage wall-clock timings of this run.
    pub timings: StageTimings,
    /// The fidelity parameters evaluations will use.
    pub(crate) fidelity: FidelityParams,
}

impl PlacedLayout {
    /// Area metrics of the final layout (Eq. 17).
    #[must_use]
    pub fn area(&self) -> AreaMetrics {
        AreaMetrics::of(&self.netlist)
    }

    /// Hotspot scan of the final layout (Eq. 18).
    #[must_use]
    pub fn hotspots(&self) -> HotspotReport {
        HotspotReport::scan(&self.netlist, &self.fidelity.hotspot)
    }

    /// Hotspot scan with custom settings.
    #[must_use]
    pub fn hotspots_with(&self, config: &HotspotConfig) -> HotspotReport {
        HotspotReport::scan(&self.netlist, config)
    }

    /// Evaluates one benchmark circuit on `num_subsets` seeded random
    /// connected subsets (the Fig. 11 protocol; the paper uses 50).
    #[must_use]
    pub fn evaluate(
        &self,
        device: &Topology,
        circuit: &Circuit,
        num_subsets: usize,
        seed: u64,
    ) -> BenchmarkEvaluation {
        evaluate_benchmark(
            &self.netlist,
            device,
            circuit,
            num_subsets,
            seed,
            &self.fidelity,
        )
    }

    /// SVG rendering of the layout (Fig. 14-b).
    #[must_use]
    pub fn svg(&self) -> String {
        qplacer_artwork::render_svg(&self.netlist)
    }

    /// GDS-lite export of the layout (Fig. 14-c substitute).
    #[must_use]
    pub fn gds(&self, structure_name: &str) -> String {
        qplacer_artwork::write_gds_lite(&self.netlist, structure_name)
    }
}

/// The end-to-end QPlacer pipeline.
///
/// See the crate-level example.
#[derive(Debug, Clone, Default)]
pub struct Qplacer {
    config: PipelineConfig,
}

/// Options for [`Qplacer::execute`] and [`Qplacer::execute_replace`],
/// the pipeline's two entry points. `Default` is an untraced run with an internal
/// scratch workspace under the ambient trace context; each field opts
/// into one capability independently.
#[derive(Default)]
pub struct ExecOptions<'a> {
    /// Caller-owned stage buffers, reused across runs (sweeps reusing
    /// one workspace per worker pay the buffer build-out once); `None`
    /// builds a fresh [`PipelineWorkspace`] internally.
    pub workspace: Option<&'a mut PipelineWorkspace>,
    /// Convergence-telemetry sink: per-phase
    /// [`FreqPhase`] records from the assigner, one [`PlaceIteration`]
    /// record per global-placement iteration, and per-phase
    /// [`LegalPhase`] records from the legalizer. Telemetry is
    /// observational only — the returned layout is bit-identical to the
    /// untraced path.
    ///
    /// [`FreqPhase`]: qplacer_obs::TraceRecord::FreqPhase
    /// [`PlaceIteration`]: qplacer_obs::TraceRecord::PlaceIteration
    /// [`LegalPhase`]: qplacer_obs::TraceRecord::LegalPhase
    pub sink: Option<&'a mut dyn TraceSink>,
    /// Event-capture correlation: adopt this trace-context id on the
    /// executing thread before the run, so every timeline event the
    /// pipeline records (see [`qplacer_obs::event_snapshot`]) carries
    /// it. `None` leaves the thread's current context untouched.
    pub trace_id: Option<u64>,
}

impl Qplacer {
    /// Pipeline with the paper's configuration.
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// Paper-faithful configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(PipelineConfig::paper())
    }

    /// Reduced-budget configuration for tests and docs.
    #[must_use]
    pub fn fast() -> Self {
        Self::new(PipelineConfig::fast())
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the pipeline (assignment → placement → legalization) on
    /// `device` with the chosen strategy. The single entry point:
    /// workspace reuse, convergence telemetry, and event-capture
    /// correlation are all [`ExecOptions`] fields, each defaulting to
    /// off. Per-stage wall times land in the returned layout's
    /// [`StageTimings`].
    #[must_use]
    pub fn execute(
        &self,
        device: &Topology,
        strategy: Strategy,
        opts: ExecOptions<'_>,
    ) -> PlacedLayout {
        let ExecOptions {
            workspace,
            sink,
            trace_id,
        } = opts;
        let _trace = trace_id.map(qplacer_obs::adopt_trace_id);
        let mut scratch;
        let ws = match workspace {
            Some(ws) => ws,
            None => {
                scratch = PipelineWorkspace::new();
                &mut scratch
            }
        };
        let mut null = NullTraceSink;
        self.place_core(device, strategy, ws, sink.unwrap_or(&mut null))
    }

    pub(crate) fn place_core(
        &self,
        device: &Topology,
        strategy: Strategy,
        ws: &mut PipelineWorkspace,
        sink: &mut dyn TraceSink,
    ) -> PlacedLayout {
        let _span = qplacer_obs::span!("pipeline", qubits = device.num_qubits() as u64);
        let mut timings = StageTimings::default();
        let span = qplacer_obs::span!("freq_assign", qubits = device.num_qubits());
        let assignment = self
            .config
            .assigner
            .assign_traced_with(device, &mut ws.freq, sink);
        timings.assign_ms = span.finish().as_secs_f64() * 1e3;
        match strategy {
            Strategy::Human => {
                let netlist = HumanLayout::place(device, &assignment, &self.config.netlist);
                PlacedLayout {
                    strategy,
                    netlist,
                    assignment,
                    placement: None,
                    legalization: None,
                    timings,
                    fidelity: self.config.fidelity,
                }
            }
            Strategy::FrequencyAware | Strategy::Classic => {
                let mut netlist = QuantumNetlist::build(device, &assignment, &self.config.netlist);
                let mut placer_cfg = self.config.placer;
                placer_cfg.frequency_aware = strategy == Strategy::FrequencyAware;
                let placement = GlobalPlacer::new(placer_cfg).execute(
                    &mut netlist,
                    PlacerExecOptions {
                        workspace: Some(&mut ws.placer),
                        sink: Some(sink),
                        pinned: None,
                    },
                );
                timings.place_ms = placement.elapsed_seconds * 1e3;
                // The τ-checked (resonance-aware) legalization passes are a
                // QPlacer contribution (§IV-C2); the Classic arm gets the
                // plain engine + structural legalizer, like the paper's
                // DREAMPlace baseline.
                let mut legalizer_cfg = self.config.legalizer;
                if strategy == Strategy::Classic {
                    legalizer_cfg = legalizer_cfg.with_resonant_margin(0.0);
                }
                let span = qplacer_obs::span!("legalize", instances = netlist.num_instances());
                let legalization = legalizer_cfg.run_traced(&mut netlist, &mut ws.legal, sink);
                timings.legalize_ms = span.finish().as_secs_f64() * 1e3;
                PlacedLayout {
                    strategy,
                    netlist,
                    assignment,
                    placement: Some(placement),
                    legalization: Some(legalization),
                    timings,
                    fidelity: self.config.fidelity,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qplacer_strategy_produces_legal_compact_layouts() {
        let device = Topology::grid(3, 3);
        let layout = Qplacer::fast().execute(&device, Strategy::FrequencyAware, Default::default());
        assert_eq!(layout.strategy, Strategy::FrequencyAware);
        assert!(layout.placement.is_some());
        let legal = layout.legalization.as_ref().unwrap();
        assert_eq!(legal.remaining_overlaps, 0);
        let area = layout.area();
        assert!(area.utilization > 0.3 && area.utilization <= 1.0);
    }

    #[test]
    fn human_strategy_skips_engine() {
        let device = Topology::grid(3, 3);
        let layout = Qplacer::fast().execute(&device, Strategy::Human, Default::default());
        assert!(layout.placement.is_none());
        assert!(layout.legalization.is_none());
        assert_eq!(layout.hotspots().violations.len(), 0);
    }

    #[test]
    fn qplacer_beats_classic_on_hotspots() {
        let device = Topology::grid(3, 3);
        let engine = Qplacer::fast();
        let aware = engine.execute(&device, Strategy::FrequencyAware, Default::default());
        let classic = engine.execute(&device, Strategy::Classic, Default::default());
        assert!(
            aware.hotspots().ph <= classic.hotspots().ph + 1e-12,
            "aware {} vs classic {}",
            aware.hotspots().ph,
            classic.hotspots().ph
        );
    }

    #[test]
    fn human_layout_is_larger_than_qplacer() {
        let device = Topology::falcon27();
        let engine = Qplacer::fast();
        let aware = engine.execute(&device, Strategy::FrequencyAware, Default::default());
        let human = engine.execute(&device, Strategy::Human, Default::default());
        assert!(
            human.area().mer_area > aware.area().mer_area,
            "human {} !> qplacer {}",
            human.area().mer_area,
            aware.area().mer_area
        );
    }

    #[test]
    fn evaluation_runs_end_to_end() {
        let device = Topology::grid(3, 3);
        let layout = Qplacer::fast().execute(&device, Strategy::FrequencyAware, Default::default());
        let eval = layout.evaluate(&device, &qplacer_circuits::generators::bv(4), 3, 1);
        assert_eq!(eval.fidelities.len(), 3);
        for f in &eval.fidelities {
            assert!((0.0..=1.0).contains(f));
        }
    }

    #[test]
    fn artwork_exports_work() {
        let device = Topology::grid(2, 2);
        let layout = Qplacer::fast().execute(&device, Strategy::FrequencyAware, Default::default());
        assert!(layout.svg().starts_with("<svg"));
        assert!(layout.gds("TOP").contains("STRNAME TOP"));
    }
}
