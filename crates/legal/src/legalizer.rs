//! The orchestrating legalizer (all three phases).

use serde::{Deserialize, Serialize};

use qplacer_netlist::QuantumNetlist;
use qplacer_obs::{NullTraceSink, TraceRecord, TraceSink};

use crate::abacus::legalize_qubits_abacus;
use crate::integration::integrate_resonators_with;
use crate::qubits::legalize_qubits_with;
use crate::tetris::legalize_segments_with;
use crate::workspace::count_overlaps;
use crate::LegalWorkspace;

/// Summary of a legalization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LegalReport {
    /// Mean qubit displacement (mm).
    pub mean_qubit_displacement: f64,
    /// Maximum qubit displacement (mm).
    pub max_qubit_displacement: f64,
    /// Mean segment displacement (mm).
    pub mean_segment_displacement: f64,
    /// Maximum segment displacement (mm).
    pub max_segment_displacement: f64,
    /// Resonators forming one cluster immediately after Tetris.
    pub integrated_before: usize,
    /// Resonators forming one cluster after Algorithm 1.
    pub integrated_after: usize,
    /// Total resonators.
    pub resonator_count: usize,
    /// Segments relocated during integration.
    pub segments_moved: usize,
    /// Segment swaps during integration.
    pub segments_swapped: usize,
    /// Padded-footprint overlaps remaining (0 for a legal layout).
    pub remaining_overlaps: usize,
}

/// Integration-aware legalizer configuration + entry point.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Legalizer {
    /// Occupancy bitmap resolution (mm).
    pub resolution_mm: f64,
    /// Resonant safety margin (mm) enforced by the strict legalization
    /// passes (the legalization-side τ check); 0 disables it.
    pub resonant_margin_mm: f64,
    /// Which qubit-legalization algorithm phase 1 uses.
    pub qubit_legalizer: QubitLegalizerKind,
}

/// Selectable qubit-legalization algorithm (phase 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QubitLegalizerKind {
    /// The paper's greedy spiral search + min-cost-flow refinement, with
    /// resonance-aware strict passes (default).
    SpiralMcmf,
    /// Classical Abacus row legalization (§VII related work) — lower
    /// displacement on row-friendly layouts, resonance-oblivious.
    Abacus,
}

impl Legalizer {
    /// Creates a legalizer with the given bitmap resolution.
    ///
    /// # Panics
    ///
    /// Panics if `resolution_mm` is not positive.
    #[must_use]
    pub fn new(resolution_mm: f64) -> Self {
        assert!(resolution_mm > 0.0, "resolution must be positive");
        Self {
            resolution_mm,
            resonant_margin_mm: 0.3,
            qubit_legalizer: QubitLegalizerKind::SpiralMcmf,
        }
    }

    /// Selects the qubit-legalization algorithm.
    #[must_use]
    pub fn with_qubit_legalizer(mut self, kind: QubitLegalizerKind) -> Self {
        self.qubit_legalizer = kind;
        self
    }

    /// Sets the resonant safety margin used by the strict passes.
    #[must_use]
    pub fn with_resonant_margin(mut self, margin_mm: f64) -> Self {
        self.resonant_margin_mm = margin_mm;
        self
    }

    /// Runs qubit legalization, segment Tetris, and resonator integration
    /// on `netlist`, mutating positions in place.
    ///
    /// Allocating convenience wrapper around [`Legalizer::run_with`].
    pub fn run(&self, netlist: &mut QuantumNetlist) -> LegalReport {
        let mut ws = LegalWorkspace::new();
        self.run_with(netlist, &mut ws)
    }

    /// Like [`Legalizer::run`], but threads a persistent [`LegalWorkspace`]
    /// through all three phases: the occupancy bitmap, resonance grid, and
    /// every candidate/cluster/cost buffer are reused, so steady-state
    /// legalizations of the same netlist shape allocate nothing. Candidate
    /// scoring fans across the current rayon pool with deterministic
    /// lowest-index selection, so reports and positions are identical at
    /// any thread count.
    pub fn run_with(&self, netlist: &mut QuantumNetlist, ws: &mut LegalWorkspace) -> LegalReport {
        self.run_traced(netlist, ws, &mut NullTraceSink)
    }

    /// Like [`Legalizer::run_with`], but emits one
    /// [`TraceRecord::LegalPhase`] per phase (`qubits`, `segments`,
    /// `resonators`, `overlap_check`) into `sink`, each timed by its
    /// `legalize_*` span. Timing flows only into `sink` and the spans;
    /// positions and the report are bit-identical to the untraced path.
    pub fn run_traced(
        &self,
        netlist: &mut QuantumNetlist,
        ws: &mut LegalWorkspace,
        sink: &mut dyn TraceSink,
    ) -> LegalReport {
        self.run_phases(netlist, ws, sink, None)
    }

    /// Incremental legalization for the ECO path: instances with
    /// `pinned[i]` set keep their current (already legal) positions —
    /// their footprints are pre-marked into the occupancy bitmap and
    /// resonance tracker, so every unpinned instance legalizes around
    /// them. Pinned segments still anchor their resonator chains, and
    /// integration repairs only resonators with an unpinned segment
    /// (swaps never pick a pinned victim). The overlap count at the end
    /// covers the whole layout, pinned included.
    ///
    /// The dirty region always legalizes through the spiral+MCMF
    /// engine; the Abacus row pass has no pinned-obstacle form.
    ///
    /// # Panics
    ///
    /// Panics if `pinned.len() != netlist.num_instances()`.
    pub fn run_incremental(
        &self,
        netlist: &mut QuantumNetlist,
        ws: &mut LegalWorkspace,
        pinned: &[bool],
    ) -> LegalReport {
        self.run_incremental_traced(netlist, ws, pinned, &mut NullTraceSink)
    }

    /// Like [`Legalizer::run_incremental`], with per-phase trace records
    /// (see [`Legalizer::run_traced`] for the tracing contract).
    pub fn run_incremental_traced(
        &self,
        netlist: &mut QuantumNetlist,
        ws: &mut LegalWorkspace,
        pinned: &[bool],
        sink: &mut dyn TraceSink,
    ) -> LegalReport {
        assert_eq!(
            pinned.len(),
            netlist.num_instances(),
            "pin mask does not match netlist"
        );
        self.run_phases(netlist, ws, sink, Some(pinned))
    }

    fn run_phases(
        &self,
        netlist: &mut QuantumNetlist,
        ws: &mut LegalWorkspace,
        sink: &mut dyn TraceSink,
        pinned: Option<&[bool]>,
    ) -> LegalReport {
        // The bitmap workspace extends slightly beyond the sized region:
        // mixing incommensurate footprints (e.g. 0.5 mm segments among
        // 0.8 mm qubits) can fragment the last few percent of free space,
        // and a bounded spill ring guarantees feasibility. Spill spots are
        // distance-penalized, so they are used only as a last resort; the
        // area metrics measure the layout actually produced.
        let workspace = netlist.region().inflated(2.0 * netlist.max_padded_side());
        ws.bitmap.reset(workspace, self.resolution_mm);
        ws.tracker.reset(netlist, self.resonant_margin_mm);
        // One pool-width probe per run: `current_num_threads` can cost a
        // syscall, far too slow to ask per candidate.
        ws.search.set_parallel_from_pool();
        let pitch = site_pitch_with(netlist, &mut ws.sizes);
        // Pinned instances become fixed obstacles before any phase runs.
        if let Some(mask) = pinned {
            for id in (0..netlist.num_instances()).filter(|&id| mask[id]) {
                ws.bitmap.mark(&netlist.padded_rect(id));
                ws.tracker.place(netlist, id, netlist.position(id));
            }
        }
        let span = qplacer_obs::span!("legalize_qubits", qubits = netlist.num_qubits());
        match self.qubit_legalizer {
            // The incremental path has pinned obstacles only the
            // spiral engine understands.
            QubitLegalizerKind::SpiralMcmf | QubitLegalizerKind::Abacus if pinned.is_some() => {
                legalize_qubits_with(
                    netlist,
                    &mut ws.bitmap,
                    &mut ws.tracker,
                    pitch,
                    &mut ws.search,
                    &mut ws.qubits,
                    pinned,
                );
            }
            QubitLegalizerKind::SpiralMcmf => {
                legalize_qubits_with(
                    netlist,
                    &mut ws.bitmap,
                    &mut ws.tracker,
                    pitch,
                    &mut ws.search,
                    &mut ws.qubits,
                    None,
                );
            }
            QubitLegalizerKind::Abacus => {
                let disp = legalize_qubits_abacus(netlist, &mut ws.bitmap);
                ws.qubits.displacement.clear();
                ws.qubits.displacement.extend_from_slice(&disp);
                for q in 0..netlist.num_qubits() {
                    let id = netlist.qubit_instance(q);
                    ws.tracker.place(netlist, id, netlist.position(id));
                }
            }
        }
        sink.record(&TraceRecord::LegalPhase {
            phase: "qubits",
            elapsed_ns: span.finish().as_nanos() as u64,
            items: netlist.num_qubits() as u64,
        });
        let span = qplacer_obs::span!(
            "legalize_segments",
            segments = netlist.num_instances() - netlist.num_qubits()
        );
        legalize_segments_with(
            netlist,
            &mut ws.bitmap,
            &mut ws.tracker,
            pitch,
            &mut ws.search,
            &mut ws.tetris,
            pinned,
        );
        sink.record(&TraceRecord::LegalPhase {
            phase: "segments",
            elapsed_ns: span.finish().as_nanos() as u64,
            items: (netlist.num_instances() - netlist.num_qubits()) as u64,
        });
        let span = qplacer_obs::span!("legalize_resonators", resonators = netlist.num_resonators());
        let stats =
            integrate_resonators_with(netlist, &mut ws.bitmap, pitch, &mut ws.integ, pinned);
        sink.record(&TraceRecord::LegalPhase {
            phase: "resonators",
            elapsed_ns: span.finish().as_nanos() as u64,
            items: netlist.num_resonators() as u64,
        });
        let span = qplacer_obs::span!(
            "legalize_overlap_check",
            instances = netlist.num_instances()
        );
        // Integration leaves its spatial index at the final positions;
        // count remaining overlaps from it instead of rebuilding one.
        let remaining_overlaps = count_overlaps(netlist, &ws.integ.grid, &mut ws.search.query);
        sink.record(&TraceRecord::LegalPhase {
            phase: "overlap_check",
            elapsed_ns: span.finish().as_nanos() as u64,
            items: netlist.num_instances() as u64,
        });

        let (mean_q, max_q) = disp_stats(ws.qubits.displacement.iter().copied());
        let (mean_s, max_s) = disp_stats(ws.tetris.displacement.iter().map(|&(_, d)| d));

        LegalReport {
            mean_qubit_displacement: mean_q,
            max_qubit_displacement: max_q,
            mean_segment_displacement: mean_s,
            max_segment_displacement: max_s,
            integrated_before: stats.integrated_before,
            integrated_after: stats.integrated_after,
            resonator_count: netlist.num_resonators(),
            segments_moved: stats.moved,
            segments_swapped: stats.swapped,
            remaining_overlaps,
        }
    }
}

/// Mean and maximum of the finite values of `it`. Non-finite
/// displacements (a NaN input coordinate) are excluded so one poisoned
/// instance degrades the report gracefully instead of washing out every
/// statistic.
fn disp_stats<I: Iterator<Item = f64>>(it: I) -> (f64, f64) {
    let (mut sum, mut max, mut count) = (0.0f64, 0.0f64, 0usize);
    for d in it.filter(|d| d.is_finite()) {
        sum += d;
        max = max.max(d);
        count += 1;
    }
    if count == 0 {
        (0.0, 0.0)
    } else {
        (sum / count as f64, max)
    }
}

/// The site-lattice pitch for a netlist: the largest pitch that divides
/// every distinct padded footprint side (within tolerance), searched among
/// integer fractions of the smallest footprint. When all footprints are
/// multiples of the pitch, placements brick-pack and free space never
/// fragments below one site.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn site_pitch(netlist: &QuantumNetlist) -> f64 {
    let mut sizes = Vec::new();
    site_pitch_with(netlist, &mut sizes)
}

/// [`site_pitch`] with a caller-owned size buffer (zero steady-state
/// allocations).
pub(crate) fn site_pitch_with(netlist: &QuantumNetlist, sizes: &mut Vec<f64>) -> f64 {
    sizes.clear();
    sizes.extend(netlist.instances().iter().map(|inst| inst.padded_mm()));
    sizes.sort_unstable_by(f64::total_cmp);
    sizes.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    let Some(&smallest) = sizes.first() else {
        return 0.1;
    };
    let divides_all = |p: f64| {
        sizes.iter().all(|&s| {
            let ratio = s / p;
            (ratio - ratio.round()).abs() < 1e-6
        })
    };
    for k in 1..=64 {
        let p = smallest / k as f64;
        if p < 0.05 {
            break;
        }
        if divides_all(p) {
            return p;
        }
    }
    0.05
}

impl Default for Legalizer {
    fn default() -> Self {
        Self::new(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qplacer_freq::FrequencyAssigner;
    use qplacer_geometry::Point;
    use qplacer_netlist::NetlistConfig;
    use qplacer_place::{ExecOptions, GlobalPlacer, PlacerConfig};
    use qplacer_topology::Topology;

    #[test]
    fn full_legalization_after_global_placement() {
        let t = Topology::grid(3, 3);
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        let mut nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::with_segment_size(0.4));
        GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, ExecOptions::default());
        let report = Legalizer::default().run(&mut nl);
        assert_eq!(report.remaining_overlaps, 0);
        assert_eq!(report.resonator_count, 12);
        assert!(report.integrated_after >= report.integrated_before);
        assert!(report.mean_qubit_displacement <= report.max_qubit_displacement);
        assert!(report.mean_segment_displacement <= report.max_segment_displacement);
    }

    #[test]
    fn legalization_is_deterministic() {
        let t = Topology::grid(2, 2);
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        let mut a = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
        GlobalPlacer::new(PlacerConfig::fast()).execute(&mut a, ExecOptions::default());
        let mut b = a.clone();
        let ra = Legalizer::default().run(&mut a);
        let rb = Legalizer::default().run(&mut b);
        assert_eq!(ra, rb);
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn workspace_reuse_does_not_change_results() {
        let t = Topology::grid(3, 3);
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        let mut fresh = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
        GlobalPlacer::new(PlacerConfig::fast()).execute(&mut fresh, ExecOptions::default());
        let mut reused = fresh.clone();

        let legalizer = Legalizer::default();
        let report_fresh = legalizer.run(&mut fresh);

        // Dirty the workspace on an unrelated run, then reuse it.
        let mut ws = LegalWorkspace::new();
        let t2 = Topology::grid(2, 2);
        let freqs2 = FrequencyAssigner::paper_defaults().assign(&t2);
        let mut warmup = QuantumNetlist::build(&t2, &freqs2, &NetlistConfig::default());
        GlobalPlacer::new(PlacerConfig::fast()).execute(&mut warmup, ExecOptions::default());
        let _ = legalizer.run_with(&mut warmup, &mut ws);
        let report_reused = legalizer.run_with(&mut reused, &mut ws);

        assert_eq!(report_fresh, report_reused);
        assert_eq!(fresh.positions(), reused.positions());
    }

    #[test]
    fn incremental_run_keeps_pinned_and_stays_legal() {
        let t = Topology::grid(3, 3);
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        let mut nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::with_segment_size(0.4));
        GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, ExecOptions::default());
        let legalizer = Legalizer::default();
        let cold = legalizer.run(&mut nl);
        assert_eq!(cold.remaining_overlaps, 0);

        // Pin everything except one qubit and one resonator's segments,
        // scatter the unpinned ones, then re-legalize incrementally.
        let mut pinned = vec![true; nl.num_instances()];
        let dirty_qubit = nl.qubit_instance(4);
        pinned[dirty_qubit] = false;
        for &seg in nl.resonator_segments(0) {
            pinned[seg] = false;
        }
        let before: Vec<Point> = nl.positions().to_vec();
        nl.set_position(dirty_qubit, Point::ORIGIN);
        let mut ws = LegalWorkspace::new();
        let report = legalizer.run_incremental(&mut nl, &mut ws, &pinned);
        assert_eq!(report.remaining_overlaps, 0, "incremental layout overlaps");
        for (id, (&p, &was)) in nl.positions().iter().zip(before.iter()).enumerate() {
            if pinned[id] {
                assert_eq!((p.x, p.y), (was.x, was.y), "pinned instance {id} moved");
            }
        }
    }

    #[test]
    fn incremental_with_all_pinned_changes_nothing() {
        let t = Topology::grid(2, 2);
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        let mut nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
        GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, ExecOptions::default());
        let legalizer = Legalizer::default();
        let _ = legalizer.run(&mut nl);
        let before: Vec<Point> = nl.positions().to_vec();
        let pinned = vec![true; nl.num_instances()];
        let mut ws = LegalWorkspace::new();
        let report = legalizer.run_incremental(&mut nl, &mut ws, &pinned);
        assert_eq!(report.remaining_overlaps, 0);
        assert_eq!(nl.positions(), &before[..]);
        assert_eq!(report.max_qubit_displacement, 0.0);
        assert_eq!(report.max_segment_displacement, 0.0);
    }

    #[test]
    fn nan_coordinate_does_not_panic_full_pipeline() {
        // Regression: a single NaN coordinate used to crash the
        // left-to-right ordering sort; now the layout still legalizes.
        let t = Topology::grid(2, 2);
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        let mut nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
        GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, ExecOptions::default());
        nl.set_position(nl.qubit_instance(0), Point::new(f64::NAN, f64::NAN));
        let report = Legalizer::default().run(&mut nl);
        assert_eq!(report.remaining_overlaps, 0);
        for inst in nl.instances() {
            let p = nl.position(inst.id());
            assert!(p.x.is_finite() && p.y.is_finite());
        }
        assert!(report.mean_qubit_displacement.is_finite());
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn zero_resolution_panics() {
        let _ = Legalizer::new(0.0);
    }
}
