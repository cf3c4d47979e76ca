//! Incremental (ECO-style) re-placement: warm-start the whole pipeline
//! from a cached [`PlacedLayout`] over a [`TopologyDelta`].
//!
//! The flow mirrors a cold [`Qplacer::execute`] run stage for stage,
//! but every stage consumes the previous result:
//!
//! 1. **Frequencies** — clean qubits/resonators keep their previous
//!    frequencies bit-for-bit; only the delta's conflict neighborhood
//!    recolors, preferring each vertex's previous frequency when it is
//!    still admissible
//!    ([`FrequencyAssigner::assign_incremental_with`]).
//! 2. **Netlist** — built for the target device, then re-seeded: every
//!    surviving instance starts at its previous legalized position, and
//!    the placement region is widened back to the previous run's region
//!    when the target device shrank (so pinned instances stay in
//!    bounds).
//! 3. **Global placement** — instances whose structure *and* frequency
//!    are untouched, and whose previous position is finite (for a
//!    resonator: every segment's), are pinned: they contribute to the
//!    density and frequency fields but never move
//!    ([`qplacer_place::ExecOptions::pinned`], always the flat engine
//!    with a reduced iteration floor).
//! 4. **Legalization** — pinned instances are pre-marked into the
//!    occupancy bitmap and resonance tracker; only unpinned instances
//!    are legalized around them
//!    ([`qplacer_legal::Legalizer::run_incremental_traced`]).
//!
//! Contract: an **empty delta reproduces the cold result exactly** — no
//! instance is unpinned, so placement and legalization are skipped and
//! the previous reports are carried forward, making the derived
//! `PlacementResult` byte-identical at any thread count.
//!
//! [`FrequencyAssigner::assign_incremental_with`]: qplacer_freq::FrequencyAssigner::assign_incremental_with

use serde::{Deserialize, Serialize};

use qplacer_netlist::QuantumNetlist;
use qplacer_obs::{NullTraceSink, TraceSink};
use qplacer_place::GlobalPlacer;
use qplacer_topology::{Topology, TopologyDelta, TopologyError};

use crate::pipeline::{
    ExecOptions, PipelineWorkspace, PlacedLayout, Qplacer, StageTimings, Strategy,
};

/// Iteration floor for warm global placement: the seed is an
/// already-legal layout, so the overflow stop may fire almost
/// immediately instead of waiting out the cold-start floor.
const WARM_MIN_ITERATIONS: usize = 5;

/// What an incremental re-placement did, alongside the new layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplaceReport {
    /// Instances in the target netlist.
    pub total_instances: usize,
    /// Target qubits inside the delta's conflict neighborhood
    /// (recolor candidates).
    pub dirty_qubits: usize,
    /// Instances pinned during placement and legalization.
    pub pinned_instances: usize,
    /// Instances whose final position differs from their warm seed
    /// (new instances count as moved).
    pub moved_instances: usize,
    /// `true` when nothing was unpinned and the previous placement and
    /// legalization reports were carried forward unchanged (the
    /// empty-delta fast path).
    pub carried_reports: bool,
}

impl Qplacer {
    /// Re-places `base` after `delta`, warm-starting every stage from
    /// `prev` (a layout of `base` produced by this pipeline). The
    /// incremental counterpart of [`Qplacer::execute`], taking the same
    /// [`ExecOptions`]; see the [module docs](crate::replace) for the
    /// stage-by-stage contract.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] when `delta` does not apply to `base`.
    pub fn execute_replace(
        &self,
        base: &Topology,
        prev: &PlacedLayout,
        delta: &TopologyDelta,
        opts: ExecOptions<'_>,
    ) -> Result<(PlacedLayout, ReplaceReport), TopologyError> {
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
        self.replace_core(base, prev, delta, ws, sink.unwrap_or(&mut null))
    }

    fn replace_core(
        &self,
        base: &Topology,
        prev: &PlacedLayout,
        delta: &TopologyDelta,
        ws: &mut PipelineWorkspace,
        sink: &mut dyn TraceSink,
    ) -> Result<(PlacedLayout, ReplaceReport), TopologyError> {
        let target = delta.apply(base)?;
        let _span = qplacer_obs::span!("replace", qubits = target.num_qubits() as u64);

        // The Human arm is a deterministic closed-form construction —
        // re-running it *is* the incremental path.
        if prev.strategy == Strategy::Human {
            let layout = self.place_core(&target, Strategy::Human, ws, sink);
            let total = layout.netlist.num_instances();
            let report = ReplaceReport {
                total_instances: total,
                dirty_qubits: target.num_qubits(),
                pinned_instances: 0,
                moved_instances: total,
                carried_reports: false,
            };
            return Ok((layout, report));
        }

        let mut timings = StageTimings::default();
        let qubit_map = delta.qubit_map();
        let edge_map = delta.edge_map(base, &target);

        // Stage 1: incremental frequencies. Dirty = the delta's
        // conflict neighborhood at the assigner's own radius.
        let span = qplacer_obs::span!("freq_assign_inc", qubits = target.num_qubits());
        let dirty = delta.dirty_qubits(base, &target, self.config().assigner.conflict_radius());
        let assignment = self.config().assigner.assign_incremental_with(
            &target,
            &prev.assignment,
            &qubit_map,
            &edge_map,
            &dirty,
            &mut ws.freq,
        );
        timings.assign_ms = span.finish().as_secs_f64() * 1e3;

        // Stage 2: target netlist on the previous region (when larger),
        // seeded with the previous legalized positions.
        let mut netlist = QuantumNetlist::build(&target, &assignment, &self.config().netlist);
        let prev_region = prev.netlist.region();
        if prev_region.width() > netlist.region().width()
            || prev_region.height() > netlist.region().height()
        {
            netlist.set_region(prev_region);
        }

        // Pin rule: an instance is pinned when its previous position is
        // still exactly right — it survived, sits outside the structural
        // edit (radius-0 seeds), kept its frequency (hence its
        // footprint), and was finite. Everything else re-places from its
        // warm seed; the placer moves a non-finite seed into the region.
        let seeds = delta.dirty_qubits(base, &target, 0);
        let mut pinned = vec![false; netlist.num_instances()];
        for (q, &mapped) in qubit_map.iter().enumerate() {
            if let Some(bq) = mapped {
                let inst = netlist.qubit_instance(q);
                let seed = prev.netlist.position(prev.netlist.qubit_instance(bq));
                netlist.set_position(inst, seed);
                pinned[inst] = !seeds[q]
                    && assignment.qubit(q) == prev.assignment.qubit(bq)
                    && !seed.is_degenerate();
            }
        }
        for (e, &mapped) in edge_map.iter().enumerate() {
            if let Some(be) = mapped {
                let segs = netlist.resonator_segments(e).to_vec();
                let prev_segs = prev.netlist.resonator_segments(be).to_vec();
                for (&s, &ps) in segs.iter().zip(prev_segs.iter()) {
                    netlist.set_position(s, prev.netlist.position(ps));
                }
                // Same frequency ⇒ same length ⇒ same segment count;
                // the count check guards the pairing above regardless.
                if assignment.resonator(e) == prev.assignment.resonator(be)
                    && segs.len() == prev_segs.len()
                    && segs.iter().all(|&s| !netlist.position(s).is_degenerate())
                {
                    for &s in &segs {
                        pinned[s] = true;
                    }
                }
            }
        }

        let dirty_qubits = dirty.iter().filter(|&&d| d).count();
        let pinned_instances = pinned.iter().filter(|&&p| p).count();
        let seeded = netlist.positions().to_vec();

        // Empty (or rename-only) delta: every instance is pinned, so
        // placement and legalization would be no-ops — carry the
        // previous reports forward for byte-identical results.
        if pinned_instances == netlist.num_instances() {
            let layout = PlacedLayout {
                strategy: prev.strategy,
                netlist,
                assignment,
                placement: prev.placement.clone(),
                legalization: prev.legalization.clone(),
                timings,
                fidelity: self.config().fidelity,
            };
            let report = ReplaceReport {
                total_instances: layout.netlist.num_instances(),
                dirty_qubits,
                pinned_instances,
                moved_instances: 0,
                carried_reports: true,
            };
            return Ok((layout, report));
        }

        // Stage 3: warm global placement — always the flat engine (a
        // V-cycle would discard the seed), with a reduced iteration
        // floor so the overflow stop can fire early.
        let mut placer_cfg = self.config().placer;
        placer_cfg.frequency_aware = prev.strategy == Strategy::FrequencyAware;
        placer_cfg.levels = 1;
        placer_cfg.min_iterations = placer_cfg.min_iterations.min(WARM_MIN_ITERATIONS);
        let placement = GlobalPlacer::new(placer_cfg).execute(
            &mut netlist,
            qplacer_place::ExecOptions {
                workspace: Some(&mut ws.placer),
                sink: Some(sink),
                pinned: Some(&pinned),
            },
        );
        timings.place_ms = placement.elapsed_seconds * 1e3;

        // Stage 4: incremental legalization around the pinned cells.
        let mut legalizer_cfg = self.config().legalizer;
        if prev.strategy == Strategy::Classic {
            legalizer_cfg = legalizer_cfg.with_resonant_margin(0.0);
        }
        let span = qplacer_obs::span!("legalize", instances = netlist.num_instances());
        let legalization =
            legalizer_cfg.run_incremental_traced(&mut netlist, &mut ws.legal, &pinned, sink);
        timings.legalize_ms = span.finish().as_secs_f64() * 1e3;

        let moved_instances = (0..netlist.num_instances())
            .filter(|&i| netlist.position(i) != seeded[i])
            .count();
        let layout = PlacedLayout {
            strategy: prev.strategy,
            netlist,
            assignment,
            placement: Some(placement),
            legalization: Some(legalization),
            timings,
            fidelity: self.config().fidelity,
        };
        let report = ReplaceReport {
            total_instances: layout.netlist.num_instances(),
            dirty_qubits,
            pinned_instances,
            moved_instances,
            carried_reports: false,
        };
        Ok((layout, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_delta_reproduces_the_cold_layout_exactly() {
        let base = Topology::grid(3, 3);
        let engine = Qplacer::fast();
        let cold = engine.execute(&base, Strategy::FrequencyAware, Default::default());
        let delta = TopologyDelta::identity(&base);
        let (warm, report) = engine
            .execute_replace(&base, &cold, &delta, Default::default())
            .unwrap();

        assert!(report.carried_reports);
        assert_eq!(report.moved_instances, 0);
        assert_eq!(report.pinned_instances, report.total_instances);
        assert_eq!(warm.netlist.positions(), cold.netlist.positions());
        assert_eq!(warm.netlist.region(), cold.netlist.region());
        assert_eq!(
            warm.placement.as_ref().unwrap().iterations,
            cold.placement.as_ref().unwrap().iterations
        );
        assert_eq!(
            warm.legalization.as_ref().unwrap().remaining_overlaps,
            cold.legalization.as_ref().unwrap().remaining_overlaps
        );
        for q in 0..base.num_qubits() {
            assert_eq!(warm.assignment.qubit(q), cold.assignment.qubit(q));
        }
    }

    #[test]
    fn dropped_coupler_replace_is_legal_and_local() {
        let base = Topology::grid(4, 4);
        let engine = Qplacer::fast();
        let cold = engine.execute(&base, Strategy::FrequencyAware, Default::default());
        let (a, b) = base.edges()[base.num_edges() / 2];
        let delta = TopologyDelta::drop_couplers(&base, &[(a, b)]).unwrap();
        let (warm, report) = engine
            .execute_replace(&base, &cold, &delta, Default::default())
            .unwrap();

        assert!(!report.carried_reports);
        assert_eq!(warm.netlist.num_resonators(), base.num_edges() - 1);
        assert!(warm.netlist.overlapping_pairs().is_empty());
        assert_eq!(warm.legalization.as_ref().unwrap().remaining_overlaps, 0);
        // Locality: the edit must not ripple across the whole chip.
        assert!(
            report.moved_instances < base.num_qubits(),
            "moved {} of {} instances for a single coupler drop",
            report.moved_instances,
            report.total_instances
        );
        assert!(report.pinned_instances > report.total_instances / 2);
    }

    #[test]
    fn dropped_qubit_replace_stays_legal() {
        let base = Topology::grid(4, 4);
        let engine = Qplacer::fast();
        let cold = engine.execute(&base, Strategy::FrequencyAware, Default::default());
        let delta = TopologyDelta::drop_qubits(&base, &[5]).unwrap();
        let (warm, report) = engine
            .execute_replace(&base, &cold, &delta, Default::default())
            .unwrap();

        assert_eq!(warm.netlist.num_qubits(), base.num_qubits() - 1);
        assert!(warm.netlist.overlapping_pairs().is_empty());
        assert!(report.pinned_instances > 0);
        // The shrunken device keeps the previous (larger) region so the
        // pinned survivors stay in bounds.
        assert_eq!(warm.netlist.region(), cold.netlist.region());
    }

    #[test]
    fn defective_device_replace_matches_cold_topology() {
        let base = Topology::falcon27();
        let engine = Qplacer::fast();
        let cold = engine.execute(&base, Strategy::FrequencyAware, Default::default());
        let delta = base.yield_delta(90, 7);
        let target = delta.apply(&base).unwrap();
        assert_eq!(target, base.with_yield(90, 7));
        let (warm, report) = engine
            .execute_replace(&base, &cold, &delta, Default::default())
            .unwrap();
        assert_eq!(warm.netlist.num_qubits(), target.num_qubits());
        assert!(warm.netlist.overlapping_pairs().is_empty());
        assert!(report.pinned_instances > 0, "yield edit pinned nothing");
    }

    #[test]
    fn human_strategy_replaces_by_reconstruction() {
        let base = Topology::grid(3, 3);
        let engine = Qplacer::fast();
        let cold = engine.execute(&base, Strategy::Human, Default::default());
        let (a, b) = base.edges()[0];
        let delta = TopologyDelta::drop_couplers(&base, &[(a, b)]).unwrap();
        let (warm, report) = engine
            .execute_replace(&base, &cold, &delta, Default::default())
            .unwrap();
        assert_eq!(warm.strategy, Strategy::Human);
        assert!(warm.placement.is_none());
        assert_eq!(report.pinned_instances, 0);
    }
}
