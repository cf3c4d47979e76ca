//! Ablation study over QPlacer's design choices, one knob at a time on
//! Falcon:
//!
//! 1. frequency-force weight (0 = Classic … strong),
//! 2. legalizer resonance awareness (strict-τ margin on/off),
//! 3. qubit-legalizer algorithm (spiral+MCMF vs Abacus rows),
//! 4. frequency-assignment conflict radius (1 vs 2 hops),
//! 5. router policy (greedy shortest-path vs SABRE lookahead).

use qplacer::{ExecOptions, FrequencyAssigner, Legalizer, PipelineConfig, Qplacer, Strategy};
use qplacer_circuits::{generators, Router, SabreRouter};
use qplacer_freq::Spectrum;
use qplacer_legal::QubitLegalizerKind;
use qplacer_topology::Topology;

fn main() {
    let device = Topology::falcon27();
    println!("# Ablation study on {}\n", device.name());

    // 1. Frequency-force weight.
    println!("## frequency force weight (Ph % / impacted / bv-9 fidelity)");
    for fw in [0.0, 0.3, 1.0, 3.0] {
        let mut cfg = PipelineConfig::paper();
        cfg.placer.freq_weight = fw;
        cfg.placer.frequency_aware = fw > 0.0;
        let layout =
            Qplacer::new(cfg).execute(&device, Strategy::FrequencyAware, ExecOptions::default());
        let hs = layout.hotspots();
        let f = layout
            .evaluate(&device, &generators::bv(9), 20, 0xAB)
            .mean_fidelity;
        println!(
            "  fw={fw:<4} Ph={:5.2}% impacted={:2} bv9={:.3e}",
            hs.ph * 100.0,
            hs.impacted_qubits.len(),
            f
        );
    }

    // 2. Legalizer resonance margin.
    println!("\n## legalizer resonant margin (strict τ pass)");
    for margin in [0.0, 0.3] {
        let mut cfg = PipelineConfig::paper();
        cfg.legalizer = Legalizer::default().with_resonant_margin(margin);
        let layout =
            Qplacer::new(cfg).execute(&device, Strategy::FrequencyAware, ExecOptions::default());
        let hs = layout.hotspots();
        println!(
            "  margin={margin:<4} Ph={:5.2}% impacted={:2}",
            hs.ph * 100.0,
            hs.impacted_qubits.len()
        );
    }

    // 3. Qubit legalizer algorithm.
    println!("\n## qubit legalizer (displacement / Ph)");
    for (name, kind) in [
        ("spiral+mcmf", QubitLegalizerKind::SpiralMcmf),
        ("abacus", QubitLegalizerKind::Abacus),
    ] {
        let mut cfg = PipelineConfig::paper();
        cfg.legalizer = Legalizer::default().with_qubit_legalizer(kind);
        let layout =
            Qplacer::new(cfg).execute(&device, Strategy::FrequencyAware, ExecOptions::default());
        let legal = layout.legalization.as_ref().unwrap();
        let hs = layout.hotspots();
        println!(
            "  {name:<12} mean_disp={:.3}mm max_disp={:.3}mm Ph={:5.2}% overlaps={}",
            legal.mean_qubit_displacement,
            legal.max_qubit_displacement,
            hs.ph * 100.0,
            legal.remaining_overlaps
        );
    }

    // 4. Frequency-assignment conflict radius.
    println!("\n## frequency assignment conflict radius");
    for radius in [1usize, 2] {
        let mut cfg = PipelineConfig::paper();
        cfg.assigner = FrequencyAssigner::new(
            Spectrum::paper_qubit_band(),
            Spectrum::paper_resonator_band(),
            radius,
        );
        let layout =
            Qplacer::new(cfg).execute(&device, Strategy::FrequencyAware, ExecOptions::default());
        let hs = layout.hotspots();
        let f = layout
            .evaluate(&device, &generators::bv(9), 20, 0xAB)
            .mean_fidelity;
        println!(
            "  radius={radius} Ph={:5.2}% impacted={:2} bv9={:.3e}",
            hs.ph * 100.0,
            hs.impacted_qubits.len(),
            f
        );
    }

    // 5. Router policy.
    println!("\n## router swap counts (16-qubit Falcon patch)");
    let subset: Vec<usize> = (0..16).collect();
    println!("  {:<10} {:>7} {:>7}", "benchmark", "greedy", "sabre");
    for bench in qplacer::paper_suite() {
        if bench.circuit.num_qubits() > subset.len() {
            continue;
        }
        let greedy = Router::new(&device)
            .route(&bench.circuit, &subset)
            .map(|r| r.swap_count)
            .unwrap_or(usize::MAX);
        let sabre = SabreRouter::new(&device)
            .route(&bench.circuit, &subset)
            .map(|r| r.swap_count)
            .unwrap_or(usize::MAX);
        println!("  {:<10} {:>7} {:>7}", bench.name, greedy, sabre);
    }
}
