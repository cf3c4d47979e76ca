//! A reused `LegalWorkspace` must not leak state between runs: the same
//! netlist legalized before and after an unrelated device gives the same
//! report and positions.

use qplacer_freq::FrequencyAssigner;
use qplacer_legal::{LegalWorkspace, Legalizer};
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_place::{ExecOptions, GlobalPlacer, PlacerConfig};
use qplacer_topology::Topology;

fn placed_netlist() -> QuantumNetlist {
    let t = Topology::falcon27();
    let freqs = FrequencyAssigner::paper_defaults().assign(&t);
    let mut nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
    GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, ExecOptions::default());
    nl
}

#[test]
fn workspace_reuse_across_different_devices_is_clean() {
    // One workspace serving falcon → grid → falcon must give the same
    // falcon result both times (no state leaks between runs).
    let base = placed_netlist();
    let legalizer = Legalizer::default();
    let mut ws = LegalWorkspace::new();

    let mut first = base.clone();
    let report_first = legalizer.run_with(&mut first, &mut ws);

    let t2 = Topology::grid(2, 2);
    let freqs2 = FrequencyAssigner::paper_defaults().assign(&t2);
    let mut other = QuantumNetlist::build(&t2, &freqs2, &NetlistConfig::default());
    GlobalPlacer::new(PlacerConfig::fast()).execute(&mut other, ExecOptions::default());
    let _ = legalizer.run_with(&mut other, &mut ws);

    let mut second = base.clone();
    let report_second = legalizer.run_with(&mut second, &mut ws);

    assert_eq!(report_first, report_second);
    assert_eq!(first.positions(), second.positions());
}
