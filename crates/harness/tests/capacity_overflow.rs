//! The placer's stop metric on whole-pipeline layouts: capacity
//! overflow ([`DensityModel::overflow`], the fraction of instance area
//! deposited above bin capacity) scores a legalized layout about 0.
//! Only the rounding of bin sums remains, so a legal seed would pass
//! the 0.001 stop target at once.

use qplacer_harness::{Qplacer, Strategy};
use qplacer_place::DensityModel;
use qplacer_topology::Topology;

#[test]
fn legal_layouts_score_about_zero() {
    let engine = Qplacer::fast();
    for device in [Topology::grid(3, 3), Topology::falcon27()] {
        for strategy in [Strategy::FrequencyAware, Strategy::Classic] {
            let layout = engine.execute(&device, strategy, Default::default());
            let what = format!("{} {strategy}", device.name());
            let legal = layout
                .legalization
                .as_ref()
                .expect("placed layouts legalize");
            assert_eq!(legal.remaining_overlaps, 0, "{what}: overlaps");

            let nl = &layout.netlist;
            let overflow = DensityModel::for_netlist(nl).overflow(nl, nl.positions());
            assert!(overflow < 1e-4, "{what}: legal layout overflow {overflow}");
        }
    }
}
