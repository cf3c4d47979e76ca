//! The incremental (ECO) determinism contract: replaying an **empty**
//! `TopologyDelta` through `Qplacer::execute_replace` must reproduce the cold
//! run's derived `PlacementResult` **byte-for-byte**. Nothing is
//! unpinned, so warm placement and legalization are skipped entirely
//! and the previous reports are carried forward — the serialized result
//! has no timing-dependent freedom left. (Wall-time fields live in the
//! reply envelope, not in `PlacementResult`, which is what the service
//! cache stores and serves.)

use qplacer_harness::{ExecOptions, Qplacer, Strategy};
use qplacer_service::PlacementResult;
use qplacer_topology::{Topology, TopologyDelta};

#[test]
fn empty_delta_result_is_byte_identical_to_cold() {
    let base = Topology::grid(3, 3);
    let engine = Qplacer::fast();
    let cold = engine.execute(&base, Strategy::FrequencyAware, ExecOptions::default());
    let delta = TopologyDelta::identity(&base);
    let (warm, report) = engine
        .execute_replace(&base, &cold, &delta, ExecOptions::default())
        .expect("identity applies");
    assert!(report.carried_reports, "empty delta must carry reports");
    assert_eq!(report.moved_instances, 0);
    assert_eq!(
        serde_json::to_string(&PlacementResult::from_layout("grid-3x3", &cold)).unwrap(),
        serde_json::to_string(&PlacementResult::from_layout("grid-3x3", &warm)).unwrap(),
        "empty-delta replace diverged from its cold run"
    );
}
