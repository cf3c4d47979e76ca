//! The convergence-trace JSONL sidecar must be machine-readable: every
//! line parses as a JSON object with the documented per-`type` fields,
//! placer iteration indices are contiguous per job, and every job in
//! the plan contributes records for all three pipeline stages. The
//! timing fields come from span guards, which keep their clocks while
//! spans are disabled (this binary never enables them), so each job's
//! timings must add up to more than zero.

use qplacer_harness::{DeviceSpec, ExperimentPlan, JobSpec, Profile, RunOptions, Runner, Strategy};

fn two_job_plan() -> ExperimentPlan {
    let mut plan = ExperimentPlan::new("trace-schema").with_profile(Profile::Fast);
    for device in [
        DeviceSpec::Grid {
            width: 2,
            height: 2,
        },
        DeviceSpec::Grid {
            width: 2,
            height: 3,
        },
    ] {
        plan.jobs.push(JobSpec {
            device,
            strategy: Strategy::FrequencyAware,
            benchmark: None,
            subsets: 0,
            seed: 0,
            segment_size_mm: None,
            levels: None,
        });
    }
    plan
}

fn str_field(map: &[(String, serde_json::Value)], key: &str) -> String {
    serde_json::Value::field(map, key)
        .unwrap_or_else(|e| panic!("missing `{key}`: {e}"))
        .as_str()
        .unwrap_or_else(|| panic!("`{key}` is not a string"))
        .to_string()
}

fn u64_field(map: &[(String, serde_json::Value)], key: &str) -> u64 {
    match serde_json::Value::field(map, key).unwrap_or_else(|e| panic!("missing `{key}`: {e}")) {
        serde_json::Value::I64(n) if *n >= 0 => *n as u64,
        serde_json::Value::U64(n) => *n,
        other => panic!("`{key}` is not an unsigned integer: {other:?}"),
    }
}

#[test]
fn trace_jsonl_schema_is_stable() {
    let plan = two_job_plan();
    let dir = std::env::temp_dir().join(format!("qplacer-trace-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");

    let report = Runner::new(2)
        .execute(
            &plan,
            RunOptions {
                trace_path: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap()
        .report;
    assert_eq!(report.records.len(), 2);

    assert!(!qplacer_obs::spans_enabled(), "spans stay disabled here");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.trim().is_empty(), "trace file must not be empty");

    // Per job: the contiguous placer iteration counter and the set of
    // stage kinds seen.
    let mut next_iteration = vec![0u64; plan.jobs.len()];
    let mut kinds_seen = vec![std::collections::BTreeSet::new(); plan.jobs.len()];
    let mut timing_ns = vec![0u64; plan.jobs.len()];
    for line in text.lines() {
        let value: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("invalid JSON `{line}`: {e}"));
        let map = value.as_map().expect("each trace line is a JSON object");

        let job = str_field(map, "job");
        let (plan_name, index) = job.split_once('/').expect("label is `<plan>/<index>`");
        assert_eq!(plan_name, "trace-schema");
        let index: usize = index.parse().expect("job index is numeric");
        assert!(index < plan.jobs.len());

        let kind = str_field(map, "type");
        kinds_seen[index].insert(kind.clone());
        match kind.as_str() {
            "place_iteration" => {
                assert_eq!(
                    u64_field(map, "iteration"),
                    next_iteration[index],
                    "iteration indices must be contiguous per job"
                );
                next_iteration[index] += 1;
                for key in ["deposit_ns", "poisson_ns", "gather_ns"] {
                    timing_ns[index] += u64_field(map, key);
                }
                for key in ["overflow", "wirelength", "max_force"] {
                    assert!(
                        serde_json::Value::field(map, key).is_ok(),
                        "missing `{key}` in `{line}`"
                    );
                }
            }
            "legal_phase" | "freq_phase" => {
                let phase = str_field(map, "phase");
                assert!(!phase.is_empty());
                timing_ns[index] += u64_field(map, "elapsed_ns");
                let _ = u64_field(map, "items");
            }
            other => panic!("unknown trace record type `{other}`"),
        }
    }

    for (index, kinds) in kinds_seen.iter().enumerate() {
        for expected in ["place_iteration", "legal_phase", "freq_phase"] {
            assert!(
                kinds.contains(expected),
                "job {index} emitted no `{expected}` records"
            );
        }
        assert!(
            next_iteration[index] > 0,
            "job {index} traced no iterations"
        );
        assert!(
            timing_ns[index] > 0,
            "job {index} reports no time with spans disabled"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
