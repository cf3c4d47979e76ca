//! Property tests for the wire protocol and the cache key.
//!
//! Every message kind must survive `serialize → parse` bit-exactly
//! (the protocol is line-based JSON, so this also pins down string
//! escaping and float round-tripping), and the cache key must be a
//! function of the request's *content* — invariant to JSON field order,
//! sensitive to every config field.

use proptest::prelude::*;

use qplacer_service::{
    cache_key, config_fingerprint, DeviceSpec, ErrorCode, HistogramSnapshot, MetricsSnapshot,
    PlaceJob, PlacementResult, Priority, Profile, Reply, Request, Strategy as Arm,
    PROTOCOL_VERSION,
};

fn arb_device() -> impl Strategy<Value = DeviceSpec> {
    let base = prop_oneof![
        (1usize..6, 1usize..6).prop_map(|(width, height)| DeviceSpec::Grid { width, height }),
        Just(DeviceSpec::Falcon27),
        Just(DeviceSpec::Eagle127),
        (2usize..8).prop_map(|distance| DeviceSpec::HeavyHex { distance }),
        (3usize..40).prop_map(|qubits| DeviceSpec::Ring { qubits }),
        (2usize..20).prop_map(|rungs| DeviceSpec::Ladder { rungs }),
        (1usize..3, 1usize..5).prop_map(|(rows, cols)| DeviceSpec::Aspen { rows, cols }),
        (2usize..4, 1usize..3, 1usize..3).prop_map(|(root, branch, levels)| DeviceSpec::Xtree {
            root,
            branch,
            levels
        }),
        (0usize..5).prop_map(|i| DeviceSpec::FromJson {
            path: format!("devices/tricky \"name\" {i}.json"),
        }),
    ];
    // One level of defect wrapping over any base spec.
    (
        base,
        prop_oneof![Just(None), ((0u32..=100), (0u64..50)).prop_map(Some)],
    )
        .prop_map(|(base, defect)| match defect {
            None => base,
            Some((yield_pct, seed)) => DeviceSpec::Defective {
                base: Box::new(base),
                yield_pct,
                seed,
            },
        })
}

fn arb_strategy() -> impl Strategy<Value = Arm> {
    prop_oneof![
        Just(Arm::FrequencyAware),
        Just(Arm::Classic),
        Just(Arm::Human),
    ]
}

fn arb_profile() -> impl Strategy<Value = Profile> {
    prop_oneof![Just(Profile::Paper), Just(Profile::Fast)]
}

fn arb_priority() -> impl Strategy<Value = Priority> {
    prop_oneof![
        Just(Priority::High),
        Just(Priority::Normal),
        Just(Priority::Low),
    ]
}

fn arb_tenant() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        Just(Some("team-a".to_string())),
        Just(Some("tricky \"tenant\" μ".to_string())),
    ]
}

fn arb_job() -> impl Strategy<Value = PlaceJob> {
    (
        (
            arb_device(),
            arb_strategy(),
            arb_profile(),
            prop_oneof![Just(None), (0.2f64..0.5).prop_map(Some)],
            prop_oneof![Just(None), (0u64..60_000).prop_map(Some)],
        ),
        (arb_priority(), arb_tenant()),
    )
        .prop_map(
            |((device, strategy, profile, segment_size_mm, deadline_ms), (priority, tenant))| {
                PlaceJob {
                    device,
                    strategy,
                    profile,
                    segment_size_mm,
                    deadline_ms,
                    priority,
                    tenant,
                }
            },
        )
}

fn arb_message() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("plain cause".to_string()),
        Just("tricky \"quotes\" \\ backslash".to_string()),
        Just("newline\nand\ttab and unicode μs".to_string()),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    let id = 0u64..1_000_000;
    prop_oneof![
        (id.clone(), 0u32..4).prop_map(|(id, version)| Request::Hello { id, version }),
        (id.clone(), arb_job(), arb_trace_id()).prop_map(|(id, job, trace_id)| Request::Place {
            id,
            job,
            trace_id
        }),
        id.clone().prop_map(|id| Request::DumpTrace { id }),
        id.clone().prop_map(|id| Request::Stats { id }),
        id.clone().prop_map(|id| Request::Metrics { id }),
        id.clone().prop_map(|id| Request::Ping { id }),
        id.prop_map(|id| Request::Shutdown { id }),
    ]
}

/// `None` or a spread-out nonzero id — exercises both the `null` and
/// the numeric `trace_id` envelope shapes.
fn arb_trace_id() -> impl Strategy<Value = Option<u64>> {
    (0u64..4).prop_map(|t| {
        if t == 0 {
            None
        } else {
            Some(t.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        }
    })
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::BadRequest),
        Just(ErrorCode::VersionMismatch),
        Just(ErrorCode::Busy),
        Just(ErrorCode::ShuttingDown),
        Just(ErrorCode::DeadlineExceeded),
        Just(ErrorCode::InvalidDevice),
        Just(ErrorCode::PipelineFailed),
        Just(ErrorCode::QuotaExceeded),
    ]
}

fn arb_result() -> impl Strategy<Value = PlacementResult> {
    (
        arb_device(),
        arb_strategy(),
        prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 0..12),
        (0usize..800, 0.0f64..100.0, 0.0f64..400.0),
        (0.0f64..1.0, 0.0f64..1.0, 0usize..20, 0usize..4),
    )
        .prop_map(|(device, strategy, positions, a, b)| {
            let (place_iterations, hpwl_mm, mer_area_mm2) = a;
            let (utilization, ph, violations, remaining_overlaps) = b;
            PlacementResult {
                device: device.name(),
                strategy: strategy.to_string(),
                instances: positions.len(),
                positions,
                place_iterations,
                hpwl_mm,
                mer_area_mm2,
                utilization,
                ph,
                violations,
                remaining_overlaps,
            }
        })
}

fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    prop::collection::vec(0u64..50, 16).prop_map(|buckets| {
        let count = buckets.iter().sum();
        let total_ms = count as f64 * 1.5;
        HistogramSnapshot {
            buckets,
            count,
            total_ms,
            mean_ms: if count > 0 { 1.5 } else { 0.0 },
            dropped: count % 3,
        }
    })
}

fn arb_metrics() -> impl Strategy<Value = MetricsSnapshot> {
    (
        (0u64..500, 0u64..500, 0u64..50, 0u64..50, 0u64..50),
        (0u64..100, 0u64..400, 0usize..32, 0usize..8),
        (0u64..300, 0u64..300, 0usize..64, 0u64..40),
        (
            arb_histogram(),
            arb_histogram(),
            arb_histogram(),
            arb_histogram(),
        ),
    )
        .prop_map(|(counts, flow, cache, stages)| {
            let (requests, placed, errors, rejected_busy, deadline_expired) = counts;
            let (batches, batched_jobs, queue_depth, in_flight) = flow;
            let (cache_hits, cache_misses, cache_entries, cache_evictions) = cache;
            let (assign, place, legalize, total) = stages;
            let lookups = cache_hits + cache_misses;
            MetricsSnapshot {
                uptime_ms: requests * 13,
                rejected_invalid_device: errors % 5,
                warm_placements: placed % 3,
                requests,
                placed,
                errors,
                rejected_busy,
                rejected_quota: rejected_busy % 2,
                deadline_expired,
                open_connections: in_flight + 1,
                batches,
                batched_jobs,
                queue_depth,
                in_flight,
                cache_hits,
                cache_misses,
                cache_entries,
                cache_evictions,
                cache_hit_rate: if lookups > 0 {
                    cache_hits as f64 / lookups as f64
                } else {
                    0.0
                },
                shard_id: batches % 4,
                shards: 4,
                store_replayed: cache_hits % 7,
                store_appended: cache_misses % 7,
                assign,
                place,
                legalize,
                total,
            }
        })
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    let id = 0u64..1_000_000;
    prop_oneof![
        (id.clone(), arb_message()).prop_map(|(id, server)| Reply::Hello {
            id,
            version: PROTOCOL_VERSION,
            server
        }),
        (
            id.clone(),
            0u32..2,
            0.0f64..5e3,
            arb_trace_id(),
            arb_result()
        )
            .prop_map(|(id, cached, wall_ms, trace_id, result)| Reply::Placed {
                id,
                cached: cached == 1,
                wall_ms,
                trace_id,
                result
            }),
        (id.clone(), 0u64..5_000, 0u64..500, arb_message()).prop_map(
            |(id, events, dropped, chrome_json)| Reply::TraceDump {
                id,
                events,
                dropped,
                chrome_json
            }
        ),
        (id.clone(), arb_metrics()).prop_map(|(id, metrics)| Reply::Stats { id, metrics }),
        (id.clone(), arb_message()).prop_map(|(id, text)| Reply::MetricsText { id, text }),
        id.clone().prop_map(|id| Reply::Pong { id }),
        id.clone().prop_map(|id| Reply::ShuttingDown { id }),
        (id, arb_error_code(), arb_message()).prop_map(|(id, code, message)| Reply::Error {
            id,
            code,
            message
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn requests_round_trip(request in arb_request()) {
        let line = request.to_line();
        prop_assert!(!line.contains('\n'), "wire lines must be single-line: {line}");
        let back = Request::parse(&line).unwrap();
        prop_assert_eq!(&back, &request);
        // Serialization is canonical: a second trip is byte-identical.
        prop_assert_eq!(back.to_line(), line);
    }

    #[test]
    fn replies_round_trip(reply in arb_reply()) {
        let line = reply.to_line();
        prop_assert!(!line.contains('\n'), "wire lines must be single-line: {line}");
        let back = Reply::parse(&line).unwrap();
        prop_assert_eq!(&back, &reply);
        prop_assert_eq!(back.to_line(), line);
    }

    #[test]
    fn cache_key_is_a_pure_function_of_content(job in arb_job()) {
        prop_assert_eq!(cache_key(&job), cache_key(&job.clone()));
        // Deadlines schedule, they don't define the result.
        let mut relaxed = job.clone();
        relaxed.deadline_ms = job.deadline_ms.map(|d| d + 1).or(Some(1));
        prop_assert_eq!(cache_key(&relaxed), cache_key(&job));
    }
}

/// The key must not depend on the order fields appear in the request
/// JSON — only on the parsed content.
#[test]
fn cache_key_ignores_json_field_order() {
    let a = r#"{"Place":{"id":1,"job":{"device":"Falcon27","strategy":"FrequencyAware","profile":"Fast","segment_size_mm":0.3,"deadline_ms":null,"priority":"Normal","tenant":null},"trace_id":null}}"#;
    let b = r#"{"Place":{"trace_id":null,"job":{"tenant":null,"priority":"Normal","deadline_ms":null,"segment_size_mm":0.3,"profile":"Fast","strategy":"FrequencyAware","device":"Falcon27"},"id":1}}"#;
    let (ja, jb) = match (Request::parse(a).unwrap(), Request::parse(b).unwrap()) {
        (Request::Place { job: ja, .. }, Request::Place { job: jb, .. }) => (ja, jb),
        other => panic!("expected two Place requests, got {other:?}"),
    };
    assert_eq!(ja, jb);
    assert_eq!(cache_key(&ja), cache_key(&jb));
}

/// Changing any field of the resolved pipeline configuration must change
/// the fingerprint: the cache may never serve a stale config's layout.
#[test]
fn fingerprint_changes_with_every_config_field() {
    use qplacer_harness::PipelineConfig;

    let device = DeviceSpec::Falcon27;
    let strategy = Arm::FrequencyAware;
    let base = PipelineConfig::paper();
    let key = |config: &PipelineConfig| config_fingerprint(&device, strategy, config);
    let base_key = key(&base);

    type Mutation = Box<dyn Fn(&mut PipelineConfig)>;
    let mutations: Vec<(&str, Mutation)> = vec![
        (
            "placer.max_iterations",
            Box::new(|c| c.placer.max_iterations += 1),
        ),
        (
            "placer.min_iterations",
            Box::new(|c| c.placer.min_iterations += 1),
        ),
        (
            "placer.target_overflow",
            Box::new(|c| c.placer.target_overflow *= 1.5),
        ),
        (
            "placer.lambda_growth",
            Box::new(|c| c.placer.lambda_growth += 0.01),
        ),
        (
            "placer.freq_weight",
            Box::new(|c| c.placer.freq_weight += 0.1),
        ),
        (
            "placer.freq_growth",
            Box::new(|c| c.placer.freq_growth += 0.01),
        ),
        (
            "placer.frequency_aware",
            Box::new(|c| c.placer.frequency_aware = false),
        ),
        (
            "placer.gamma_fraction",
            Box::new(|c| c.placer.gamma_fraction *= 2.0),
        ),
        (
            "placer.step_fraction",
            Box::new(|c| c.placer.step_fraction *= 2.0),
        ),
        ("placer.bins", Box::new(|c| c.placer.bins = Some(64))),
        (
            "netlist.segment_size_mm",
            Box::new(|c| c.netlist.segment_size_mm += 0.05),
        ),
        (
            "netlist.qubit_padding_mm",
            Box::new(|c| c.netlist.qubit_padding_mm += 0.05),
        ),
        (
            "netlist.resonator_padding_mm",
            Box::new(|c| c.netlist.resonator_padding_mm += 0.05),
        ),
        (
            "netlist.qubit_size_mm",
            Box::new(|c| c.netlist.qubit_size_mm += 0.05),
        ),
        (
            "netlist.target_utilization",
            Box::new(|c| c.netlist.target_utilization *= 0.9),
        ),
        (
            "legalizer.resolution_mm",
            Box::new(|c| c.legalizer.resolution_mm *= 2.0),
        ),
        (
            "legalizer.resonant_margin_mm",
            Box::new(|c| c.legalizer = c.legalizer.with_resonant_margin(0.77)),
        ),
        (
            "fidelity.single_qubit_error",
            Box::new(|c| c.fidelity.single_qubit_error *= 2.0),
        ),
        ("fidelity.t1_ns", Box::new(|c| c.fidelity.t1_ns *= 2.0)),
        (
            "fidelity.hotspot.resonant_margin_mm",
            Box::new(|c| c.fidelity.hotspot.resonant_margin_mm += 0.1),
        ),
        (
            "assigner",
            Box::new(|c| {
                c.assigner = qplacer_freq::FrequencyAssigner::new(
                    c.assigner.qubit_band(),
                    c.assigner.resonator_band(),
                    3,
                )
            }),
        ),
    ];
    for (name, mutate) in mutations {
        let mut changed = base;
        mutate(&mut changed);
        assert_ne!(
            key(&changed),
            base_key,
            "mutating {name} did not change the fingerprint"
        );
    }

    // Device and strategy participate too.
    assert_ne!(
        config_fingerprint(&DeviceSpec::Eagle127, strategy, &base),
        base_key
    );
    assert_ne!(config_fingerprint(&device, Arm::Classic, &base), base_key);
}
