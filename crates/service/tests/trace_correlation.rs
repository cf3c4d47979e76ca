//! Trace-context propagation end to end: client-supplied trace ids on
//! the `place` envelope must reach every event the worker records for
//! that job — and never bleed into a concurrently executing job.
//!
//! Own integration binary (separate process) because it flips the
//! process-global span/event gates; one `#[test]` keeps the global
//! event buffers single-owner.

use qplacer_obs::EventKind;
use qplacer_service::{
    ClientBuilder, DeviceSpec, PlaceJob, Server, ServiceConfig, Strategy, TracePolicy,
};

/// Pipeline phases every fresh placement must record.
const PHASES: [&str; 3] = ["pipeline", "global_place", "legalize"];

#[test]
fn client_trace_ids_correlate_a_jobs_events_and_never_cross_jobs() {
    qplacer_obs::set_spans_enabled(true);
    qplacer_obs::set_event_mode(qplacer_obs::EventMode::Capture);
    qplacer_obs::clear_events();

    let server = Server::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("bind loopback server");
    let addr = server.local_addr();

    const ID_A: u64 = 0x000A_11CE_0000_0001;
    const ID_B: u64 = 0x000B_0B00_0000_0002;

    // Two different jobs (different devices defeat the cache) run
    // concurrently on the two workers, each under its own trace id.
    let spawn = |trace_id: u64, width: usize| {
        std::thread::spawn(move || {
            let mut client = ClientBuilder::new(addr)
                .trace_policy(TracePolicy::Fixed(trace_id))
                .connect()
                .expect("connect");
            let job = PlaceJob::fast(
                DeviceSpec::Grid { width, height: 3 },
                Strategy::FrequencyAware,
            );
            client.place(&job).expect("place")
        })
    };
    let (a, b) = (spawn(ID_A, 3), spawn(ID_B, 4));
    let reply_a = a.join().expect("client A");
    let reply_b = b.join().expect("client B");
    assert!(!reply_a.cached && !reply_b.cached);
    assert_eq!(
        reply_a.trace_id,
        Some(ID_A),
        "fresh reply echoes the supplied trace id"
    );
    assert_eq!(reply_b.trace_id, Some(ID_B));

    let snapshot = qplacer_obs::event_snapshot();
    for id in [ID_A, ID_B] {
        let names: std::collections::BTreeSet<&str> = snapshot
            .events
            .iter()
            .filter(|e| e.trace_id == id)
            .map(|e| e.name.as_str())
            .collect();
        for phase in PHASES {
            assert!(
                names.contains(phase),
                "trace {id:#x} must cover phase `{phase}`, saw {names:?}"
            );
        }
    }

    // Within one thread, everything between a job's `pipeline` begin
    // and its matching end must carry that job's id — worker-adopted
    // context, no bleed from the sibling job.
    let mut tids: Vec<u32> = snapshot.events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut pipelines_checked = 0;
    for tid in tids {
        let thread_events: Vec<_> = snapshot.events.iter().filter(|e| e.tid == tid).collect();
        let mut active: Option<(u64, u32)> = None; // (trace id, depth)
        for event in thread_events {
            match (&mut active, event.kind) {
                (None, EventKind::Begin) if event.name == "pipeline" => {
                    active = Some((event.trace_id, 1));
                }
                (Some((id, depth)), kind) => {
                    assert_eq!(
                        event.trace_id, *id,
                        "event `{}` inside pipeline trace {id:#x} carries a foreign id",
                        event.name
                    );
                    match kind {
                        EventKind::Begin => *depth += 1,
                        EventKind::End => {
                            *depth -= 1;
                            if *depth == 0 {
                                active = None;
                                pipelines_checked += 1;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    assert!(
        pipelines_checked >= 2,
        "both jobs' pipelines must appear in the timeline"
    );

    // A repeat of job A is a cache hit: no pipeline ran under the
    // request, so the reply deliberately carries no trace id.
    let mut client = ClientBuilder::new(addr).connect().expect("connect");
    let job_a = PlaceJob::fast(
        DeviceSpec::Grid {
            width: 3,
            height: 3,
        },
        Strategy::FrequencyAware,
    );
    let cached = client
        .place_with_policy(&job_a, TracePolicy::Fixed(0x00C0_FFEE))
        .expect("cached place");
    assert!(cached.cached);
    assert_eq!(
        cached.trace_id, None,
        "cache hits never ran a pipeline, so they carry no trace id"
    );

    // The wire-level dump pairs with what we saw in-process: parseable
    // Chrome JSON naming the pipeline phases.
    let dump = client.dump_trace().expect("dump-trace");
    assert!(dump.events >= snapshot.events.len() as u64);
    let parsed: serde::Value =
        serde_json::from_str(&dump.chrome_json).expect("chrome dump must be valid JSON");
    let map = parsed.as_map().expect("chrome dump is a JSON object");
    assert!(
        map.iter().any(|(k, _)| k == "traceEvents"),
        "chrome dump must carry a traceEvents array"
    );
    for phase in PHASES {
        assert!(
            dump.chrome_json.contains(&format!("\"name\":\"{phase}\"")),
            "dump must name phase `{phase}`"
        );
    }

    client.shutdown().expect("graceful shutdown");
    server.join();

    qplacer_obs::set_event_mode(qplacer_obs::EventMode::Off);
    qplacer_obs::set_spans_enabled(false);
}
