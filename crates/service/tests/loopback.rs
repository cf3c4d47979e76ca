//! Loopback integration: a real server on an ephemeral port, driven by
//! concurrent clients over TCP.
//!
//! Pins down the acceptance criteria: concurrent identical requests get
//! byte-identical `PlacementResult`s, a second wave is served from
//! cache (hit counter moves), deadlines, version mismatches and
//! oversized lines surface as typed errors, and graceful shutdown
//! drains queued jobs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use qplacer_service::{
    ClientBuilder, DeviceSpec, ErrorCode, PlaceJob, Reply, Request, Server, ServiceConfig,
    ServiceError, Strategy, PROTOCOL_VERSION,
};

fn start(workers: usize) -> Server {
    Server::start(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    })
    .expect("bind loopback server")
}

fn falcon_job() -> PlaceJob {
    PlaceJob::fast(DeviceSpec::Falcon27, Strategy::FrequencyAware)
}

/// N concurrent clients submit the identical falcon job twice; every
/// reply must carry byte-identical result JSON, and the second wave
/// must hit the cache.
#[test]
fn concurrent_identical_requests_are_deterministic_and_cached() {
    const CLIENTS: usize = 4;
    let server = start(2);
    let addr = server.local_addr();

    let wave = || -> Vec<(bool, String)> {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = ClientBuilder::new(addr).connect().expect("connect");
                    let reply = client.place(&falcon_job()).expect("place");
                    let json = serde_json::to_string(&reply.result).expect("result serializes");
                    (reply.cached, json)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    };

    let first = wave();
    let reference = &first[0].1;
    for (_cached, json) in &first {
        assert_eq!(
            json, reference,
            "concurrent identical requests must serialize byte-identically"
        );
    }

    let second = wave();
    for (cached, json) in &second {
        assert_eq!(json, reference, "cached wave must match the fresh wave");
        assert!(*cached, "second wave must be served from cache");
    }

    let mut client = ClientBuilder::new(addr)
        .connect()
        .expect("connect for stats");
    let stats = client.stats().expect("stats");
    assert!(
        stats.cache_hits > 0,
        "cache hit counter must move: {stats:?}"
    );
    assert_eq!(stats.placed as usize, 2 * CLIENTS);
    assert!(stats.cache_entries >= 1);
    assert!(stats.batches >= 1, "work must flow through batch dispatch");
    assert!(
        stats.place.count >= 1,
        "fresh placements must be histogrammed"
    );
    assert_eq!(stats.queue_depth, 0, "queue must drain");
    assert_eq!(stats.in_flight, 0, "no jobs may linger in flight");

    client.shutdown().expect("graceful shutdown");
    server.join();
}

/// Pipelined placements queued before a shutdown request must still be
/// answered (drain semantics), and the server must then exit.
#[test]
fn shutdown_drains_queued_jobs() {
    let server = start(1);
    let addr = server.local_addr();

    // Raw socket so we can pipeline without waiting for replies.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let hello = Request::Hello {
        id: 1,
        version: PROTOCOL_VERSION,
    };
    writeln!(stream, "{}", hello.to_line()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        Reply::parse(line.trim()).unwrap(),
        Reply::Hello { .. }
    ));

    // Three distinct jobs (different devices defeat the cache), then an
    // immediate shutdown — all pipelined before reading any reply.
    let devices = [
        DeviceSpec::Grid {
            width: 2,
            height: 2,
        },
        DeviceSpec::Grid {
            width: 2,
            height: 3,
        },
        DeviceSpec::Grid {
            width: 3,
            height: 3,
        },
    ];
    for (i, device) in devices.iter().enumerate() {
        let req = Request::Place {
            id: 10 + i as u64,
            job: PlaceJob::fast(device.clone(), Strategy::FrequencyAware),
            trace_id: None,
        };
        writeln!(stream, "{}", req.to_line()).unwrap();
    }
    writeln!(stream, "{}", Request::Shutdown { id: 99 }.to_line()).unwrap();
    stream.flush().unwrap();

    let mut placed = 0;
    let mut acknowledged = false;
    for _ in 0..4 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match Reply::parse(line.trim()).unwrap() {
            Reply::Placed { id, result, .. } => {
                assert!((10..13).contains(&id));
                assert_eq!(result.remaining_overlaps, 0);
                placed += 1;
            }
            Reply::ShuttingDown { id } => {
                assert_eq!(id, 99);
                acknowledged = true;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(placed, 3, "queued jobs must drain through shutdown");
    assert!(acknowledged);
    drop(stream);
    server.join(); // must return: acceptor stopped, workers drained
}

/// Typed error paths: version mismatch, expired deadline, garbage line.
#[test]
fn error_paths_are_typed() {
    let server = start(1);
    let addr = server.local_addr();

    // Version mismatch at handshake.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    writeln!(
        stream,
        "{}",
        Request::Hello {
            id: 1,
            version: PROTOCOL_VERSION + 1,
        }
        .to_line()
    )
    .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Reply::parse(line.trim()).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::VersionMismatch),
        other => panic!("expected version mismatch, got {other:?}"),
    }

    // Garbage line.
    writeln!(stream, "this is not json").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    match Reply::parse(line.trim()).unwrap() {
        Reply::Error { code, id, .. } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert_eq!(id, 0);
        }
        other => panic!("expected bad request, got {other:?}"),
    }

    // A zero deadline always expires before the worker runs it.
    let mut client = ClientBuilder::new(addr).connect().expect("connect");
    let mut job = falcon_job();
    job.deadline_ms = Some(0);
    match client.place(&job) {
        Err(ServiceError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::DeadlineExceeded);
        }
        other => panic!("expected deadline error, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.deadline_expired, 1);
    assert!(stats.errors >= 2);

    client.shutdown().expect("shutdown");
    server.join();
}

/// A defective device whose base was already placed under the same
/// strategy and config is served by the incremental warm-start path
/// (counted in `warm_placements`), lands in the result cache like any
/// other placement, and stays isolated across strategies.
#[test]
fn defective_requests_warm_start_from_their_placed_base() {
    let server = start(1);
    let addr = server.local_addr();
    let mut client = ClientBuilder::new(addr).connect().expect("connect");

    // Cold-place the base; this also stores it as a warm-start entry.
    let base = client.place(&falcon_job()).expect("place base");
    assert!(base.result.remaining_overlaps == 0);

    // A defective wrap of the same base is a cache miss but a warm
    // near-hit: it must be answered by incremental re-placement.
    let defective = PlaceJob::fast(
        DeviceSpec::Defective {
            base: Box::new(DeviceSpec::Falcon27),
            yield_pct: 90,
            seed: 1,
        },
        Strategy::FrequencyAware,
    );
    let reply = client.place(&defective).expect("place defective");
    assert!(!reply.cached, "near-hit still computes a layout");
    assert_eq!(reply.result.device, "Falcon-y90-s1");
    assert_eq!(reply.result.remaining_overlaps, 0);
    assert!(reply.result.instances > 0);

    // Re-requesting the defective spec is now a plain cache hit.
    let again = client.place(&defective).expect("re-place defective");
    assert!(again.cached);
    assert_eq!(
        serde_json::to_string(&again.result).unwrap(),
        serde_json::to_string(&reply.result).unwrap(),
        "cached warm result must be byte-identical"
    );

    // A different strategy shares no warm base: it places cold.
    let classic = PlaceJob::fast(
        DeviceSpec::Defective {
            base: Box::new(DeviceSpec::Falcon27),
            yield_pct: 90,
            seed: 1,
        },
        Strategy::Classic,
    );
    let cold = client.place(&classic).expect("place classic defective");
    assert!(!cold.cached);

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.warm_placements, 1,
        "exactly the matching-config defective request may warm-start: {stats:?}"
    );
    client.shutdown().expect("shutdown");
    server.join();
}

/// Zoo devices place over the wire, and unplaceable specs are rejected
/// at admission with the typed `invalid-device` error — they never
/// reach a worker, never panic the pipeline, and never poison the
/// cache.
#[test]
fn zoo_devices_place_and_invalid_devices_are_rejected() {
    let server = start(1);
    let addr = server.local_addr();
    let mut client = ClientBuilder::new(addr).connect().expect("connect");

    // A heavy-hex and a defective device flow end-to-end.
    for device in [
        DeviceSpec::HeavyHex { distance: 3 },
        DeviceSpec::Defective {
            base: Box::new(DeviceSpec::Eagle127),
            yield_pct: 90,
            seed: 7,
        },
    ] {
        let reply = client
            .place(&PlaceJob::fast(device.clone(), Strategy::FrequencyAware))
            .unwrap_or_else(|e| panic!("{device:?}: {e}"));
        assert_eq!(reply.result.remaining_overlaps, 0, "{device:?}");
        assert_eq!(reply.result.device, device.name());
    }

    // Defects that isolate everything (yield 0) must be refused with a
    // typed error at admission.
    let dead = PlaceJob::fast(
        DeviceSpec::Defective {
            base: Box::new(DeviceSpec::Falcon27),
            yield_pct: 0,
            seed: 1,
        },
        Strategy::FrequencyAware,
    );
    match client.place(&dead) {
        Err(ServiceError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::InvalidDevice);
            assert!(!message.is_empty());
        }
        other => panic!("expected invalid-device, got {other:?}"),
    }
    // A missing JSON import too.
    let missing = PlaceJob::fast(
        DeviceSpec::FromJson {
            path: "/nonexistent/calibration.json".to_string(),
        },
        Strategy::FrequencyAware,
    );
    match client.place(&missing) {
        Err(ServiceError::Remote { code, .. }) => assert_eq!(code, ErrorCode::InvalidDevice),
        other => panic!("expected invalid-device, got {other:?}"),
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.placed, 2);
    assert!(stats.errors >= 2);
    assert_eq!(
        stats.rejected_invalid_device, 2,
        "both admission rejections must be counted per error code"
    );

    // The same story over the Prometheus-text surface.
    let text = client.metrics_text().expect("metrics");
    assert!(text.contains("qplacer_jobs_total 2\n"), "{text}");
    assert!(
        text.contains("qplacer_rejected_invalid_device_total 2\n"),
        "{text}"
    );
    assert!(
        text.contains("qplacer_total_latency_ms_bucket{le=\"+Inf\"} 2\n"),
        "{text}"
    );

    client.shutdown().expect("shutdown");
    server.join();
}

/// After shutdown begins, new placements are refused with
/// `ShuttingDown` but stats/ping still answer on open connections.
#[test]
fn draining_server_refuses_new_work() {
    let server = start(1);
    let addr = server.local_addr();
    let mut client = ClientBuilder::new(addr).connect().expect("connect");
    client.place(&falcon_job()).expect("warm placement");
    client.shutdown().expect("shutdown");
    match client.place(&falcon_job()) {
        Err(ServiceError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected shutting-down error, got {other:?}"),
    }
    client.ping().expect("ping still answers while draining");
    server.join();
}

/// A peer streaming bytes with no newline cannot grow the daemon's
/// memory without bound: past the line cap it gets a typed
/// `bad-request` and its connection is closed, while other
/// connections keep being served.
#[test]
fn oversized_line_is_refused_and_closed() {
    let server = start(1);
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    // The server stops reading mid-stream, so the write may fail once
    // it closes the socket; only the reply matters.
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 << 20]);
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("typed refusal arrives");
    match Reply::parse(line.trim()).unwrap() {
        Reply::Error { code, id, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert_eq!(id, 0);
            assert!(message.contains("exceeds"), "message was: {message}");
        }
        other => panic!("expected bad request, got {other:?}"),
    }
    // Closed: EOF, or a reset if the flood was still arriving.
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "no reply may follow the refusal"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
    }
    flood.join().unwrap();

    let mut client = ClientBuilder::new(addr).connect().expect("connect");
    client.ping().expect("a second connection is still served");
    client.shutdown().expect("shutdown");
    server.join();
}

/// A job whose segment size no pipeline can run with is refused at
/// admission with a typed `bad-request` echoing its id; the connection
/// that sent it keeps being served, and so do new connections.
#[test]
fn non_positive_segment_size_is_refused_at_admission() {
    let server = start(1);
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for (id, lb) in [(7, -1.0), (8, 0.0)] {
        let mut job = falcon_job();
        job.segment_size_mm = Some(lb);
        let request = Request::Place {
            id,
            job,
            trace_id: None,
        };
        writeln!(writer, "{}", request.to_line()).unwrap();
        line.clear();
        reader.read_line(&mut line).expect("typed refusal arrives");
        match Reply::parse(line.trim()) {
            Ok(Reply::Error {
                code,
                id: reply_id,
                message,
            }) => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert_eq!(reply_id, id);
                assert!(message.contains("segment"), "message was: {message}");
            }
            other => panic!("expected bad request for l_b = {lb}, got {other:?}"),
        }
    }

    writeln!(writer, "{}", Request::Ping { id: 9 }.to_line()).unwrap();
    line.clear();
    reader.read_line(&mut line).expect("pong arrives");
    assert_eq!(Reply::parse(line.trim()), Ok(Reply::Pong { id: 9 }));

    let mut client = ClientBuilder::new(addr).connect().expect("connect");
    client.ping().expect("a second connection is still served");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.errors, 2);
    assert_eq!(stats.placed, 0);
    client.shutdown().expect("shutdown");
    server.join();
}

/// An oversized parametric device is refused at admission with
/// `invalid-device` before anything is built (a heavy-hex this large
/// would need terabytes), and the same connection keeps answering.
#[test]
fn oversized_device_is_refused_without_building() {
    let server = start(1);
    let addr = server.local_addr();
    let mut client = ClientBuilder::new(addr).connect().expect("connect");
    for device in [
        DeviceSpec::HeavyHex {
            distance: 99_999_999_999,
        },
        DeviceSpec::Ring { qubits: usize::MAX },
    ] {
        match client.place(&PlaceJob::fast(device.clone(), Strategy::FrequencyAware)) {
            Err(ServiceError::Remote { code, message }) => {
                assert_eq!(code, ErrorCode::InvalidDevice, "{device:?}");
                assert!(message.contains("limit"), "message was: {message}");
            }
            other => panic!("{device:?}: expected invalid-device, got {other:?}"),
        }
    }
    client.ping().expect("the connection is still served");
    client.shutdown().expect("shutdown");
    server.join();
}
