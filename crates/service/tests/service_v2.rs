//! Service v2 acceptance: durable-store replay, config-hash
//! invalidation, strict request parsing, scheduling (priority lanes +
//! tenant quotas) over the wire, and consistent-hash sharding with
//! failover.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use qplacer_service::{
    ClientBuilder, DeviceSpec, ErrorCode, PlaceJob, Priority, Reply, Request, Server,
    ServiceConfig, ShardedClient, Strategy,
};

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qplacer-v2-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn start(config: ServiceConfig) -> Server {
    Server::start(config).expect("bind loopback server")
}

fn falcon_job() -> PlaceJob {
    PlaceJob::fast(DeviceSpec::Falcon27, Strategy::FrequencyAware)
}

/// Write → kill → restart → the restarted daemon serves the same job
/// from cache, byte-identically, without re-running the pipeline.
#[test]
fn store_replay_survives_restart_byte_identically() {
    let dir = scratch_dir("replay");
    let config = || ServiceConfig {
        workers: 1,
        store_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    let first = start(config());
    let mut client = ClientBuilder::new(first.local_addr()).connect().unwrap();
    let fresh = client.place(&falcon_job()).expect("fresh place");
    assert!(!fresh.cached, "first run must execute the pipeline");
    let fresh_bytes = serde_json::to_string(&fresh.result).unwrap();
    client.shutdown().unwrap();
    first.join();

    // Restart over the same directory: the appended record replays into
    // the cache before the listener accepts anyone.
    let second = start(config());
    let mut client = ClientBuilder::new(second.local_addr()).connect().unwrap();
    let stats = client.stats().expect("stats");
    assert!(
        stats.store_replayed >= 1,
        "restart must replay the appended record: {stats:?}"
    );
    let replayed = client.place(&falcon_job()).expect("replayed place");
    assert!(
        replayed.cached,
        "the restarted daemon must serve the job from the replayed cache"
    );
    assert_eq!(
        serde_json::to_string(&replayed.result).unwrap(),
        fresh_bytes,
        "replayed reply must be byte-identical to the pre-restart run"
    );
    assert_eq!(
        stats.placed, 0,
        "replay seeding must not count as served placements"
    );
    client.shutdown().unwrap();
    second.join();

    let _ = std::fs::remove_dir_all(&dir);
}

/// A pipeline-config change must invalidate both caches: the result
/// cache (different fingerprint → different key → fresh run) and the
/// warm store (a defective job over a base placed under the *old*
/// config must not warm-start from it).
#[test]
fn config_hash_change_invalidates_result_and_warm_caches() {
    let server = start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut client = ClientBuilder::new(server.local_addr()).connect().unwrap();

    let base = falcon_job();
    assert!(!client.place(&base).unwrap().cached);
    assert!(client.place(&base).unwrap().cached, "same config re-hits");

    // Same device + strategy, different resolved config: a different
    // fingerprint, so the cached layout may not be served.
    let mut retuned = base.clone();
    retuned.segment_size_mm = Some(0.42);
    assert!(
        !client.place(&retuned).unwrap().cached,
        "a config change must miss the result cache"
    );

    // The warm store keys bases by config fingerprint too: a defective
    // derivative under config A warm-starts...
    let defective = |segment: Option<f64>| {
        let mut job = PlaceJob::fast(
            DeviceSpec::Defective {
                base: Box::new(DeviceSpec::Falcon27),
                yield_pct: 90,
                seed: 7,
            },
            Strategy::FrequencyAware,
        );
        job.segment_size_mm = segment;
        job
    };
    client.place(&defective(None)).unwrap();
    let warm_after_match = client.stats().unwrap().warm_placements;
    assert_eq!(
        warm_after_match, 1,
        "a defective job whose base config matches must warm-start"
    );
    // ...but the same derivative under config C (whose base was never
    // placed) must place cold.
    let mut cold_config = defective(Some(0.47));
    cold_config.deadline_ms = None;
    client.place(&cold_config).unwrap();
    assert_eq!(
        client.stats().unwrap().warm_placements,
        warm_after_match,
        "a config change must miss the warm store"
    );

    client.shutdown().unwrap();
    server.join();
}

/// Raw-socket helper: one request line out, reply lines in.
struct RawConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn open(addr: std::net::SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        RawConn { stream, reader }
    }

    fn send(&mut self, request: &Request) {
        writeln!(self.stream, "{}", request.to_line()).expect("send");
        self.stream.flush().expect("flush");
    }

    /// Sends a raw JSON line (for malformed shapes no current
    /// constructor produces).
    fn send_raw(&mut self, line: &str) {
        writeln!(self.stream, "{line}").expect("send raw");
        self.stream.flush().expect("flush");
    }

    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "connection closed early");
        line.trim_end().to_string()
    }

    fn recv(&mut self) -> Reply {
        let line = self.recv_line();
        Reply::parse(&line).expect("parse reply")
    }
}

/// The wire has one version: a `place` line missing a field (here the
/// envelope's `trace_id`) is refused with a typed error rather than
/// defaulted, and the connection stays serviceable.
#[test]
fn place_without_trace_id_is_a_typed_bad_request() {
    let server = start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut conn = RawConn::open(server.local_addr());

    conn.send_raw(
        r#"{"Place":{"id":2,"job":{"device":"Falcon27","strategy":"FrequencyAware","profile":"Fast","segment_size_mm":null,"deadline_ms":null,"priority":"Normal","tenant":null}}}"#,
    );
    match conn.recv() {
        Reply::Error { id, code, .. } => {
            assert_eq!(id, 0, "an unparsed request has no id to echo");
            assert_eq!(code, ErrorCode::BadRequest);
        }
        other => panic!("expected bad request, got {other:?}"),
    }

    conn.send(&Request::Ping { id: 3 });
    assert!(matches!(conn.recv(), Reply::Pong { id: 3 }));
    conn.send(&Request::Shutdown { id: 4 });
    assert!(matches!(conn.recv(), Reply::ShuttingDown { id: 4 }));
    drop(conn);
    server.join();
}

/// Occupies the single worker long enough for the scheduling tests to
/// stage the queue deterministically, then returns the placed reply.
fn occupy_worker(
    addr: std::net::SocketAddr,
    job: PlaceJob,
) -> std::thread::JoinHandle<qplacer_service::PlacedReply> {
    std::thread::spawn(move || {
        let mut client = ClientBuilder::new(addr).connect().unwrap();
        client.place(&job).expect("blocker placement")
    })
}

/// Waits until the server reports exactly one job in flight (the
/// blocker has been popped, so nothing else can be dequeued until it
/// finishes).
fn await_worker_busy(addr: std::net::SocketAddr) {
    let mut client = ClientBuilder::new(addr).connect().unwrap();
    for _ in 0..200 {
        let stats = client.stats().expect("stats");
        if stats.in_flight == 1 && stats.queue_depth == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("blocker job never reached the worker");
}

/// While the one worker is busy, a high-priority job queued *after* a
/// low-priority one is answered first.
#[test]
fn priority_lanes_reorder_queued_work() {
    let server = start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let addr = server.local_addr();
    let blocker = occupy_worker(addr, falcon_job());
    await_worker_busy(addr);

    let mut conn = RawConn::open(addr);
    let job = |width: usize, priority: Priority| {
        let mut job = PlaceJob::fast(
            DeviceSpec::Grid { width, height: 2 },
            Strategy::FrequencyAware,
        );
        job.priority = priority;
        job
    };
    conn.send(&Request::Place {
        id: 10,
        job: job(2, Priority::Low),
        trace_id: None,
    });
    conn.send(&Request::Place {
        id: 11,
        job: job(3, Priority::High),
        trace_id: None,
    });

    let first = conn.recv();
    let second = conn.recv();
    match (&first, &second) {
        (Reply::Placed { id: a, .. }, Reply::Placed { id: b, .. }) => {
            assert_eq!(
                (*a, *b),
                (11, 10),
                "the high lane must drain before the low lane"
            );
        }
        other => panic!("expected two placements, got {other:?}"),
    }

    blocker.join().expect("blocker thread");
    let mut client = ClientBuilder::new(addr).connect().unwrap();
    client.shutdown().unwrap();
    server.join();
}

/// With a tenant quota of 1 queued job, a tenant's second waiting job
/// is refused `quota-exceeded` while the queue still has room for
/// everyone else.
#[test]
fn tenant_quota_rejects_only_the_hog() {
    let server = start(ServiceConfig {
        workers: 1,
        tenant_quota: Some(1),
        ..ServiceConfig::default()
    });
    let addr = server.local_addr();
    let blocker = occupy_worker(addr, falcon_job());
    await_worker_busy(addr);

    let mut conn = RawConn::open(addr);
    let job = |width: usize, tenant: &str| {
        let mut job = PlaceJob::fast(
            DeviceSpec::Grid { width, height: 3 },
            Strategy::FrequencyAware,
        );
        job.tenant = Some(tenant.to_string());
        job
    };
    conn.send(&Request::Place {
        id: 20,
        job: job(2, "hog"),
        trace_id: None,
    });
    conn.send(&Request::Place {
        id: 21,
        job: job(3, "hog"),
        trace_id: None,
    });
    conn.send(&Request::Place {
        id: 22,
        job: job(4, "neighbor"),
        trace_id: None,
    });

    // The refusal is synchronous (admission-time), so it is the first
    // reply on the wire.
    match conn.recv() {
        Reply::Error { id, code, .. } => {
            assert_eq!(id, 21, "the hog's second queued job is refused");
            assert_eq!(code, ErrorCode::QuotaExceeded);
        }
        other => panic!("expected quota refusal, got {other:?}"),
    }
    // The hog's first job and the neighbor's job are both served.
    let (a, b) = (conn.recv(), conn.recv());
    for reply in [&a, &b] {
        assert!(matches!(reply, Reply::Placed { id, .. } if *id == 20 || *id == 22));
    }

    blocker.join().expect("blocker thread");
    let mut client = ClientBuilder::new(addr).connect().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.rejected_quota, 1);
    client.shutdown().unwrap();
    server.join();
}

/// Four daemons behind a [`ShardedClient`]: jobs spread across shards,
/// repeats hit the owning shard's cache, and killing one shard re-routes
/// its keys to survivors without losing a job.
#[test]
fn sharded_fleet_routes_caches_and_fails_over() {
    let fleet_config = |shard_id: usize| ServiceConfig {
        workers: 1,
        shard_id,
        shards: 4,
        ..ServiceConfig::default()
    };
    let servers: Vec<Server> = (0..4).map(|i| start(fleet_config(i))).collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();

    let jobs: Vec<PlaceJob> = (2..8)
        .map(|width| {
            PlaceJob::fast(
                DeviceSpec::Grid { width, height: 2 },
                Strategy::FrequencyAware,
            )
        })
        .collect();

    let mut fleet = ShardedClient::connect(&addrs);
    let homes: Vec<usize> = jobs
        .iter()
        .map(|job| fleet.shard_for(job).expect("ring is non-empty"))
        .collect();
    for job in &jobs {
        assert!(!fleet.place(job).expect("fresh place").cached);
    }
    let baseline: Vec<String> = jobs
        .iter()
        .map(|job| {
            let reply = fleet.place(job).expect("repeat place");
            assert!(reply.cached, "a repeat must hit its owning shard's cache");
            serde_json::to_string(&reply.result).unwrap()
        })
        .collect();

    // Kill one shard that owns at least one probe job.
    let victim = homes[0];
    let mut survivors_expected = 0;
    for &home in &homes {
        if home != victim {
            survivors_expected += 1;
        }
    }
    assert!(
        survivors_expected < jobs.len(),
        "victim must own probe keys"
    );
    let victim_server = servers
        .into_iter()
        .enumerate()
        .fold(Vec::new(), |mut acc, (i, s)| {
            if i == victim {
                s.shutdown();
                s.join();
            } else {
                acc.push(s);
            }
            acc
        });

    // Every job still places: keys on surviving shards are still cache
    // hits; the victim's keys fail over and re-place on a successor.
    for (job, bytes) in jobs.iter().zip(&baseline) {
        let reply = fleet.place(job).expect("post-failover place");
        assert_eq!(
            &serde_json::to_string(&reply.result).unwrap(),
            bytes,
            "failover must not change the deterministic result"
        );
    }
    assert_eq!(fleet.live_shards(), 3);
    for (job, &home) in jobs.iter().zip(&homes) {
        if home != victim {
            assert_eq!(
                fleet.shard_for(job),
                Some(home),
                "survivors' keys must not move on failover"
            );
        } else {
            assert_ne!(fleet.shard_for(job), Some(victim));
        }
    }

    fleet.shutdown_all();
    for server in victim_server {
        server.join();
    }
}

/// Pipelining: `submit_place` ids can be awaited in any order on one
/// connection, and a `ShardedClient` can keep two `submit_many`
/// batches in flight — every reply still lands on the job that asked
/// for it, byte-identical to the blocking path.
#[test]
fn pipelined_submits_gather_out_of_order_without_crosstalk() {
    let fleet_config = |shard_id: usize| ServiceConfig {
        workers: 1,
        shard_id,
        shards: 2,
        ..ServiceConfig::default()
    };
    let servers: Vec<Server> = (0..2).map(|i| start(fleet_config(i))).collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();

    let jobs: Vec<PlaceJob> = (3..9)
        .map(|qubits| PlaceJob::fast(DeviceSpec::Ring { qubits }, Strategy::FrequencyAware))
        .collect();

    // Blocking baseline, one result per distinct job.
    let mut fleet = ShardedClient::connect(&addrs);
    let baseline: Vec<String> = jobs
        .iter()
        .map(|job| serde_json::to_string(&fleet.place(job).expect("baseline").result).unwrap())
        .collect();

    // Single connection: submit all six, await in reverse order. The
    // client's pending buffer must pair each id with its own reply.
    let mut single = ClientBuilder::new(servers[0].local_addr())
        .connect()
        .unwrap();
    let ids: Vec<u64> = jobs
        .iter()
        .map(|job| single.submit_place(job).expect("submit"))
        .collect();
    for (slot, &id) in ids.iter().enumerate().rev() {
        let reply = single.await_place(id).expect("await out of order");
        assert_eq!(
            serde_json::to_string(&reply.result).unwrap(),
            baseline[slot],
            "reverse-order await must return job {slot}'s own result"
        );
    }

    // Fleet double-buffering: two batches in flight, gathered in
    // submit order; replies come back in input order both rounds.
    let mut inflight = fleet.submit_many(&jobs).expect("submit round 0");
    for round in 0..3 {
        let next = fleet.submit_many(&jobs).expect("submit next round");
        let replies = fleet.gather(&jobs, inflight).expect("gather oldest");
        assert_eq!(replies.len(), jobs.len());
        for (slot, reply) in replies.iter().enumerate() {
            assert!(reply.cached, "round {round} is a repeat and must be cached");
            assert_eq!(
                serde_json::to_string(&reply.result).unwrap(),
                baseline[slot],
                "round {round}: pipelined gather must preserve input order"
            );
        }
        inflight = next;
    }
    let tail = fleet.gather(&jobs, inflight).expect("gather last");
    assert_eq!(tail.len(), jobs.len());

    // A gather against the wrong job slice is a typed protocol error,
    // not a silent mispairing.
    let short = &jobs[..2];
    let batch = fleet.submit_many(short).expect("short submit");
    assert!(matches!(
        fleet.gather(&jobs, batch),
        Err(qplacer_service::ServiceError::Protocol(_))
    ));
    // Drain the two orphaned submits so shutdown sees a quiet wire.
    let batch = fleet.submit_many(short).expect("re-submit short");
    fleet.gather(short, batch).expect("drain short");

    single.shutdown().unwrap();
    fleet.shutdown_all();
    for server in servers {
        server.join();
    }
}
