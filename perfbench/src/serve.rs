//! `serve_mix`: a `qplacer serve` daemon in its own process, with a
//! durable store in a scratch directory, driven by an open-loop load
//! generator over one connection (one writer and one reader thread).
//!
//! Most requests are cache hits over a fixed 16-job working set; one
//! request in every `MISS_EVERY` at the base rate is a fresh fast-profile
//! `grid-3x3` job with a distinct segment size, which always misses.
//! Each request is timed from its scheduled send.
//!
//! Hits are timed and counted at saturation, with hits alone: a closed
//! loop keeps two batches of `SATURATION_BATCH` requests in flight, so
//! by Little's law no hit waits behind more than `2 × SATURATION_BATCH`
//! others (under 5 ms at the ~230k req/s a 2-core Xeon host reaches,
//! inside `HIT_P99_LIMIT_MS`). Misses stay out of it so it measures the
//! hit path (reactor, wire scanner, memos, cache). An open-loop rate
//! ladder was tried first; on that host its pass/fail knee moved by up
//! to 2× between seeds, too far for a regression bound.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use qplacer_circuits::benchmark_by_name;
use qplacer_geometry::Point;
use qplacer_metrics::evaluate_benchmark;
use qplacer_netlist::QuantumNetlist;
use qplacer_service::{
    ClientBuilder, MetricsSnapshot, PlaceJob, PlacementResult, Request, ServiceClient,
};

use crate::cold::SETUP_REPEATS;
use crate::inputs::{miss_jobs, request_mix, working_set, Ask};
use crate::report::Outcome;
use crate::stats::{mean, median, ms};
use crate::{Args, Scratch};

/// Offered rate of the base phase (requests per second).
pub const BASE_RATE: f64 = 2000.0;
/// One request in this many is a miss at the base rate.
pub const MISS_EVERY: usize = 2000;
/// Hit latency limit: an open-loop phase stops offering load once more
/// requests are in flight than this much time at the offered rate
/// covers (a growing backlog).
pub const HIT_P99_LIMIT_MS: f64 = 20.0;
/// Requests per batch of the saturation loop (two batches in flight).
const SATURATION_BATCH: usize = 512;
/// Saturation windows per run; the median window is reported.
const SATURATION_WINDOWS: usize = 5;
/// Circuit and subsets the served layouts are scored on.
const SCORE_CIRCUIT: &str = "bv-4";
const SCORE_SUBSETS: usize = 20;

/// Builds the daemon (a no-op once built) and returns its path. The
/// build shares the benchmark's `CARGO_TARGET_DIR`, defaulting to
/// `.bench_build` in the checkout.
///
/// # Errors
///
/// When cargo cannot build the `qplacer` binary.
pub fn daemon_binary(root: &Path) -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root.join(".bench_build"), PathBuf::from);
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "qplacer",
            "--bin",
            "qplacer",
        ])
        .env("CARGO_TARGET_DIR", &target)
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the qplacer daemon failed ({status})"));
    }
    Ok(target.join("release").join("qplacer"))
}

/// A running daemon process; killed and reaped on drop if it has not
/// shut down.
pub struct Daemon {
    child: Child,
    log: PathBuf,
    /// The bound loopback address.
    pub addr: String,
}

impl Daemon {
    /// Starts `qplacer serve` on an ephemeral port with a durable store
    /// in `dir/store` and one worker per CPU, logging to `dir/daemon.log`,
    /// and waits for it to announce its address.
    ///
    /// # Errors
    ///
    /// When the process cannot start or never announces its address.
    pub fn start(bin: &Path, dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log_path = dir.join("daemon.log");
        let log =
            std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
        let err = log.try_clone().map_err(|e| e.to_string())?;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .arg("--store")
            .arg(dir.join("store"))
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            log: log_path.clone(),
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while daemon.addr.is_empty() {
            let text = std::fs::read_to_string(&log_path).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("qplacer-service listening on "))
                .and_then(|rest| rest.split_whitespace().next())
            {
                daemon.addr = addr.to_string();
            } else if Instant::now() > deadline || !matches!(daemon.child.try_wait(), Ok(None)) {
                return Err(format!("daemon never announced its address: {text:?}"));
            } else {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(daemon)
    }

    /// A blocking client on this daemon.
    ///
    /// # Errors
    ///
    /// When the connection fails.
    pub fn client(&self) -> Result<ServiceClient, String> {
        ClientBuilder::new(&self.addr)
            .connect_timeout(Duration::from_secs(5))
            .read_timeout(Duration::from_secs(60))
            .connect()
            .map_err(|e| format!("connecting {}: {e}", self.addr))
    }

    /// Asks the daemon to drain and waits for the process to exit.
    ///
    /// # Errors
    ///
    /// When the daemon does not exit cleanly within ten seconds.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut client) = self.client() {
            let _ = client.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    let log = std::fs::read_to_string(&self.log).unwrap_or_default();
                    return Err(format!("daemon exited with {status}: {log}"));
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("daemon did not drain within 10 s".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A warmed daemon: every working-set job placed fresh once and served
/// from cache once.
pub struct Warm {
    /// The daemon.
    pub daemon: Daemon,
    /// The working set.
    pub jobs: Vec<PlaceJob>,
    /// The fresh result of each working-set job.
    pub results: Vec<PlacementResult>,
}

/// Starts a daemon with a store in `dir` and fills its cache with the
/// working set, checking reply kinds and legality along the way.
///
/// # Errors
///
/// When the daemon cannot start or a warm-up placement fails.
pub fn start_warm(bin: &Path, dir: &Path, out: &mut Outcome) -> Result<Warm, String> {
    let daemon = Daemon::start(bin, dir)?;
    let jobs = working_set();
    let mut client = daemon.client()?;
    let fresh = client
        .place_many(&jobs)
        .map_err(|e| format!("warming the cache: {e}"))?;
    let again = client
        .place_many(&jobs)
        .map_err(|e| format!("re-reading the cache: {e}"))?;
    for (i, (f, c)) in fresh.iter().zip(&again).enumerate() {
        out.check(!f.cached && c.cached, || {
            format!(
                "working-set job {i}: first reply cached={}, second cached={}",
                f.cached, c.cached
            )
        });
        out.check(f.result == c.result, || {
            format!("working-set job {i}: cached result differs")
        });
        out.check(f.result.remaining_overlaps == 0, || {
            format!(
                "working-set job {i}: {} overlaps",
                f.result.remaining_overlaps
            )
        });
    }
    Ok(Warm {
        daemon,
        jobs,
        results: fresh.into_iter().map(|r| r.result).collect(),
    })
}

/// Timing and kind of every reply of one open-loop phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent.
    pub sent: u64,
    /// Requests not sent because the backlog grew past what the
    /// latency limit allows to be in flight.
    pub unsent: u64,
    /// Miss latencies from scheduled send (ms).
    pub miss_ms: Vec<f64>,
    /// How late the writer sent each request (ms).
    pub late_ms: Vec<f64>,
    /// Busy replies.
    pub busy: u64,
    /// Other error replies.
    pub errors: u64,
    /// Replies of the wrong kind (a hit answered fresh, a miss cached).
    pub wrong_kind: u64,
    /// Requests never answered before the drain deadline.
    pub unanswered: u64,
}

impl Phase {
    /// Whether every request got a reply of the right kind.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.busy == 0
            && self.errors == 0
            && self.wrong_kind == 0
            && self.unanswered == 0
            && self.unsent == 0
    }
}

/// Outcome of a saturation loop.
#[derive(Debug)]
pub struct Saturation {
    /// Requests answered.
    pub requests: u64,
    /// Wall time of the loop.
    pub seconds: f64,
    /// Latency of each hit, from its batch's send to its reply (ms).
    pub hit_ms: Vec<f64>,
    /// Replies that were not cached hits.
    pub wrong: u64,
}

/// The request-line template of one job: the line is
/// `prefix + id + suffix`.
pub struct LineTemplate {
    prefix: String,
    suffix: String,
}

impl LineTemplate {
    const SENTINEL: u64 = 987_654_321_987_654_321;

    /// The template of an untraced `Place` request for `job`.
    #[must_use]
    pub fn new(job: &PlaceJob) -> Self {
        let line = Request::Place {
            id: Self::SENTINEL,
            job: job.clone(),
            trace_id: None,
        }
        .to_line();
        let marker = format!("\"id\":{}", Self::SENTINEL);
        let (prefix, suffix) = line.split_once(&marker).expect("id in the place envelope");
        LineTemplate {
            prefix: format!("{prefix}\"id\":"),
            suffix: suffix.to_string(),
        }
    }

    fn write(&self, id: u64, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.prefix.as_bytes());
        buf.extend_from_slice(id.to_string().as_bytes());
        buf.extend_from_slice(self.suffix.as_bytes());
        buf.push(b'\n');
    }
}

/// What a reply line says, read without parsing the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// A placement answered from the cache.
    Cached,
    /// A freshly computed placement.
    Fresh,
    /// A `busy` rejection.
    Busy,
    /// Any other error reply.
    Error,
}

/// Reads the correlation id and kind of one reply line.
#[must_use]
pub fn scan_reply(line: &str) -> Option<(u64, ReplyKind)> {
    fn id_then(rest: &str) -> Option<(u64, &str)> {
        let end = rest.find(|c: char| !c.is_ascii_digit())?;
        Some((rest[..end].parse().ok()?, &rest[end..]))
    }
    if let Some(rest) = line.strip_prefix("{\"Placed\":{\"id\":") {
        let (id, rest) = id_then(rest)?;
        let kind = if rest.starts_with(",\"cached\":true") {
            ReplyKind::Cached
        } else if rest.starts_with(",\"cached\":false") {
            ReplyKind::Fresh
        } else {
            return None;
        };
        return Some((id, kind));
    }
    let rest = line.strip_prefix("{\"Error\":{\"id\":")?;
    let (id, rest) = id_then(rest)?;
    let kind = if rest.starts_with(",\"code\":\"Busy\"") {
        ReplyKind::Busy
    } else {
        ReplyKind::Error
    };
    Some((id, kind))
}

/// The load generator: one connection, requests numbered from a
/// running id.
pub struct Generator {
    stream: TcpStream,
    hits: Vec<LineTemplate>,
    misses: Vec<LineTemplate>,
    next_id: u64,
    next_miss: usize,
}

impl Generator {
    /// Connects to `addr` with templates for the working set and for
    /// `misses` fresh jobs.
    ///
    /// # Errors
    ///
    /// When the connection fails.
    pub fn connect(
        addr: &str,
        working_set: &[PlaceJob],
        misses: &[PlaceJob],
    ) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Generator {
            stream,
            hits: working_set.iter().map(LineTemplate::new).collect(),
            misses: misses.iter().map(LineTemplate::new).collect(),
            next_id: 1,
            next_miss: 0,
        })
    }

    /// Misses left for later phases.
    #[must_use]
    pub fn misses_left(&self) -> usize {
        self.misses.len() - self.next_miss
    }

    /// Runs one open-loop phase: `rate` requests per second for
    /// `seconds`, one miss in every `miss_every` (0 = hits only),
    /// request mix drawn from `seed` and `phase`.
    ///
    /// # Errors
    ///
    /// On socket failure or when the phase needs more misses than
    /// remain.
    pub fn phase(
        &mut self,
        seed: u64,
        phase: u64,
        rate: f64,
        seconds: f64,
        miss_every: usize,
    ) -> Result<Phase, String> {
        let n = ((rate * seconds).round() as usize).max(1);
        let asks = request_mix(seed, phase, n, self.hits.len(), miss_every, self.next_miss);
        let needed = asks.iter().filter(|a| matches!(a, Ask::Miss(_))).count();
        if needed > self.misses_left() {
            return Err(format!(
                "phase needs {needed} misses, {} left",
                self.misses_left()
            ));
        }
        self.next_miss += needed;
        let first_id = self.next_id;
        self.next_id += n as u64;

        let lead_ns = 5_000_000u64;
        let due_ns: Vec<u64> = (0..n)
            .map(|k| lead_ns + (k as f64 * 1e9 / rate) as u64)
            .collect();
        // More replies outstanding than the limit allows to be in
        // flight means the backlog is growing: stop offering load.
        let max_outstanding = ((rate * 2.0 * HIT_P99_LIMIT_MS / 1e3) as usize).max(200);
        let mut recv_ns = vec![0u64; n];
        let mut sent_ns = vec![0u64; n];
        let mut kinds: Vec<Option<ReplyKind>> = vec![None; n];
        let answered = AtomicUsize::new(0);
        let sent = AtomicUsize::new(0);
        let writer_done = AtomicBool::new(false);
        let drain = Duration::from_secs_f64(0.25 + seconds * 0.5);
        let epoch = Instant::now();

        let mut writer = self.stream.try_clone().map_err(|e| e.to_string())?;
        let reader_stream = self.stream.try_clone().map_err(|e| e.to_string())?;
        reader_stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| e.to_string())?;
        let (hits, misses) = (&self.hits, &self.misses);
        let write_result = std::thread::scope(|scope| {
            let sender = scope.spawn(|| -> Result<(), String> {
                let mut buf = Vec::with_capacity(64 * 1024);
                let mut next = 0;
                while next < n {
                    if next - answered.load(Ordering::Acquire) > max_outstanding {
                        break;
                    }
                    let now = epoch.elapsed().as_nanos() as u64;
                    buf.clear();
                    while next < n && due_ns[next] <= now {
                        let id = first_id + next as u64;
                        match asks[next] {
                            Ask::Hit(i) => hits[i].write(id, &mut buf),
                            Ask::Miss(i) => misses[i].write(id, &mut buf),
                        }
                        sent_ns[next] = now;
                        next += 1;
                    }
                    if !buf.is_empty() {
                        sent.store(next, Ordering::Release);
                        writer
                            .write_all(&buf)
                            .map_err(|e| format!("sending: {e}"))?;
                    }
                    if next < n {
                        let wait = due_ns[next].saturating_sub(epoch.elapsed().as_nanos() as u64);
                        if wait > 200_000 {
                            std::thread::sleep(Duration::from_nanos(wait - 100_000));
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
                writer_done.store(true, Ordering::Release);
                Ok(())
            });

            let mut reader = BufReader::new(reader_stream);
            let mut line = String::new();
            let mut done_at = None;
            loop {
                let got = answered.load(Ordering::Relaxed);
                if writer_done.load(Ordering::Acquire) {
                    if got >= sent.load(Ordering::Acquire) {
                        break;
                    }
                    let since = *done_at.get_or_insert_with(Instant::now);
                    if since.elapsed() > drain {
                        break;
                    }
                }
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) if line.ends_with('\n') => {
                        let now = epoch.elapsed().as_nanos() as u64;
                        if let Some((id, kind)) = scan_reply(line.trim_end()) {
                            if let Some(k) = id.checked_sub(first_id).map(|k| k as usize) {
                                if k < n && kinds[k].is_none() {
                                    kinds[k] = Some(kind);
                                    recv_ns[k] = now;
                                    answered.store(got + 1, Ordering::Release);
                                }
                            }
                        }
                        line.clear();
                    }
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(e) => return Err(format!("receiving: {e}")),
                }
            }
            sender.join().expect("writer thread")
        });
        write_result?;
        let sent = sent.into_inner();
        if answered.into_inner() < sent {
            // Late replies must not be mistaken for the next phase's.
            self.resync()?;
        }

        let mut out = Phase {
            sent: sent as u64,
            unsent: (n - sent) as u64,
            ..Phase::default()
        };
        for k in 0..sent {
            let latency = |k: usize| (recv_ns[k] as f64 - due_ns[k] as f64) / 1e6;
            out.late_ms
                .push((sent_ns[k] as f64 - due_ns[k] as f64) / 1e6);
            match (asks[k], kinds[k]) {
                (_, None) => out.unanswered += 1,
                (_, Some(ReplyKind::Busy)) => out.busy += 1,
                (_, Some(ReplyKind::Error)) => out.errors += 1,
                (Ask::Hit(_), Some(ReplyKind::Cached)) => {}
                (Ask::Miss(_), Some(ReplyKind::Fresh)) => out.miss_ms.push(latency(k)),
                _ => out.wrong_kind += 1,
            }
        }
        Ok(out)
    }

    /// Drives the daemon at saturation with hits alone for `seconds`: a
    /// closed loop that sends the next batch of `batch` requests before
    /// reading the replies to the previous one, so two batches are
    /// always in flight.
    ///
    /// # Errors
    ///
    /// On socket failure or a reply that does not arrive within 10 s.
    pub fn saturate(
        &mut self,
        seed: u64,
        seconds: f64,
        batch: usize,
    ) -> Result<Saturation, String> {
        let asks = request_mix(seed, u64::MAX >> 16, batch * 16, self.hits.len(), 0, 0);
        let mut writer = self.stream.try_clone().map_err(|e| e.to_string())?;
        let reader_stream = self.stream.try_clone().map_err(|e| e.to_string())?;
        reader_stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(reader_stream);
        let mut buf = Vec::with_capacity(batch * 512);
        let mut send = |k: usize, next_id: u64| -> Result<(), String> {
            buf.clear();
            for j in 0..batch {
                let n = k * batch + j;
                if let Ask::Hit(i) = asks[n % asks.len()] {
                    self.hits[i].write(next_id + n as u64, &mut buf);
                }
            }
            writer.write_all(&buf).map_err(|e| format!("sending: {e}"))
        };
        let start = Instant::now();
        let next_id = self.next_id;
        let mut sent_at = vec![Instant::now()];
        send(0, next_id)?;
        sent_at.push(Instant::now());
        send(1, next_id)?;
        let (mut done, mut wrong) = (0usize, 0u64);
        let mut hit_ms = Vec::new();
        let mut line = String::new();
        while done < sent_at.len() {
            for _ in 0..batch {
                line.clear();
                reader
                    .read_line(&mut line)
                    .map_err(|e| format!("receiving: {e}"))?;
                hit_ms.push(ms(sent_at[done].elapsed()));
                if !matches!(scan_reply(line.trim_end()), Some((_, ReplyKind::Cached))) {
                    wrong += 1;
                }
            }
            done += 1;
            if start.elapsed().as_secs_f64() < seconds {
                sent_at.push(Instant::now());
                send(sent_at.len() - 1, next_id)?;
            }
        }
        self.next_id += (sent_at.len() * batch) as u64;
        Ok(Saturation {
            requests: (done * batch) as u64,
            seconds: start.elapsed().as_secs_f64(),
            hit_ms,
            wrong,
        })
    }

    /// Replaces the connection after a phase left requests unanswered,
    /// so their late replies cannot be mistaken for the next phase's.
    fn resync(&mut self) -> Result<(), String> {
        let addr = self.stream.peer_addr().map_err(|e| e.to_string())?;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let mut sink = Vec::new();
        let _ = (&self.stream).read_to_end(&mut sink);
        self.stream = TcpStream::connect(addr).map_err(|e| format!("reconnecting: {e}"))?;
        self.stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // Let the daemon work off the abandoned requests before the
        // next phase: wait until a ping round trip is quick again.
        let mut client = ClientBuilder::new(addr)
            .read_timeout(Duration::from_secs(5))
            .connect()
            .map_err(|e| format!("reconnecting: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            let t = Instant::now();
            client.ping().map_err(|e| format!("ping: {e}"))?;
            if t.elapsed() < Duration::from_millis(1) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        Ok(())
    }
}

/// Checks every scheduled reply of a phase: right kind, no errors.
pub fn check_phase(out: &mut Outcome, phase: &Phase, what: &str) {
    out.check(phase.wrong_kind == 0, || {
        format!("{what}: {} replies of the wrong kind", phase.wrong_kind)
    });
    out.check(phase.clean(), || {
        format!(
            "{what}: {} busy, {} errors, {} unanswered of {}, {} unsent",
            phase.busy, phase.errors, phase.unanswered, phase.sent, phase.unsent
        )
    });
}

/// Quality of the served layouts: each working-set result's positions
/// are set on a freshly built netlist of its job and scored. Returns
/// mean P_h, mean MER area, and mean −log10 fidelity over all subsets.
pub fn served_quality(
    out: &mut Outcome,
    jobs: &[PlaceJob],
    results: &[PlacementResult],
) -> (f64, f64, f64) {
    let circuit = benchmark_by_name(SCORE_CIRCUIT)
        .expect("paper circuit")
        .circuit;
    let mut neg_log_f = Vec::new();
    for (i, (job, result)) in jobs.iter().zip(results).enumerate() {
        let device = job.device.build();
        let config = job.pipeline_config();
        let assignment = config.assigner.assign(&device);
        let mut netlist = QuantumNetlist::build(&device, &assignment, &config.netlist);
        if netlist.num_instances() != result.positions.len() {
            out.check(false, || {
                format!("working-set job {i}: instance count differs")
            });
            continue;
        }
        let positions: Vec<Point> = result
            .positions
            .iter()
            .map(|&(x, y)| Point::new(x, y))
            .collect();
        netlist.set_positions(&positions);
        out.check(netlist.overlapping_pairs().is_empty(), || {
            format!("working-set job {i}: served positions overlap")
        });
        let eval = evaluate_benchmark(
            &netlist,
            &device,
            &circuit,
            SCORE_SUBSETS,
            i as u64,
            &config.fidelity,
        );
        out.check(eval.fidelities.iter().all(|f| *f > 0.0), || {
            format!("working-set job {i}: zero fidelity")
        });
        neg_log_f.extend(eval.fidelities.iter().map(|f| -f.log10()));
    }
    let ph = mean(&results.iter().map(|r| r.ph).collect::<Vec<_>>());
    let area = mean(&results.iter().map(|r| r.mer_area_mm2).collect::<Vec<_>>());
    (ph, area, mean(&neg_log_f))
}

/// Fetches the daemon's `stats` snapshot.
///
/// # Errors
///
/// When the request fails.
pub fn stats(daemon: &Daemon) -> Result<MetricsSnapshot, String> {
    daemon.client()?.stats().map_err(|e| format!("stats: {e}"))
}

/// The untraced run.
///
/// # Errors
///
/// When the daemon cannot be built, started or driven.
pub fn run(
    args: &Args,
    root: &Path,
    scratch: &Scratch,
    started: Instant,
) -> Result<Outcome, String> {
    let bin = daemon_binary(root)?;
    let mut out = Outcome::new();
    let mut setups = Vec::new();
    let mut warm = None;
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = warm.take() {
            let Warm { daemon, .. } = previous;
            daemon.shutdown()?;
        }
        let t = if k == 0 { started } else { Instant::now() };
        warm = Some(start_warm(
            &bin,
            &scratch.path().join(format!("setup-{k}")),
            &mut out,
        )?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let warm = warm.expect("set up at least once");

    let base_seconds = 0.7 * args.seconds;
    let budget = (BASE_RATE * base_seconds / MISS_EVERY as f64) as usize + 16;
    let misses = miss_jobs(args.seed, budget);
    let mut gen = Generator::connect(&warm.daemon.addr, &warm.jobs, &misses)?;

    let base = gen.phase(args.seed, 0, BASE_RATE, base_seconds, MISS_EVERY)?;
    check_phase(&mut out, &base, "base rate");
    out.attempted += base.sent;
    out.failed += base.busy + base.errors + base.wrong_kind + base.unanswered;

    // Median of several windows: one scheduler stall costs one window.
    let (mut rates, mut saturated_ms) = (Vec::new(), Vec::new());
    for _ in 0..SATURATION_WINDOWS {
        let sat = gen.saturate(
            args.seed,
            0.2 * args.seconds / SATURATION_WINDOWS as f64,
            SATURATION_BATCH,
        )?;
        out.attempted += sat.requests;
        out.failed += sat.wrong;
        out.check(sat.wrong == 0, || {
            format!("saturation: {} replies not cached hits", sat.wrong)
        });
        rates.push(sat.requests as f64 / sat.seconds);
        saturated_ms.extend(sat.hit_ms);
    }
    drop(gen);
    warm.daemon.shutdown()?;

    let (ph, area, neg_log_f) = served_quality(&mut out, &warm.jobs, &warm.results);
    out.set("setup_s", median(&setups));
    out.set("op_p50_ms", median(&saturated_ms));
    out.set("aux_p50_ms", median(&base.miss_ms));
    out.set("throughput_per_s", median(&rates));
    out.set("ph", ph);
    out.set("neg_log10_fidelity", neg_log_f);
    out.set("area_mm2", area);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qplacer_harness::{DeviceSpec, Strategy};
    use qplacer_service::Reply;

    #[test]
    fn templates_render_the_canonical_request() {
        let mut job = PlaceJob::fast(DeviceSpec::Falcon27, Strategy::Classic);
        job.segment_size_mm = Some(0.4321);
        let mut buf = Vec::new();
        LineTemplate::new(&job).write(42, &mut buf);
        let expected = Request::Place {
            id: 42,
            job,
            trace_id: None,
        }
        .to_line();
        assert_eq!(String::from_utf8(buf).unwrap(), expected + "\n");
    }

    #[test]
    fn reply_scanner_agrees_with_the_protocol() {
        let result = PlacementResult {
            device: "grid".into(),
            strategy: "Qplacer".into(),
            instances: 1,
            positions: vec![(0.5, 1.5)],
            place_iterations: 3,
            hpwl_mm: 1.0,
            mer_area_mm2: 2.0,
            utilization: 0.5,
            ph: 0.0,
            violations: 0,
            remaining_overlaps: 0,
        };
        for cached in [true, false] {
            let line = Reply::Placed {
                id: 77,
                cached,
                wall_ms: 0.25,
                trace_id: None,
                result: result.clone(),
            }
            .to_line();
            let kind = if cached {
                ReplyKind::Cached
            } else {
                ReplyKind::Fresh
            };
            assert_eq!(scan_reply(&line), Some((77, kind)));
        }
        let busy = Reply::Error {
            id: 9,
            code: qplacer_service::ErrorCode::Busy,
            message: "full".into(),
        }
        .to_line();
        assert_eq!(scan_reply(&busy), Some((9, ReplyKind::Busy)));
        let other = Reply::Error {
            id: 9,
            code: qplacer_service::ErrorCode::InvalidDevice,
            message: "bad".into(),
        }
        .to_line();
        assert_eq!(scan_reply(&other), Some((9, ReplyKind::Error)));
        assert_eq!(scan_reply("{\"Pong\":{\"id\":1}}"), None);
    }
}
