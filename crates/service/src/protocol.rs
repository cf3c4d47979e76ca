//! The versioned JSON-lines wire protocol.
//!
//! Every message is one JSON object on one line, terminated by `\n`.
//! Requests and replies are externally tagged by variant name and carry
//! a client-chosen `id` the server echoes back, so clients may pipeline
//! requests and correlate replies arriving out of order (placements
//! complete on worker threads; `ping`/`stats` replies come straight off
//! the connection thread).
//!
//! A session should open with [`Request::Hello`] carrying
//! [`PROTOCOL_VERSION`]; the server answers with its own version and
//! rejects mismatches with [`ErrorCode::VersionMismatch`]. Breaking
//! changes to any message schema bump the version.

use serde::{Deserialize, Serialize};

use qplacer_harness::{DeviceSpec, JobSpec, PipelineConfig, PlacedLayout, Profile, Strategy};

use crate::metrics::MetricsSnapshot;

/// The wire-protocol version. There is one version of every message,
/// and a `hello` whose version differs is rejected with
/// [`ErrorCode::VersionMismatch`].
pub const PROTOCOL_VERSION: u32 = 1;

/// Scheduling lane of a [`PlaceJob`]. Strict priority: the queue never
/// pops a lane while a higher one has work. Priority affects *when* a
/// job runs, never its result — like deadlines, it stays out of the
/// cache key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Priority {
    /// Interactive traffic; served before everything else.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Batch / backfill traffic; served only when the other lanes are
    /// empty.
    Low,
}

impl Priority {
    /// Lane index (0 = highest priority), for lane-indexed storage.
    #[must_use]
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Every lane, highest priority first.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        })
    }
}

impl std::str::FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!(
                "unknown priority `{other}` (expected high | normal | low)"
            )),
        }
    }
}

/// One placement request payload: which device to lay out, with which
/// strategy, under which pipeline budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlaceJob {
    /// The device topology to place.
    pub device: DeviceSpec,
    /// The placement arm.
    pub strategy: Strategy,
    /// Pipeline budget profile.
    pub profile: Profile,
    /// Resonator segment size `l_b` override (mm); `None` = paper default.
    pub segment_size_mm: Option<f64>,
    /// Per-request deadline in milliseconds from enqueue; a job still
    /// queued past its deadline is answered with
    /// [`ErrorCode::DeadlineExceeded`] instead of running.
    pub deadline_ms: Option<u64>,
    /// Scheduling lane. Affects queue order only — never the result, so
    /// it stays out of the cache key.
    pub priority: Priority,
    /// Submitting tenant, checked against the server's per-tenant
    /// admission quota: a tenant already holding its full share of queue
    /// slots is answered with [`ErrorCode::QuotaExceeded`] instead of
    /// enqueuing. `None` = the anonymous tenant (quota still applies,
    /// pooled). Stays out of the cache key — results are
    /// tenant-independent.
    pub tenant: Option<String>,
}

impl PlaceJob {
    /// A paper-budget job with no overrides.
    #[must_use]
    pub fn new(device: DeviceSpec, strategy: Strategy) -> Self {
        Self {
            device,
            strategy,
            profile: Profile::Paper,
            segment_size_mm: None,
            deadline_ms: None,
            priority: Priority::default(),
            tenant: None,
        }
    }

    /// A reduced-budget job (tests, smoke traffic, benchmarks).
    #[must_use]
    pub fn fast(device: DeviceSpec, strategy: Strategy) -> Self {
        Self {
            profile: Profile::Fast,
            ..Self::new(device, strategy)
        }
    }

    /// The equivalent harness [`JobSpec`] (placement-only: no benchmark
    /// evaluation happens on the serving path).
    #[must_use]
    pub fn spec(&self) -> JobSpec {
        JobSpec {
            device: self.device.clone(),
            strategy: self.strategy,
            benchmark: None,
            subsets: 0,
            seed: 0,
            segment_size_mm: self.segment_size_mm,
            levels: None,
        }
    }

    /// The full pipeline configuration this job resolves to.
    ///
    /// # Panics
    ///
    /// Panics on a segment size that [`PlaceJob::validate`] rejects.
    #[must_use]
    pub fn pipeline_config(&self) -> PipelineConfig {
        self.spec().pipeline_config(self.profile)
    }

    /// Rejects fields no pipeline can run with: a segment size `l_b`
    /// that is not positive (NaN included). The server checks this where
    /// it parses a `Place`, before the job is hashed or queued.
    pub fn validate(&self) -> Result<(), String> {
        match self.segment_size_mm {
            Some(lb) if lb > 0.0 => Ok(()),
            Some(lb) => Err(format!(
                "bad request: segment_size_mm must be positive, got {lb}"
            )),
            None => Ok(()),
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Session opener: announce the client's protocol version.
    Hello {
        /// Correlation id, echoed in the reply.
        id: u64,
        /// The client's [`PROTOCOL_VERSION`] (must match).
        version: u32,
    },
    /// Run (or serve from cache) one placement.
    Place {
        /// Correlation id, echoed in the reply.
        id: u64,
        /// What to place.
        job: PlaceJob,
        /// Client-supplied 64-bit trace id. The worker serving this job
        /// adopts it as its trace context, so every event the job
        /// records — placer, legalizer, assigner — carries this id end
        /// to end. `None` lets the server assign
        /// one; it lives on the envelope, **not** in [`PlaceJob`], so
        /// it never perturbs the result-cache key.
        trace_id: Option<u64>,
    },
    /// Fetch a [`MetricsSnapshot`].
    Stats {
        /// Correlation id, echoed in the reply.
        id: u64,
    },
    /// Fetch every server metric rendered in the Prometheus text
    /// exposition format.
    Metrics {
        /// Correlation id, echoed in the reply.
        id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id, echoed in the reply.
        id: u64,
    },
    /// Dump the server's flight recorder: the last-N-events-per-thread
    /// ring, rendered as a Chrome Trace Event JSON document — the
    /// post-mortem view of a slow or wedged daemon.
    DumpTrace {
        /// Correlation id, echoed in the reply.
        id: u64,
    },
    /// Begin graceful shutdown: the server stops accepting work, drains
    /// queued and in-flight jobs, then exits.
    Shutdown {
        /// Correlation id, echoed in the reply.
        id: u64,
    },
}

impl Request {
    /// The correlation id.
    #[must_use]
    pub fn id(&self) -> u64 {
        match *self {
            Request::Hello { id, .. }
            | Request::Place { id, .. }
            | Request::Stats { id }
            | Request::Metrics { id }
            | Request::Ping { id }
            | Request::DumpTrace { id }
            | Request::Shutdown { id } => id,
        }
    }

    /// Serializes to one wire line (without the trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("protocol messages always serialize")
    }

    /// Parses one wire line. Every field is required: a line missing
    /// one is a [`ErrorCode::BadRequest`], never a defaulted request.
    pub fn parse(line: &str) -> Result<Request, String> {
        serde_json::from_str(line).map_err(|e| format!("bad request: {e}"))
    }
}

/// Machine-readable error class in [`Reply::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request line did not parse as a known message, or a job field
    /// failed [`PlaceJob::validate`].
    BadRequest,
    /// Client and server [`PROTOCOL_VERSION`] differ.
    VersionMismatch,
    /// The job queue is full — backpressure; retry later.
    Busy,
    /// The server is draining for shutdown and takes no new work.
    ShuttingDown,
    /// The job sat queued past its [`PlaceJob::deadline_ms`].
    DeadlineExceeded,
    /// The submitting tenant already holds its full per-tenant share of
    /// queue slots; retry when its in-flight work drains.
    QuotaExceeded,
    /// The job's [`DeviceSpec`] does not describe a placeable device
    /// (bad parameters, unreadable JSON import, disconnected graph);
    /// caught at admission, before the job ever reaches a worker.
    InvalidDevice,
    /// The pipeline failed or panicked; the message carries the cause.
    PipelineFailed,
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::VersionMismatch => "version-mismatch",
            ErrorCode::Busy => "busy",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::QuotaExceeded => "quota-exceeded",
            ErrorCode::InvalidDevice => "invalid-device",
            ErrorCode::PipelineFailed => "pipeline-failed",
        };
        f.write_str(s)
    }
}

/// The deterministic output of one served placement.
///
/// Every field is a pure function of the [`PlaceJob`] (the pipeline is
/// bit-deterministic at any thread count), so identical requests — fresh
/// or cached, from any worker — serialize to byte-identical JSON. All
/// wall-clock data lives outside this struct, on the [`Reply::Placed`]
/// envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementResult {
    /// Device display name.
    pub device: String,
    /// Strategy display name.
    pub strategy: String,
    /// Movable instances (qubits + resonator segments).
    pub instances: usize,
    /// Final center position of every instance, in instance order (mm).
    pub positions: Vec<(f64, f64)>,
    /// Global-placement iterations (0 for the Human arm).
    pub place_iterations: usize,
    /// Final half-perimeter wirelength (mm; 0 for the Human arm).
    pub hpwl_mm: f64,
    /// Minimum-enclosing-rectangle area (mm²), Eq. 17.
    pub mer_area_mm2: f64,
    /// Area utilization in the MER.
    pub utilization: f64,
    /// Hotspot proportion P_h, Eq. 18.
    pub ph: f64,
    /// Resonant-pair violations in the final layout.
    pub violations: usize,
    /// Overlaps the legalizer could not clear (0 for the Human arm).
    pub remaining_overlaps: usize,
}

impl PlacementResult {
    /// Extracts the deterministic result fields from a completed layout.
    #[must_use]
    pub fn from_layout(device: &str, layout: &PlacedLayout) -> Self {
        let area = layout.area();
        let hotspots = layout.hotspots();
        PlacementResult {
            device: device.to_string(),
            strategy: layout.strategy.to_string(),
            instances: layout.netlist.num_instances(),
            positions: layout
                .netlist
                .positions()
                .iter()
                .map(|p| (p.x, p.y))
                .collect(),
            place_iterations: layout.placement.as_ref().map_or(0, |p| p.iterations),
            hpwl_mm: layout.placement.as_ref().map_or(0.0, |p| p.hpwl),
            mer_area_mm2: area.mer_area,
            utilization: area.utilization,
            ph: hotspots.ph,
            violations: hotspots.violations.len(),
            remaining_overlaps: layout
                .legalization
                .as_ref()
                .map_or(0, |l| l.remaining_overlaps),
        }
    }
}

/// Server → client messages.
// `Placed` and `Stats` intentionally carry their full payloads inline:
// replies are constructed once per request and immediately serialized,
// and the vendored serde has no `Box<T>` impls to shrink them with.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// Answer to [`Request::Hello`].
    Hello {
        /// Echoed correlation id.
        id: u64,
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// Server software identifier.
        server: String,
    },
    /// A completed placement.
    Placed {
        /// Echoed correlation id.
        id: u64,
        /// Whether the result came from the cache.
        cached: bool,
        /// Wall time from receipt to reply (ms). Non-deterministic.
        wall_ms: f64,
        /// The trace id the job's events were recorded under: the
        /// client-supplied id echoed back, or the server-assigned one
        /// when the request carried none. `None` only for cache hits
        /// that never ran a pipeline.
        trace_id: Option<u64>,
        /// The deterministic placement payload.
        result: PlacementResult,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Echoed correlation id.
        id: u64,
        /// The metrics snapshot.
        metrics: MetricsSnapshot,
    },
    /// Answer to [`Request::Metrics`]: the full metrics state rendered
    /// in the Prometheus text exposition format.
    MetricsText {
        /// Echoed correlation id.
        id: u64,
        /// Prometheus text exposition payload.
        text: String,
    },
    /// Answer to [`Request::DumpTrace`].
    TraceDump {
        /// Echoed correlation id.
        id: u64,
        /// Events in the dump.
        events: u64,
        /// Events lost to flight-ring overwrites before the dump.
        dropped: u64,
        /// The flight recorder rendered as a Chrome Trace Event JSON
        /// document (loads in Perfetto / `chrome://tracing`).
        chrome_json: String,
    },
    /// Answer to [`Request::Ping`].
    Pong {
        /// Echoed correlation id.
        id: u64,
    },
    /// Acknowledges [`Request::Shutdown`]; queued jobs still drain.
    ShuttingDown {
        /// Echoed correlation id.
        id: u64,
    },
    /// The request could not be served.
    Error {
        /// Echoed correlation id (0 when the request did not parse).
        id: u64,
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable cause.
        message: String,
    },
}

impl Reply {
    /// The correlation id.
    #[must_use]
    pub fn id(&self) -> u64 {
        match *self {
            Reply::Hello { id, .. }
            | Reply::Placed { id, .. }
            | Reply::Stats { id, .. }
            | Reply::MetricsText { id, .. }
            | Reply::TraceDump { id, .. }
            | Reply::Pong { id }
            | Reply::ShuttingDown { id }
            | Reply::Error { id, .. } => id,
        }
    }

    /// Serializes to one wire line (without the trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("protocol messages always serialize")
    }

    /// Parses one wire line.
    ///
    /// `Placed` replies in the server's canonical encoding take a
    /// single-pass fast path: they dominate every workload (one per
    /// placement, carrying a position per instance) and the generic
    /// parser's intermediate value tree costs more than the rest of the
    /// round trip combined. Any line the fast path cannot read byte-
    /// for-byte falls through to the generic parser, so acceptance is
    /// unchanged — only the canonical shape gets cheaper.
    pub fn parse(line: &str) -> Result<Reply, String> {
        if let Some(reply) = fast_parse_placed(line) {
            return Ok(reply);
        }
        serde_json::from_str(line).map_err(|e| format!("bad reply: {e}"))
    }
}

/// Byte cursor for [`fast_parse_placed`]: every method returns `None`
/// on the first deviation from the expected bytes, which sends the
/// whole line to the generic parser.
struct WireCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl WireCursor<'_> {
    fn lit(&mut self, s: &str) -> Option<()> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Some(())
        } else {
            None
        }
    }

    fn u64(&mut self) -> Option<u64> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    fn usize_field(&mut self) -> Option<usize> {
        self.u64().and_then(|v| usize::try_from(v).ok())
    }

    fn f64(&mut self) -> Option<f64> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' => self.pos += 1,
                _ => break,
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    /// An escape-free JSON string: the canonical encoder only escapes
    /// quotes, backslashes, and control characters, none of which occur
    /// in device or strategy display names. Any backslash bails to the
    /// generic parser rather than decoding here.
    fn string(&mut self) -> Option<String> {
        if *self.bytes.get(self.pos)? != b'"' {
            return None;
        }
        self.pos += 1;
        let start = self.pos;
        loop {
            match *self.bytes.get(self.pos)? {
                b'"' => break,
                b'\\' => return None,
                _ => self.pos += 1,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .to_string();
        self.pos += 1;
        Some(s)
    }
}

/// Scans the canonical `Place` request envelope —
/// `{"Place":{"id":N,"job":<json>,"trace_id":null|N}}`, the field
/// order [`Request::to_line`] emits — and returns `(id, the job's raw
/// JSON substring)` without parsing the job. Returns `None` for any
/// other shape; those take the generic parser. The server's admission
/// memo keys on the job substring to skip re-parsing and
/// re-fingerprinting repeat submissions.
///
/// The `trace_id` tail is located with a reverse search: the envelope's
/// `,"trace_id":` is the last occurrence on the line (the job object
/// closes before it), so a job that happens to contain the same text
/// inside a string cannot truncate the fragment — and the strict
/// `null`-or-digits check on the tail rejects any leftover ambiguity by
/// falling back to the generic parser.
pub(crate) fn scan_place_envelope(line: &str) -> Option<(u64, &str)> {
    let mut c = WireCursor {
        bytes: line.as_bytes(),
        pos: 0,
    };
    c.lit("{\"Place\":{\"id\":")?;
    let id = c.u64()?;
    c.lit(",\"job\":")?;
    let rest = &line[c.pos..];
    let rest = rest.strip_suffix("}}")?;
    let split = rest.rfind(",\"trace_id\":")?;
    let tail = &rest[split + ",\"trace_id\":".len()..];
    if tail != "null" && (tail.is_empty() || !tail.bytes().all(|b| b.is_ascii_digit())) {
        return None;
    }
    let job_json = &rest[..split];
    (job_json.starts_with('{') && job_json.ends_with('}')).then_some((id, job_json))
}

/// Single-pass parser for `Placed` replies in the exact canonical
/// encoding ([`Reply::to_line`]'s output: externally tagged, fields in
/// declaration order, no interior whitespace). Returns `None` — never
/// an error — for anything else.
fn fast_parse_placed(line: &str) -> Option<Reply> {
    let mut c = WireCursor {
        bytes: line.as_bytes(),
        pos: 0,
    };
    c.lit("{\"Placed\":{\"id\":")?;
    let id = c.u64()?;
    c.lit(",\"cached\":")?;
    let cached = if c.lit("true").is_some() {
        true
    } else {
        c.lit("false")?;
        false
    };
    c.lit(",\"wall_ms\":")?;
    let wall_ms = c.f64()?;
    c.lit(",\"trace_id\":")?;
    let trace_id = if c.lit("null").is_some() {
        None
    } else {
        Some(c.u64()?)
    };
    c.lit(",\"result\":{\"device\":")?;
    let device = c.string()?;
    c.lit(",\"strategy\":")?;
    let strategy = c.string()?;
    c.lit(",\"instances\":")?;
    let instances = c.usize_field()?;
    c.lit(",\"positions\":[")?;
    let mut positions = Vec::with_capacity(instances.min(4096));
    if c.lit("]").is_none() {
        loop {
            c.lit("[")?;
            let x = c.f64()?;
            c.lit(",")?;
            let y = c.f64()?;
            c.lit("]")?;
            positions.push((x, y));
            if c.lit(",").is_none() {
                break;
            }
        }
        c.lit("]")?;
    }
    c.lit(",\"place_iterations\":")?;
    let place_iterations = c.usize_field()?;
    c.lit(",\"hpwl_mm\":")?;
    let hpwl_mm = c.f64()?;
    c.lit(",\"mer_area_mm2\":")?;
    let mer_area_mm2 = c.f64()?;
    c.lit(",\"utilization\":")?;
    let utilization = c.f64()?;
    c.lit(",\"ph\":")?;
    let ph = c.f64()?;
    c.lit(",\"violations\":")?;
    let violations = c.usize_field()?;
    c.lit(",\"remaining_overlaps\":")?;
    let remaining_overlaps = c.usize_field()?;
    c.lit("}}}")?;
    if c.pos != c.bytes.len() {
        return None;
    }
    Some(Reply::Placed {
        id,
        cached,
        wall_ms,
        trace_id,
        result: PlacementResult {
            device,
            strategy,
            instances,
            positions,
            place_iterations,
            hpwl_mm,
            mer_area_mm2,
            utilization,
            ph,
            violations,
            remaining_overlaps,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_reply_lines_round_trip() {
        let req = Request::Place {
            id: 7,
            job: PlaceJob::fast(DeviceSpec::Falcon27, Strategy::FrequencyAware),
            trace_id: Some(0xdead_beef),
        };
        let back = Request::parse(&req.to_line()).unwrap();
        assert_eq!(req, back);
        assert_eq!(back.id(), 7);

        let reply = Reply::Error {
            id: 9,
            code: ErrorCode::Busy,
            message: "queue full".to_string(),
        };
        assert_eq!(Reply::parse(&reply.to_line()).unwrap(), reply);
    }

    #[test]
    fn metrics_messages_round_trip() {
        let req = Request::Metrics { id: 11 };
        assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
        assert_eq!(req.id(), 11);

        let reply = Reply::MetricsText {
            id: 11,
            text: "# TYPE qplacer_jobs_total counter\nqplacer_jobs_total 3\n".to_string(),
        };
        let back = Reply::parse(&reply.to_line()).unwrap();
        assert_eq!(back, reply);
        assert_eq!(back.id(), 11);
    }

    #[test]
    fn place_envelope_scan_matches_canonical_lines() {
        let job = PlaceJob::fast(DeviceSpec::Falcon27, Strategy::FrequencyAware);
        let job_json = serde_json::to_string(&job).unwrap();
        for trace_id in [None, Some(0u64), Some(u64::MAX)] {
            let line = Request::Place {
                id: 17,
                job: job.clone(),
                trace_id,
            }
            .to_line();
            let (id, fragment) = scan_place_envelope(&line).expect("canonical envelope must scan");
            assert_eq!(id, 17);
            assert_eq!(fragment, job_json, "fragment must be the exact job JSON");
        }

        // A job whose own JSON contains the `,"trace_id":` text (a
        // device-import path can) must not truncate the fragment: the
        // reverse search picks the envelope's occurrence.
        let tricky = PlaceJob::fast(
            DeviceSpec::FromJson {
                path: "/tmp/x,\"trace_id\":9.json".to_string(),
            },
            Strategy::FrequencyAware,
        );
        let line = Request::Place {
            id: 3,
            job: tricky.clone(),
            trace_id: Some(7),
        }
        .to_line();
        let (_, fragment) = scan_place_envelope(&line).expect("tricky envelope must scan");
        assert_eq!(fragment, serde_json::to_string(&tricky).unwrap());

        // Non-canonical shapes fall through to the generic parser.
        let untraced = r#"{"Place":{"id":5,"job":{"device":"Falcon27"}}}"#;
        assert_eq!(scan_place_envelope(untraced), None, "missing trace_id");
        let reordered = r#"{"Place":{"id":5,"trace_id":null,"job":{"device":"Falcon27"}}}"#;
        assert_eq!(scan_place_envelope(reordered), None, "reordered fields");
        let bad_tail = r#"{"Place":{"id":5,"job":{"a":1},"trace_id":"x"}}"#;
        assert_eq!(scan_place_envelope(bad_tail), None, "non-numeric trace id");
    }

    #[test]
    fn placed_fast_path_matches_generic_parse() {
        let reply = Reply::Placed {
            id: u64::MAX,
            cached: true,
            wall_ms: 0.0004837,
            trace_id: Some(42),
            result: PlacementResult {
                device: "grid 7x5 (h2)".to_string(),
                strategy: "frequency-aware".to_string(),
                instances: 3,
                positions: vec![(0.0, -0.25), (1e300, 5e-324), (0.30000000000000004, 3.5)],
                place_iterations: 17,
                hpwl_mm: 12.5,
                mer_area_mm2: 104.06249999999999,
                utilization: 0.6172839506172839,
                ph: 0.0,
                violations: 1,
                remaining_overlaps: 0,
            },
        };
        let line = reply.to_line();
        // The canonical line takes the fast path; it must agree with the
        // generic parser byte-for-byte on the decoded value.
        assert_eq!(fast_parse_placed(&line), Some(reply.clone()));
        assert_eq!(Reply::parse(&line).unwrap(), reply);
        let generic: Reply = serde_json::from_str(&line).unwrap();
        assert_eq!(generic, reply);

        // Empty positions stay on the fast path.
        let mut empty = reply.clone();
        if let Reply::Placed { result, .. } = &mut empty {
            result.positions.clear();
            result.instances = 0;
        }
        assert_eq!(fast_parse_placed(&empty.to_line()), Some(empty.clone()));

        // Non-canonical but valid encodings bail to the generic parser
        // and still decode to the same value.
        let reordered = line.replace(
            "{\"Placed\":{\"id\":18446744073709551615,\"cached\":true,",
            "{\"Placed\":{\"cached\":true,\"id\":18446744073709551615,",
        );
        assert_ne!(reordered, line);
        assert_eq!(fast_parse_placed(&reordered), None);
        assert_eq!(Reply::parse(&reordered).unwrap(), reply);

        // A string the canonical encoder would escape bails, and the
        // generic parser decodes it.
        let mut escaped = reply.clone();
        if let Reply::Placed { result, .. } = &mut escaped {
            result.device = "dev \"quoted\" \\ name".to_string();
        }
        let escaped_line = escaped.to_line();
        assert_eq!(fast_parse_placed(&escaped_line), None);
        assert_eq!(Reply::parse(&escaped_line).unwrap(), escaped);

        // Trailing bytes are never silently ignored.
        assert_eq!(fast_parse_placed(&format!("{line} ")), None);
        assert_eq!(fast_parse_placed(&format!("{line}x")), None);
    }

    #[test]
    fn garbage_lines_are_rejected() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"Nope\":{}}").is_err());
        assert!(Reply::parse("").is_err());
        // Every field is required and must be well-formed: a message
        // missing one is refused, not defaulted.
        assert!(Request::parse(r#"{"Hello":{"id":3}}"#).is_err());
        assert!(Request::parse(r#"{"Place":{"id":1}}"#).is_err());
        let untraced = r#"{"Place":{"id":5,"job":{"device":"Falcon27","strategy":"FrequencyAware","profile":"Fast","segment_size_mm":null,"deadline_ms":null,"priority":"Normal","tenant":null}}}"#;
        assert!(Request::parse(untraced).is_err());
        let traced = untraced.replace("}}}", "},\"trace_id\":null}}");
        assert!(Request::parse(&traced).is_ok());
        assert!(
            Request::parse(&traced.replace("\"trace_id\":null", "\"trace_id\":\"x\"")).is_err()
        );
        assert!(Request::parse(&traced.replace("\"Normal\"", "\"Urgent\"")).is_err());
    }

    #[test]
    fn priority_and_tenant_round_trip_and_stay_ordered() {
        let mut job = PlaceJob::fast(DeviceSpec::Falcon27, Strategy::FrequencyAware);
        job.priority = Priority::Low;
        job.tenant = Some("team-a".to_string());
        let req = Request::Place {
            id: 12,
            job,
            trace_id: None,
        };
        let back = Request::parse(&req.to_line()).unwrap();
        assert_eq!(back, req);

        // Lane order is strict-priority order.
        assert!(Priority::High < Priority::Normal);
        assert!(Priority::Normal < Priority::Low);
        assert_eq!(
            Priority::ALL.map(Priority::lane),
            [0, 1, 2],
            "lane indices follow ALL order"
        );
        assert_eq!("high".parse::<Priority>().unwrap(), Priority::High);
        assert!("urgent".parse::<Priority>().is_err());
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn dump_trace_round_trips() {
        let req = Request::DumpTrace { id: 21 };
        assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
        let reply = Reply::TraceDump {
            id: 21,
            events: 3,
            dropped: 1,
            chrome_json: "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}".to_string(),
        };
        let back = Reply::parse(&reply.to_line()).unwrap();
        assert_eq!(back, reply);
        assert_eq!(back.id(), 21);
    }

    #[test]
    fn place_job_resolves_profile_budgets() {
        let fast = PlaceJob::fast(DeviceSpec::Falcon27, Strategy::Classic);
        let paper = PlaceJob::new(DeviceSpec::Falcon27, Strategy::Classic);
        assert!(
            fast.pipeline_config().placer.max_iterations
                < paper.pipeline_config().placer.max_iterations
        );
        let mut seg = fast.clone();
        seg.segment_size_mm = Some(0.4);
        assert_eq!(seg.pipeline_config().netlist.segment_size_mm, 0.4);
    }
}
