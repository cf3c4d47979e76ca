//! A blocking wire-protocol client.
//!
//! [`ServiceClient`] speaks the JSON-lines protocol over one TCP
//! connection. Connections are configured through [`ClientBuilder`] —
//! address, connect/read timeouts, retry-on-`Busy` backoff, and the
//! default [`TracePolicy`] — and the builder doubles as the
//! per-shard connection template for
//! [`ShardedClient`](crate::shard::ShardedClient). The constructor
//! performs the `hello` version handshake, then each call writes one
//! request line and reads reply lines until the echoed id matches
//! (tolerating interleaved replies from earlier pipelined requests).
//! The same client drives the CLI (`qplacer submit` / `stats` /
//! `shutdown`), the loopback tests, the load generator, and the
//! benchmark's `serve_mix` workload.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::metrics::MetricsSnapshot;
use crate::protocol::{ErrorCode, PlaceJob, PlacementResult, Reply, Request, PROTOCOL_VERSION};

/// Why a client call failed.
#[derive(Debug)]
pub enum ServiceError {
    /// Transport failure.
    Io(std::io::Error),
    /// The peer sent something that is not a valid (or expected) reply.
    Protocol(String),
    /// The server answered with [`Reply::Error`].
    Remote {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable cause.
        message: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "io error: {e}"),
            ServiceError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServiceError::Remote { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

/// A served placement: the deterministic result plus the reply
/// envelope's serving metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedReply {
    /// Whether the cache served this placement.
    pub cached: bool,
    /// Server-side receipt-to-reply wall time (ms).
    pub wall_ms: f64,
    /// The trace id the job's events were recorded under (the id this
    /// client supplied, echoed back, or a server-assigned one).
    pub trace_id: Option<u64>,
    /// The deterministic placement payload.
    pub result: PlacementResult,
}

/// A flight-recorder dump fetched with
/// [`ServiceClient::dump_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDumpReply {
    /// Events in the dump.
    pub events: u64,
    /// Events lost to ring overwrites before the dump.
    pub dropped: u64,
    /// Chrome Trace Event JSON (loads in Perfetto /
    /// `chrome://tracing`).
    pub chrome_json: String,
}

/// What trace id a [`ServiceClient::place`] call sends with the job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TracePolicy {
    /// A fresh id per call (the default): every placement's pipeline
    /// events are independently correlatable in the daemon's timeline.
    #[default]
    Fresh,
    /// No trace id: the server assigns one for fresh runs.
    Untraced,
    /// One fixed id for every call — correlates a whole client session
    /// (or a caller-chosen request group) under a single timeline id.
    Fixed(u64),
}

impl TracePolicy {
    /// The id to put on the wire for one call.
    fn next_id(self) -> Option<u64> {
        match self {
            TracePolicy::Fresh => Some(qplacer_obs::fresh_trace_id()),
            TracePolicy::Untraced => None,
            TracePolicy::Fixed(id) => Some(id),
        }
    }
}

/// Configures and opens [`ServiceClient`] connections.
///
/// ```no_run
/// use std::time::Duration;
/// use qplacer_service::ClientBuilder;
///
/// let mut client = ClientBuilder::new("127.0.0.1:7878")
///     .connect_timeout(Duration::from_secs(2))
///     .read_timeout(Duration::from_secs(30))
///     .retry_busy(4) // exponential backoff on `Busy`
///     .connect()
///     .unwrap();
/// client.ping().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    addr: String,
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    retry_busy: u32,
    retry_backoff: Duration,
    trace_policy: TracePolicy,
}

impl ClientBuilder {
    /// A builder for `addr` with no timeouts, no `Busy` retries, and
    /// [`TracePolicy::Fresh`].
    pub fn new(addr: impl ToString) -> ClientBuilder {
        ClientBuilder {
            addr: addr.to_string(),
            connect_timeout: None,
            read_timeout: None,
            retry_busy: 0,
            retry_backoff: Duration::from_millis(10),
            trace_policy: TracePolicy::Fresh,
        }
    }

    /// Replaces the target address (used by
    /// [`ShardedClient`](crate::shard::ShardedClient) to stamp one
    /// template across shards).
    #[must_use]
    pub fn addr(mut self, addr: impl ToString) -> ClientBuilder {
        self.addr = addr.to_string();
        self
    }

    /// Bounds how long [`connect`](Self::connect) waits per resolved
    /// address. Unset, connects block at the OS default.
    #[must_use]
    pub fn connect_timeout(mut self, timeout: Duration) -> ClientBuilder {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Bounds how long any call waits for a reply line. Unset, reads
    /// block until the server answers or the connection drops.
    #[must_use]
    pub fn read_timeout(mut self, timeout: Duration) -> ClientBuilder {
        self.read_timeout = Some(timeout);
        self
    }

    /// Retries a `Busy`-rejected placement up to `max` times, doubling
    /// the backoff sleep each attempt (first sleep
    /// [`retry_backoff`](Self::retry_backoff)). Zero (the default)
    /// surfaces `Busy` to the caller immediately.
    #[must_use]
    pub fn retry_busy(mut self, max: u32) -> ClientBuilder {
        self.retry_busy = max;
        self
    }

    /// The first retry's backoff sleep (default 10 ms); each further
    /// retry doubles it.
    #[must_use]
    pub fn retry_backoff(mut self, backoff: Duration) -> ClientBuilder {
        self.retry_backoff = backoff;
        self
    }

    /// The default trace-id policy for [`ServiceClient::place`].
    #[must_use]
    pub fn trace_policy(mut self, policy: TracePolicy) -> ClientBuilder {
        self.trace_policy = policy;
        self
    }

    /// Connects and performs the version handshake.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when no resolved address accepts within the
    /// connect timeout; [`ServiceError::Protocol`] when the peer does
    /// not speak protocol v[`PROTOCOL_VERSION`].
    pub fn connect(&self) -> Result<ServiceClient, ServiceError> {
        let stream = match self.connect_timeout {
            None => TcpStream::connect(&self.addr)?,
            Some(timeout) => {
                let mut last_err: Option<std::io::Error> = None;
                let mut connected = None;
                for addr in self.addr.as_str().to_socket_addrs()? {
                    match TcpStream::connect_timeout(&addr, timeout) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                connected.ok_or_else(|| {
                    last_err.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::AddrNotAvailable,
                            format!("`{}` resolved to no addresses", self.addr),
                        )
                    })
                })?
            }
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.read_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = ServiceClient {
            reader,
            writer: stream,
            next_id: 0,
            pending: std::collections::HashMap::new(),
            line_buf: String::new(),
            trace_policy: self.trace_policy,
            retry_busy: self.retry_busy,
            retry_backoff: self.retry_backoff,
        };
        let id = client.fresh_id();
        match client.call(Request::Hello {
            id,
            version: PROTOCOL_VERSION,
        })? {
            Reply::Hello { version, .. } if version == PROTOCOL_VERSION => Ok(client),
            Reply::Hello { version, .. } => Err(ServiceError::Protocol(format!(
                "server speaks protocol v{version}, expected v{PROTOCOL_VERSION}"
            ))),
            Reply::Error { code, message, .. } => Err(ServiceError::Remote { code, message }),
            other => Err(unexpected("hello", &other)),
        }
    }
}

/// A blocking client over one TCP connection.
#[derive(Debug)]
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// Replies that arrived while waiting for a different id — the
    /// out-of-order completions of pipelined
    /// [`submit_place`](Self::submit_place) requests.
    pending: std::collections::HashMap<u64, Reply>,
    /// Reusable scratch for reading reply lines, so a pipelined drain
    /// does not pay one allocation per reply.
    line_buf: String,
    trace_policy: TracePolicy,
    retry_busy: u32,
    retry_backoff: Duration,
}

impl ServiceClient {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Sends one request and reads replies until the matching id.
    fn call(&mut self, request: Request) -> Result<Reply, ServiceError> {
        let id = request.id();
        writeln!(self.writer, "{}", request.to_line())?;
        self.writer.flush()?;
        self.recv_reply(id)
    }

    /// Reads reply lines until `id` answers, parking every other id for
    /// its own future [`await_place`](Self::await_place).
    fn recv_reply(&mut self, id: u64) -> Result<Reply, ServiceError> {
        if let Some(reply) = self.pending.remove(&id) {
            return Ok(reply);
        }
        loop {
            self.line_buf.clear();
            let n = self.reader.read_line(&mut self.line_buf)?;
            if n == 0 {
                return Err(ServiceError::Protocol(
                    "connection closed before reply".to_string(),
                ));
            }
            let reply = Reply::parse(self.line_buf.trim_end()).map_err(ServiceError::Protocol)?;
            // Id 0 is the server's "could not even parse the request"
            // reply — there is no better correlation than "this call".
            if reply.id() == id || matches!(reply, Reply::Error { id: 0, .. }) {
                return Ok(reply);
            }
            self.pending.insert(reply.id(), reply);
        }
    }

    /// Runs (or cache-serves) one placement under the connection's
    /// [`TracePolicy`], retrying `Busy` rejections per the builder's
    /// backoff settings.
    pub fn place(&mut self, job: &PlaceJob) -> Result<PlacedReply, ServiceError> {
        self.place_with_policy(job, self.trace_policy)
    }

    /// [`place`](Self::place) under an explicit per-call policy.
    pub fn place_with_policy(
        &mut self,
        job: &PlaceJob,
        policy: TracePolicy,
    ) -> Result<PlacedReply, ServiceError> {
        let mut backoff = self.retry_backoff;
        let mut retries_left = self.retry_busy;
        loop {
            match self.place_once(job, policy.next_id()) {
                Err(ServiceError::Remote {
                    code: ErrorCode::Busy,
                    ..
                }) if retries_left > 0 => {
                    retries_left -= 1;
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
                other => return other,
            }
        }
    }

    /// Writes one placement request and returns immediately with its
    /// request id — the submit half of a pipelined exchange. The reply
    /// is collected later with [`await_place`](Self::await_place);
    /// any number of submissions may be in flight, and replies may
    /// complete out of order (cache hits answer inline while queued
    /// work is still running).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the write fails.
    pub fn submit_place(&mut self, job: &PlaceJob) -> Result<u64, ServiceError> {
        Ok(self.submit_places(std::slice::from_ref(job))?[0])
    }

    /// Submits a whole batch in one wire write — the request lines are
    /// serialized back to back and hit the socket as a single
    /// `write(2)`, so the server's reactor picks the entire batch up
    /// in one wakeup. Returns the request ids in job order, for
    /// [`await_place`](Self::await_place).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the write fails (no job was
    /// submitted-in-part: the batch is buffered before writing).
    pub fn submit_places(&mut self, jobs: &[PlaceJob]) -> Result<Vec<u64>, ServiceError> {
        let mut wire = String::new();
        let mut ids = Vec::with_capacity(jobs.len());
        for job in jobs {
            let id = self.fresh_id();
            let request = Request::Place {
                id,
                job: job.clone(),
                trace_id: self.trace_policy.next_id(),
            };
            wire.push_str(&request.to_line());
            wire.push('\n');
            ids.push(id);
        }
        self.writer.write_all(wire.as_bytes())?;
        self.writer.flush()?;
        Ok(ids)
    }

    /// Collects the reply for a [`submit_place`](Self::submit_place)
    /// id, buffering any other in-flight replies that arrive first.
    /// `Busy` rejections surface as [`ServiceError::Remote`] — the
    /// builder's retry policy does not apply to pipelined submissions
    /// (the job would have to be resubmitted, which is the caller's
    /// call).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] / [`ServiceError::Protocol`] on transport
    /// or framing failure, [`ServiceError::Remote`] when the server
    /// rejected the job.
    pub fn await_place(&mut self, id: u64) -> Result<PlacedReply, ServiceError> {
        match self.recv_reply(id)? {
            Reply::Placed {
                cached,
                wall_ms,
                trace_id,
                result,
                ..
            } => Ok(PlacedReply {
                cached,
                wall_ms,
                trace_id,
                result,
            }),
            Reply::Error { code, message, .. } => Err(ServiceError::Remote { code, message }),
            other => Err(unexpected("placed", &other)),
        }
    }

    /// Pipelines a batch: submits every job, then collects every
    /// reply, in input order. One flush-per-job on the way out and one
    /// read pass on the way back — the server processes the whole
    /// batch in as few reactor wakeups as its cache allows, instead of
    /// paying a full client round trip per job.
    ///
    /// # Errors
    ///
    /// The first submit or await failure, in input order.
    pub fn place_many(&mut self, jobs: &[PlaceJob]) -> Result<Vec<PlacedReply>, ServiceError> {
        let ids = jobs
            .iter()
            .map(|job| self.submit_place(job))
            .collect::<Result<Vec<_>, _>>()?;
        ids.into_iter().map(|id| self.await_place(id)).collect()
    }

    /// One wire round trip, no retry.
    fn place_once(
        &mut self,
        job: &PlaceJob,
        trace_id: Option<u64>,
    ) -> Result<PlacedReply, ServiceError> {
        let id = self.fresh_id();
        match self.call(Request::Place {
            id,
            job: job.clone(),
            trace_id,
        })? {
            Reply::Placed {
                cached,
                wall_ms,
                trace_id,
                result,
                ..
            } => Ok(PlacedReply {
                cached,
                wall_ms,
                trace_id,
                result,
            }),
            Reply::Error { code, message, .. } => Err(ServiceError::Remote { code, message }),
            other => Err(unexpected("placed", &other)),
        }
    }

    /// Fetches the server's flight recorder as a Chrome-trace dump —
    /// the post-mortem view of what the daemon's threads were doing.
    pub fn dump_trace(&mut self) -> Result<TraceDumpReply, ServiceError> {
        let id = self.fresh_id();
        match self.call(Request::DumpTrace { id })? {
            Reply::TraceDump {
                events,
                dropped,
                chrome_json,
                ..
            } => Ok(TraceDumpReply {
                events,
                dropped,
                chrome_json,
            }),
            Reply::Error { code, message, .. } => Err(ServiceError::Remote { code, message }),
            other => Err(unexpected("trace-dump", &other)),
        }
    }

    /// Fetches the server's metrics snapshot.
    pub fn stats(&mut self) -> Result<MetricsSnapshot, ServiceError> {
        let id = self.fresh_id();
        match self.call(Request::Stats { id })? {
            Reply::Stats { metrics, .. } => Ok(metrics),
            Reply::Error { code, message, .. } => Err(ServiceError::Remote { code, message }),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Fetches the server's metrics in the Prometheus text exposition
    /// format (snapshot counters/histograms plus the process-global
    /// [`qplacer_obs`] registry).
    pub fn metrics_text(&mut self) -> Result<String, ServiceError> {
        let id = self.fresh_id();
        match self.call(Request::Metrics { id })? {
            Reply::MetricsText { text, .. } => Ok(text),
            Reply::Error { code, message, .. } => Err(ServiceError::Remote { code, message }),
            other => Err(unexpected("metrics-text", &other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServiceError> {
        let id = self.fresh_id();
        match self.call(Request::Ping { id })? {
            Reply::Pong { .. } => Ok(()),
            Reply::Error { code, message, .. } => Err(ServiceError::Remote { code, message }),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        let id = self.fresh_id();
        match self.call(Request::Shutdown { id })? {
            Reply::ShuttingDown { .. } => Ok(()),
            Reply::Error { code, message, .. } => Err(ServiceError::Remote { code, message }),
            other => Err(unexpected("shutting-down", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Reply) -> ServiceError {
    ServiceError::Protocol(format!("expected {wanted} reply, got {got:?}"))
}
