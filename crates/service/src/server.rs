//! The placement server v2: a nonblocking, event-driven wire loop in
//! front of the batching worker pool.
//!
//! Thread model (one reactor, N workers — no per-connection threads):
//!
//! ```text
//!                       ┌──────────────── reactor thread ────────────────┐
//! clients ◄──── TCP ───►│ mio poll: listener + waker + every connection  │
//!                       │  · parse lines, answer hello/ping/stats inline │
//!                       │  · serve cache hits inline                     │
//!                       │  · admit placements ──► JobQueue               │
//!                       └──────▲─────────────────────────┬───────────────┘
//!                              │ reply bus + waker       │ priority lanes
//!                              │                         ▼
//!                       worker 0..N (each owns one PipelineWorkspace)
//! ```
//!
//! The reactor multiplexes every connection over one vendored-`mio`
//! [`Poll`]: level-triggered readiness, per-connection read/write
//! buffers, and `WRITABLE` interest registered only while a connection
//! has unflushed bytes. Workers never touch sockets — they push
//! `(connection, reply)` pairs onto a mutex-guarded **reply bus** and
//! wake the reactor through a loopback socket pair; the reactor routes
//! each reply into the owning connection's write buffer (connections
//! are generation-stamped, so a reply for a closed-and-recycled slot is
//! dropped, never cross-delivered). The wire protocol is unchanged —
//! the same JSON lines flow, just through an event loop that holds
//! thousands of idle connections at a few bytes each instead of two
//! threads each.
//!
//! With a store directory configured, every fresh placement is also
//! appended to the [`DurableStore`]; on startup the store's replayed
//! records seed the result cache, so a restarted daemon answers
//! previously-placed jobs byte-identically without re-running the
//! pipeline.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token};

use qplacer_harness::{
    execute_job_with, DeviceSpec, ExperimentPlan, PipelineWorkspace, PlacedLayout, Qplacer,
};
use qplacer_topology::Topology;

use crate::cache::{cache_key, cache_key_with_content, config_fingerprint, ResultCache};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::protocol::{ErrorCode, PlacementResult, Reply, Request, PROTOCOL_VERSION};
use crate::queue::{JobQueue, PushError, QueuedJob, ReplyPort, ReplySender};
use crate::store::DurableStore;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (0 = one per available core, minimum 1).
    pub workers: usize,
    /// Waiting-job capacity before `Busy` backpressure kicks in.
    pub queue_capacity: usize,
    /// Result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Most jobs one dequeue may batch into a single plan dispatch.
    pub batch_max: usize,
    /// Durable result-store directory; `None` serves memory-only.
    pub store_dir: Option<PathBuf>,
    /// Per-tenant admission quota (queue slots one tenant may hold);
    /// `None` lets any tenant fill the queue.
    pub tenant_quota: Option<usize>,
    /// This daemon's shard index. Informational labeling for logs and
    /// metrics — shard *routing* is client-side consistent hashing
    /// ([`crate::shard::ShardedClient`]).
    pub shard_id: usize,
    /// Total shards in the deployment this daemon belongs to.
    pub shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 128,
            cache_capacity: 256,
            batch_max: 8,
            store_dir: None,
            tenant_quota: None,
            shard_id: 0,
            shards: 1,
        }
    }
}

/// A cold layout kept around as a warm-start base for near-hit
/// requests: the built topology plus the full [`PlacedLayout`] (the
/// wire-level [`PlacementResult`] is too lossy to re-seed a pipeline —
/// which is also why the warm store, unlike the result cache, is never
/// persisted to the durable store).
#[derive(Debug)]
struct WarmEntry {
    base: Topology,
    layout: PlacedLayout,
}

/// A tiny LRU of warm-start bases, keyed by the base device's
/// [`config_fingerprint`]. Separate from the result cache because its
/// entries are keyed by the *base* problem while they answer
/// *derived* (defective) problems, and because a full layout is much
/// heavier than a wire result.
#[derive(Debug, Default)]
struct WarmStore {
    entries: Mutex<HashMap<u64, (u64, Arc<WarmEntry>)>>,
    tick: AtomicU64,
}

impl WarmStore {
    /// Bases kept; beyond this the least-recently-touched is dropped.
    const CAPACITY: usize = 16;

    fn get(&self, key: u64) -> Option<Arc<WarmEntry>> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.entries.lock().expect("warm store poisoned");
        entries.get_mut(&key).map(|(last, entry)| {
            *last = tick;
            Arc::clone(entry)
        })
    }

    fn insert(&self, key: u64, entry: Arc<WarmEntry>) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.entries.lock().expect("warm store poisoned");
        if !entries.contains_key(&key) && entries.len() >= Self::CAPACITY {
            if let Some(&stalest) = entries
                .iter()
                .min_by_key(|(_, (last, _))| *last)
                .map(|(k, _)| k)
            {
                entries.remove(&stalest);
            }
        }
        entries.insert(key, (tick, entry));
    }
}

/// Shared server state.
#[derive(Debug)]
struct Shared {
    queue: JobQueue,
    cache: ResultCache,
    warm: WarmStore,
    metrics: ServiceMetrics,
    store: Option<DurableStore>,
    shutdown: AtomicBool,
    batch_max: usize,
    shard_id: usize,
    shards: usize,
    live_workers: AtomicUsize,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot(
            self.queue.len(),
            self.cache.hits(),
            self.cache.misses(),
            self.cache.len(),
            self.cache.evictions(),
        );
        snap.shard_id = self.shard_id as u64;
        snap.shards = self.shards as u64;
        if let Some(store) = &self.store {
            snap.store_replayed = store.replay_stats().replayed;
            snap.store_appended = store.appended();
        }
        snap
    }

    /// Mirrors a freshly computed result into the durable store (when
    /// one is configured). Write failures degrade to memory-only
    /// caching — the placement already succeeded, losing durability
    /// must not fail the reply.
    fn persist(&self, key: u64, result: &PlacementResult) {
        if let Some(store) = &self.store {
            let _ = store.append(key, result);
        }
    }
}

/// One `(connection slot, generation, reply)` message from a worker to
/// the reactor, plus the loopback waker that gets the reactor's
/// attention. The waker write is best-effort: `WouldBlock` means bytes
/// are already pending, so the reactor is waking anyway.
#[derive(Debug)]
struct ReplyBus {
    pending: Mutex<Vec<(usize, u64, Reply)>>,
    waker_tx: TcpStream,
}

impl ReplyBus {
    fn push(&self, slot: usize, generation: u64, reply: Reply) {
        self.pending
            .lock()
            .expect("reply bus poisoned")
            .push((slot, generation, reply));
        self.wake();
    }

    fn wake(&self) {
        let _ = (&self.waker_tx).write(&[1u8]);
    }

    fn drain(&self) -> Vec<(usize, u64, Reply)> {
        std::mem::take(&mut *self.pending.lock().expect("reply bus poisoned"))
    }

    fn is_empty(&self) -> bool {
        self.pending.lock().expect("reply bus poisoned").is_empty()
    }
}

/// The [`ReplyPort`] a queued job carries: the bus, pre-bound to the
/// submitting connection's slot and generation.
struct ConnPort {
    bus: Arc<ReplyBus>,
    slot: usize,
    generation: u64,
}

impl ReplyPort for ConnPort {
    fn send(&self, reply: Reply) {
        self.bus.push(self.slot, self.generation, reply);
    }
}

/// A running placement server.
///
/// Dropping the handle does **not** stop the server; call
/// [`Server::shutdown`] (or send a `shutdown` request) and then
/// [`Server::join`].
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    bus: Arc<ReplyBus>,
    finalize: Arc<AtomicBool>,
    local_addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the reactor plus the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates bind / waker-setup / store-open I/O errors.
    pub fn start(config: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        // std binds with a backlog of 128; a same-host connect burst
        // (the C10K loadgen) overflows that between reactor wakeups and
        // the dropped SYNs retry seconds later. Deepen it; best-effort
        // since the kernel clamps to somaxconn anyway.
        let _ = mio::set_listen_backlog(&listener, 8192);
        let local_addr = listener.local_addr()?;

        // The waker: a loopback socket pair. Workers (and local
        // shutdown) write one byte to pop the reactor out of `poll`.
        let wake_listener = TcpListener::bind("127.0.0.1:0")?;
        let waker_tx = TcpStream::connect(wake_listener.local_addr()?)?;
        let (waker_rx, _) = wake_listener.accept()?;
        drop(wake_listener);
        waker_tx.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        let _ = waker_tx.set_nodelay(true);

        let store = match &config.store_dir {
            Some(dir) => Some(DurableStore::open(dir)?),
            None => None,
        };
        let cache = ResultCache::new(config.cache_capacity);
        if let Some(store) = &store {
            // Replay-seeding counts neither hits nor misses: the replay
            // is server lifecycle, not client traffic.
            for (key, result) in store.replayed_entries() {
                cache.insert(*key, Arc::clone(result));
            }
        }

        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            config.workers
        };
        let queue = match config.tenant_quota {
            Some(quota) => JobQueue::with_tenant_quota(config.queue_capacity, quota),
            None => JobQueue::new(config.queue_capacity),
        };
        let shared = Arc::new(Shared {
            queue,
            cache,
            warm: WarmStore::default(),
            metrics: ServiceMetrics::default(),
            store,
            shutdown: AtomicBool::new(false),
            batch_max: config.batch_max.max(1),
            shard_id: config.shard_id,
            shards: config.shards.max(1),
            live_workers: AtomicUsize::new(worker_count),
        });
        let bus = Arc::new(ReplyBus {
            pending: Mutex::new(Vec::new()),
            waker_tx,
        });
        let finalize = Arc::new(AtomicBool::new(false));

        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let bus = Arc::clone(&bus);
                std::thread::spawn(move || worker_loop(&shared, &bus))
            })
            .collect();
        let reactor = {
            let shared = Arc::clone(&shared);
            let bus = Arc::clone(&bus);
            let finalize = Arc::clone(&finalize);
            std::thread::spawn(move || {
                let mut reactor = match Reactor::new(listener, waker_rx, shared, bus, finalize) {
                    Ok(reactor) => reactor,
                    Err(_) => return,
                };
                reactor.run();
            })
        };

        Ok(Server {
            shared,
            bus,
            finalize,
            local_addr,
            reactor: Some(reactor),
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time metrics snapshot.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Begins graceful shutdown: stop accepting, drain the queue.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
        self.bus.wake();
    }

    /// Blocks until the workers and the reactor exit — i.e. until a
    /// shutdown (local or wire-initiated) finished draining. Open
    /// connections are answered right up to this call; once the
    /// drained workers are joined, the reactor flushes every pending
    /// reply and closes the remaining sockets.
    pub fn join(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.finalize.store(true, Ordering::SeqCst);
        self.bus.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }
}

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Connection slot `i` registers as `Token(i + CONN_BASE)`.
const CONN_BASE: usize = 2;

/// Longest partial request line a connection may buffer. Real lines
/// are a few hundred bytes (`FromJson` jobs carry a path, not the file
/// contents); a peer that sends more without a newline gets a
/// `bad-request` reply and is closed, so it cannot grow the daemon's
/// memory without bound.
const MAX_LINE_BYTES: usize = 1 << 20;

/// One connection's reactor-side state.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet forming a complete line (at most
    /// [`MAX_LINE_BYTES`] between reactor passes).
    read_buf: Vec<u8>,
    /// Serialized replies not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Stamp distinguishing this tenancy of the slot from earlier ones;
    /// replies carry it so a recycled slot never receives a dead
    /// connection's replies.
    generation: u64,
    /// No more input will be read: the peer closed its write side, or
    /// sent a line over [`MAX_LINE_BYTES`]. The connection closes once
    /// its pending replies flush.
    read_closed: bool,
    /// Unrecoverable socket error; reap without flushing.
    dead: bool,
    /// Whether WRITABLE interest is currently registered.
    wants_write: bool,
}

/// The event loop: owns the poll, the listener, the waker's read side,
/// and every connection.
struct Reactor {
    poll: Poll,
    listener: Option<TcpListener>,
    waker_rx: TcpStream,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    shared: Arc<Shared>,
    bus: Arc<ReplyBus>,
    finalize: Arc<AtomicBool>,
    /// Memo of rendered result JSON for inline cache hits, keyed by
    /// cache key. Only the reactor thread serves inline hits, so the
    /// memo needs no lock; each entry holds a [`std::sync::Weak`] to
    /// the cache value it rendered, and is re-rendered whenever the
    /// cache no longer holds that exact `Arc` (eviction, or an ECO
    /// result replacing a cold one under the same key), so the memo
    /// can never serve bytes the cache would not.
    rendered: HashMap<u64, RenderedResult>,
    /// Admission memo: a canonical `Place` line's raw job JSON → its
    /// cache key. A repeat submission of a known job skips request
    /// parsing and config fingerprinting entirely on the cache-hit
    /// path. `FromJson` devices are never memoized — their keys are
    /// salted with file *contents*, which can change under a stable
    /// job JSON.
    admission: HashMap<Box<str>, u64>,
}

/// One memoized serialization of a cached [`PlacementResult`].
struct RenderedResult {
    source: std::sync::Weak<PlacementResult>,
    json: String,
}

/// Entry cap for [`Reactor::rendered`]; on overflow the memo is cleared
/// wholesale (it is a pure cache of the result cache — dropping it only
/// costs re-serialization).
const RENDERED_MEMO_CAP: usize = 1024;

/// Entry cap for [`Reactor::admission`]; cleared wholesale on overflow
/// (a pure cache of request parsing — dropping it only costs one
/// re-parse + re-fingerprint per distinct job).
const ADMISSION_MEMO_CAP: usize = 4096;

impl Reactor {
    fn new(
        listener: TcpListener,
        waker_rx: TcpStream,
        shared: Arc<Shared>,
        bus: Arc<ReplyBus>,
        finalize: Arc<AtomicBool>,
    ) -> std::io::Result<Reactor> {
        let mut poll = Poll::new()?;
        poll.register(&listener, LISTENER, Interest::READABLE)?;
        poll.register(&waker_rx, WAKER, Interest::READABLE)?;
        Ok(Reactor {
            poll,
            listener: Some(listener),
            waker_rx,
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            shared,
            bus,
            finalize,
            rendered: HashMap::new(),
            admission: HashMap::new(),
        })
    }

    fn run(&mut self) {
        let mut events = Events::with_capacity(1024);
        let mut scratch = vec![0u8; 64 * 1024];
        loop {
            // The timeout is a liveness backstop (flag changes race the
            // poll call); every real transition also writes the waker.
            let _ = self.poll.poll(&mut events, Some(Duration::from_millis(25)));

            let mut accept_ready = false;
            let mut ready: Vec<(usize, bool, bool)> = Vec::new();
            for event in &events {
                match event.token() {
                    LISTENER => accept_ready = true,
                    WAKER => while matches!(self.waker_rx.read(&mut scratch), Ok(n) if n > 0) {},
                    Token(t) => {
                        ready.push((t - CONN_BASE, event.is_readable(), event.is_writable()))
                    }
                }
            }

            // Connections first, acceptance last: a slot freed in this
            // batch is never refilled while its stale events are still
            // in flight.
            for (slot, readable, writable) in ready {
                self.service_conn(slot, readable, writable, &mut scratch);
            }
            let mut touched: Vec<usize> = Vec::new();
            for (slot, generation, reply) in self.bus.drain() {
                let live = matches!(
                    &self.conns.get(slot),
                    Some(Some(conn)) if conn.generation == generation
                );
                if live {
                    self.enqueue_line(slot, reply.to_line());
                    if !touched.contains(&slot) {
                        touched.push(slot);
                    }
                }
            }
            for slot in touched {
                self.flush_and_update(slot);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                if let Some(listener) = self.listener.take() {
                    self.poll.deregister(LISTENER);
                    drop(listener);
                }
            } else if accept_ready {
                self.accept_new();
            }
            self.reap();

            if self.finalize.load(Ordering::SeqCst) && self.bus.is_empty() && self.all_flushed() {
                return;
            }
        }
    }

    /// Whether every surviving connection's write buffer is flushed —
    /// the finalize gate (workers are already joined by then, so no new
    /// replies can appear).
    fn all_flushed(&self) -> bool {
        self.conns
            .iter()
            .flatten()
            .all(|conn| conn.write_buf.is_empty() || conn.dead)
    }

    fn accept_new(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.next_generation += 1;
                    let conn = Conn {
                        stream,
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        generation: self.next_generation,
                        read_closed: false,
                        dead: false,
                        wants_write: false,
                    };
                    let slot = match self.free.pop() {
                        Some(slot) => {
                            self.conns[slot] = Some(conn);
                            slot
                        }
                        None => {
                            self.conns.push(Some(conn));
                            self.conns.len() - 1
                        }
                    };
                    let registered = self.poll.register(
                        &self.conns[slot].as_ref().expect("just stored").stream,
                        Token(slot + CONN_BASE),
                        Interest::READABLE,
                    );
                    if registered.is_err() {
                        self.conns[slot] = None;
                        self.free.push(slot);
                        continue;
                    }
                    self.shared
                        .metrics
                        .open_connections
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Handles one connection's readiness: flush pending writes, read
    /// whatever arrived, process every complete line.
    ///
    /// Framing is linear in the bytes read: each byte is searched for a
    /// newline once, and the complete lines leave the buffer in one
    /// drain. One pass buffers little more than [`MAX_LINE_BYTES`]; a
    /// partial line over that cap is answered with `bad-request` and
    /// closes the connection.
    fn service_conn(&mut self, slot: usize, readable: bool, writable: bool, scratch: &mut [u8]) {
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return; // closed earlier in this batch
        };
        if writable {
            flush_conn(conn);
        }
        if !readable || conn.read_closed {
            self.update_interest(slot);
            return;
        }
        // `read_buf` holds no newline on entry, so every line ends in
        // bytes read here; `complete` is the length of the prefix made
        // of whole lines.
        let mut complete = 0;
        let mut oversized = false;
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    if let Some(last) = scratch[..n].iter().rposition(|&b| b == b'\n') {
                        complete = conn.read_buf.len() + last + 1;
                    }
                    conn.read_buf.extend_from_slice(&scratch[..n]);
                    // Past the cap, stop reading: either the partial
                    // line is oversized, or there are whole lines to
                    // handle first (readiness is level-triggered, so
                    // the rest is read on the next pass).
                    if conn.read_buf.len() > MAX_LINE_BYTES {
                        oversized = conn.read_buf.len() - complete > MAX_LINE_BYTES;
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if complete == 0 && !oversized {
            self.update_interest(slot);
            return;
        }
        // Handle the lines straight out of the buffer, then put back
        // only the partial tail (or nothing, for an oversized one).
        let mut buf = std::mem::take(&mut conn.read_buf);
        for line in buf[..complete].split(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(line);
            if !line.trim().is_empty() {
                self.handle_line(slot, &line);
            }
        }
        if oversized {
            self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            let refusal = Reply::Error {
                id: 0,
                code: ErrorCode::BadRequest,
                message: format!("request line exceeds {MAX_LINE_BYTES} bytes; closing connection"),
            };
            self.enqueue_line(slot, refusal.to_line());
        }
        if let Some(Some(conn)) = self.conns.get_mut(slot) {
            if oversized {
                conn.read_closed = true;
            } else {
                buf.drain(..complete);
                conn.read_buf = buf;
            }
        }
        self.flush_and_update(slot);
    }

    /// Parses and dispatches one request line from `slot`.
    fn handle_line(&mut self, slot: usize, line: &str) {
        let shared = Arc::clone(&self.shared);
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        // Cached-repeat fast path: a canonical `Place` line whose job
        // JSON was admitted before skips request parsing and config
        // fingerprinting, and serves straight from the rendered-reply
        // memo. Anything unusual — unknown job bytes, a draining
        // server, an evicted cache entry — falls through to the full
        // path below, which recomputes everything from scratch.
        if !shared.shutdown.load(Ordering::SeqCst) {
            if let Some((id, job_json)) = crate::protocol::scan_place_envelope(line) {
                if let Some(&key) = self.admission.get(job_json) {
                    let received = Instant::now();
                    if let Some(result) = shared.cache.get(key) {
                        shared.metrics.placed.fetch_add(1, Ordering::Relaxed);
                        refresh_rendered(&mut self.rendered, key, &result);
                        let wall_ms = received.elapsed().as_secs_f64() * 1e3;
                        if let Some(Some(conn)) = self.conns.get_mut(slot) {
                            write_cached_envelope(
                                &mut conn.write_buf,
                                id,
                                wall_ms,
                                self.rendered[&key].json.as_bytes(),
                            );
                            conn.write_buf.push(b'\n');
                        }
                        return;
                    }
                }
            }
        }
        let reply = match Request::parse(line) {
            Err(message) => {
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                Some(Reply::Error {
                    id: 0,
                    code: ErrorCode::BadRequest,
                    message,
                })
            }
            Ok(Request::Hello { id, version }) => Some(if version == PROTOCOL_VERSION {
                Reply::Hello {
                    id,
                    version: PROTOCOL_VERSION,
                    server: concat!("qplacer-service/", env!("CARGO_PKG_VERSION")).to_string(),
                }
            } else {
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                Reply::Error {
                    id,
                    code: ErrorCode::VersionMismatch,
                    message: format!("server speaks v{PROTOCOL_VERSION}, client sent v{version}"),
                }
            }),
            Ok(Request::Ping { id }) => Some(Reply::Pong { id }),
            Ok(Request::Stats { id }) => Some(Reply::Stats {
                id,
                metrics: shared.snapshot(),
            }),
            Ok(Request::Metrics { id }) => {
                let mut text = shared.snapshot().render_prometheus();
                text.push_str(&qplacer_obs::render_prometheus(qplacer_obs::global()));
                Some(Reply::MetricsText { id, text })
            }
            Ok(Request::DumpTrace { id }) => {
                let snapshot = qplacer_obs::event_snapshot();
                Some(Reply::TraceDump {
                    id,
                    events: snapshot.events.len() as u64,
                    dropped: snapshot.dropped,
                    chrome_json: qplacer_obs::chrome_trace_json(&snapshot.events),
                })
            }
            Ok(Request::Shutdown { id }) => {
                shared.begin_shutdown();
                Some(Reply::ShuttingDown { id })
            }
            Ok(Request::Place { id, job, trace_id }) => {
                if let Err(message) = job.validate() {
                    shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    let reply = Reply::Error {
                        id,
                        code: ErrorCode::BadRequest,
                        message,
                    };
                    self.enqueue_line(slot, reply.to_line());
                    return;
                }
                // Remember this job's cache key under its raw JSON so
                // repeats take the fast path above. Only for canonical
                // envelopes, and never for content-salted imports.
                if !matches!(job.device, qplacer_harness::DeviceSpec::FromJson { .. }) {
                    if let Some((_, job_json)) = crate::protocol::scan_place_envelope(line) {
                        if !self.admission.contains_key(job_json) {
                            if self.admission.len() >= ADMISSION_MEMO_CAP {
                                self.admission.clear();
                            }
                            self.admission.insert(job_json.into(), cache_key(&job));
                        }
                    }
                }
                let generation = match self.conns.get(slot) {
                    Some(Some(conn)) => conn.generation,
                    _ => return,
                };
                let port = ReplySender::Port(Arc::new(ConnPort {
                    bus: Arc::clone(&self.bus),
                    slot,
                    generation,
                }));
                if let Some(line) =
                    handle_place(&shared, id, job, trace_id, port, &mut self.rendered)
                {
                    self.enqueue_line(slot, line);
                }
                return;
            }
        };
        if let Some(reply) = reply {
            self.enqueue_line(slot, reply.to_line());
        }
    }

    /// Appends one wire line to the connection's write buffer.
    ///
    /// Append-only by design — the flush happens once per event batch
    /// ([`Reactor::flush_and_update`]), not per reply. A flush per reply
    /// sync-wakes the blocked reader on loopback, which preempts the
    /// reactor mid-batch and degrades a pipelined submission back into
    /// per-reply ping-pong on a loaded single-core host.
    fn enqueue_line(&mut self, slot: usize, line: String) {
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        conn.write_buf.extend_from_slice(line.as_bytes());
        conn.write_buf.push(b'\n');
    }

    /// Flushes what the socket will take and re-syncs poll interest.
    /// Called once per touched connection at event-batch boundaries, so
    /// every reply generated by one readable event (or one bus drain)
    /// leaves in a single write.
    fn flush_and_update(&mut self, slot: usize) {
        if let Some(Some(conn)) = self.conns.get_mut(slot) {
            flush_conn(conn);
        }
        self.update_interest(slot);
    }

    /// Keeps the poll registration in sync with what the connection
    /// needs: always READABLE, WRITABLE only while bytes are pending.
    fn update_interest(&mut self, slot: usize) {
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        let needs_write = !conn.write_buf.is_empty();
        if needs_write != conn.wants_write {
            let interest = if needs_write {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            if self
                .poll
                .reregister(Token(slot + CONN_BASE), interest)
                .is_ok()
            {
                conn.wants_write = needs_write;
            }
        }
    }

    /// Closes connections that are finished: dead sockets immediately,
    /// finished readers once their replies are flushed.
    fn reap(&mut self) {
        for slot in 0..self.conns.len() {
            let close = match &self.conns[slot] {
                Some(conn) => conn.dead || (conn.read_closed && conn.write_buf.is_empty()),
                None => false,
            };
            if close {
                self.poll.deregister(Token(slot + CONN_BASE));
                self.conns[slot] = None;
                self.free.push(slot);
                self.shared
                    .metrics
                    .open_connections
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Writes as much of the connection's pending output as the socket
/// accepts right now.
fn flush_conn(conn: &mut Conn) {
    while !conn.write_buf.is_empty() {
        match conn.stream.write(&conn.write_buf) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.write_buf.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Appends the wire bytes of a cached `Placed` reply — the envelope
/// hand-assembled around a memoized result fragment — to `buf`, without
/// a trailing newline. Must stay byte-identical to
/// `Reply::Placed { cached: true, trace_id: None, .. }.to_line()`
/// — externally tagged enum, fields in declaration order, `f64` via
/// shortest round-trip — which `cached_line_matches_serde` locks in.
fn write_cached_envelope(buf: &mut Vec<u8>, id: u64, wall_ms: f64, fragment: &[u8]) {
    use std::io::Write as _;
    buf.extend_from_slice(b"{\"Placed\":{\"id\":");
    let _ = write!(buf, "{id}");
    buf.extend_from_slice(b",\"cached\":true,\"wall_ms\":");
    let _ = write!(buf, "{wall_ms:?}");
    buf.extend_from_slice(b",\"trace_id\":null,\"result\":");
    buf.extend_from_slice(fragment);
    buf.extend_from_slice(b"}}");
}

/// [`write_cached_envelope`] as an owned line.
fn placed_cached_line(id: u64, wall_ms: f64, result_json: &str) -> String {
    let mut buf = Vec::with_capacity(result_json.len() + 64);
    write_cached_envelope(&mut buf, id, wall_ms, result_json.as_bytes());
    String::from_utf8(buf).expect("wire envelope is UTF-8")
}

/// Ensures the rendered-JSON memo holds the serialization of exactly
/// this cache value (pointer-identity against the live `Arc`, so an
/// evicted-and-replaced key can never serve stale bytes), clearing the
/// memo wholesale at [`RENDERED_MEMO_CAP`].
fn refresh_rendered(
    rendered: &mut HashMap<u64, RenderedResult>,
    key: u64,
    result: &Arc<PlacementResult>,
) {
    let stale = match rendered.get(&key) {
        Some(memo) => !memo
            .source
            .upgrade()
            .is_some_and(|live| Arc::ptr_eq(&live, result)),
        None => true,
    };
    if stale {
        if rendered.len() >= RENDERED_MEMO_CAP {
            rendered.clear();
        }
        let json = serde_json::to_string(&**result).expect("placement results always serialize");
        rendered.insert(
            key,
            RenderedResult {
                source: Arc::downgrade(result),
                json,
            },
        );
    }
}

/// Dispatches one placement: served from cache inline (on the reactor
/// thread), or enqueued for the worker pool. Returns the wire line to
/// send now, if any: a cache hit reuses the memoized result JSON
/// instead of re-serializing the full [`PlacementResult`].
fn handle_place(
    shared: &Arc<Shared>,
    id: u64,
    job: crate::protocol::PlaceJob,
    trace_id: Option<u64>,
    reply: ReplySender,
    rendered: &mut HashMap<u64, RenderedResult>,
) -> Option<String> {
    let received = Instant::now();
    if shared.shutdown.load(Ordering::SeqCst) {
        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        return Some(
            Reply::Error {
                id,
                code: ErrorCode::ShuttingDown,
                message: "server is draining".to_string(),
            }
            .to_line(),
        );
    }
    // Admission: compute the cache key, and reject unplaceable devices
    // (bad parameters, unreadable import, isolated qubits) with a typed
    // error before they can occupy a worker.
    //
    // - JSON imports are read ONCE here; the same bytes feed both the
    //   content-salted key and the validation parse, so the key always
    //   describes the contents that were validated. (A file rewritten
    //   after admission is re-read by the worker — that run's entry is
    //   keyed by bytes nobody will ask for again, never served to
    //   requests hashing the new contents.)
    // - Parametric devices validate via `try_build` only on a cache
    //   miss: a cached key proves the device already built once, and
    //   the cached fast path stays free of topology construction.
    let invalid = |message: String| {
        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .rejected_invalid_device
            .fetch_add(1, Ordering::Relaxed);
        Some(
            Reply::Error {
                id,
                code: ErrorCode::InvalidDevice,
                message,
            }
            .to_line(),
        )
    };
    let key = if let qplacer_harness::DeviceSpec::FromJson { path } = &job.device {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => return invalid(format!("invalid device import `{path}`: {e}")),
        };
        match std::str::from_utf8(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| qplacer_topology::Topology::from_json(text).map_err(|e| e.to_string()))
            .and_then(|topology| {
                qplacer_harness::DeviceSpec::validate_topology(&topology).map_err(|e| e.to_string())
            }) {
            Ok(()) => cache_key_with_content(&job, &bytes),
            Err(e) => return invalid(format!("invalid device import `{path}`: {e}")),
        }
    } else {
        cache_key(&job)
    };
    if let Some(result) = shared.cache.get(key) {
        shared.metrics.placed.fetch_add(1, Ordering::Relaxed);
        // Cache hits never ran a pipeline under this request, so there
        // is no timeline to correlate: `trace_id` is `None` by design.
        refresh_rendered(rendered, key, &result);
        return Some(placed_cached_line(
            id,
            received.elapsed().as_secs_f64() * 1e3,
            &rendered[&key].json,
        ));
    }
    if !matches!(job.device, qplacer_harness::DeviceSpec::FromJson { .. }) {
        if let Err(e) = job.device.try_build() {
            return invalid(e.to_string());
        }
    }
    let queued = QueuedJob {
        id,
        job,
        key,
        trace_id,
        enqueued: received,
        reply,
    };
    match shared.queue.push(queued) {
        Ok(()) => None,
        Err(reason) => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            let (code, message) = match reason {
                PushError::Full => {
                    shared.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
                    (
                        ErrorCode::Busy,
                        format!(
                            "queue full ({} waiting); retry later",
                            shared.queue.capacity()
                        ),
                    )
                }
                PushError::QuotaExceeded => {
                    shared
                        .metrics
                        .rejected_quota
                        .fetch_add(1, Ordering::Relaxed);
                    (
                        ErrorCode::QuotaExceeded,
                        format!(
                            "tenant holds its full {} queue slots; retry when work drains",
                            shared.queue.tenant_quota()
                        ),
                    )
                }
                PushError::Closed => (ErrorCode::ShuttingDown, "server is draining".to_string()),
            };
            Some(Reply::Error { id, code, message }.to_line())
        }
    }
}

/// The near-hit fast path: a [`DeviceSpec::Defective`] job whose base
/// device was already placed (same strategy, same resolved config) is
/// answered by incremental re-placement over the base's yield delta.
/// Returns `None` — falling back to the cold pipeline — when the job
/// is not defective, the base is not stored, or the replacement fails.
///
/// Note the resulting layout is the ECO solution seeded from the base,
/// not the cold solution for the same spec: both are legal and both are
/// cached under the same key, so which one a client observes depends on
/// whether the base was placed first. Clients that need the cold
/// layout bit-for-bit should place before ever placing the base.
fn serve_warm(
    shared: &Arc<Shared>,
    queued: &QueuedJob,
    trace_id: u64,
    ws: &mut PipelineWorkspace,
) -> Option<Reply> {
    let DeviceSpec::Defective {
        base,
        yield_pct,
        seed,
    } = &queued.job.device
    else {
        return None;
    };
    let config = queued.job.pipeline_config();
    let base_key = config_fingerprint(base, queued.job.strategy, &config);
    let entry = shared.warm.get(base_key)?;
    let delta = entry.base.yield_delta(*yield_pct, *seed);
    let engine = Qplacer::new(config);
    let (layout, _report) = engine
        .execute_replace(
            &entry.base,
            &entry.layout,
            &delta,
            qplacer_harness::ExecOptions {
                workspace: Some(ws),
                ..Default::default()
            },
        )
        .ok()?;
    let result = Arc::new(PlacementResult::from_layout(
        &queued.job.device.name(),
        &layout,
    ));
    shared.cache.insert(queued.key, Arc::clone(&result));
    shared.persist(queued.key, &result);
    let wall_ms = queued.enqueued.elapsed().as_secs_f64() * 1e3;
    shared.metrics.observe_stages(&layout.timings, wall_ms);
    shared.metrics.placed.fetch_add(1, Ordering::Relaxed);
    shared
        .metrics
        .warm_placements
        .fetch_add(1, Ordering::Relaxed);
    Some(Reply::Placed {
        id: queued.id,
        cached: false,
        wall_ms,
        trace_id: Some(trace_id),
        result: (*result).clone(),
    })
}

/// One worker: pop a compatible batch, turn it into a harness
/// [`ExperimentPlan`], execute each job with this worker's persistent
/// workspace, reply, cache. The last worker out wakes the reactor so a
/// pending finalize can complete.
fn worker_loop(shared: &Arc<Shared>, bus: &Arc<ReplyBus>) {
    let mut ws = PipelineWorkspace::new();
    while let Some(batch) = shared.queue.pop_batch(shared.batch_max) {
        shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .batched_jobs
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        shared
            .metrics
            .in_flight
            .fetch_add(batch.len(), Ordering::Relaxed);

        let mut plan = ExperimentPlan::new("service").with_profile(batch[0].job.profile);
        plan.jobs = batch.iter().map(|q| q.job.spec()).collect();

        for (index, queued) in batch.iter().enumerate() {
            let reply = serve_one(shared, &plan, index, queued, &mut ws);
            // Decrement before replying so a client that reacts to the
            // reply with an immediate `stats` never sees itself still
            // in flight.
            shared.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
            queued.reply.send(reply);
        }
    }
    if shared.live_workers.fetch_sub(1, Ordering::SeqCst) == 1 {
        bus.wake();
    }
}

/// Executes (or cache-serves, or expires) one dequeued job.
fn serve_one(
    shared: &Arc<Shared>,
    plan: &ExperimentPlan,
    index: usize,
    queued: &QueuedJob,
    ws: &mut PipelineWorkspace,
) -> Reply {
    if queued.expired() {
        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .deadline_expired
            .fetch_add(1, Ordering::Relaxed);
        return Reply::Error {
            id: queued.id,
            code: ErrorCode::DeadlineExceeded,
            message: format!(
                "deadline {} ms passed after {:.1} ms queued",
                queued.job.deadline_ms.unwrap_or(0),
                queued.enqueued.elapsed().as_secs_f64() * 1e3
            ),
        };
    }
    // A sibling worker may have completed the same key while this job
    // queued; the double-check keeps "identical requests never re-run
    // the pipeline" true across the pool, not just per connection.
    if let Some(result) = shared.cache.get_if_fresh(queued.key) {
        shared.metrics.placed.fetch_add(1, Ordering::Relaxed);
        return Reply::Placed {
            id: queued.id,
            cached: true,
            wall_ms: queued.enqueued.elapsed().as_secs_f64() * 1e3,
            trace_id: None,
            result: (*result).clone(),
        };
    }
    // Every event the pipeline records below — warm or cold path —
    // carries the request's trace id (or a server-assigned one when the
    // client sent none), so one job's placer/legalizer/assigner events
    // correlate even when sibling workers interleave on the timeline.
    let trace_id = queued.trace_id.unwrap_or_else(qplacer_obs::fresh_trace_id);
    let _trace_scope = qplacer_obs::adopt_trace_id(trace_id);
    // Cache miss, but maybe a *near* hit: a defective device whose base
    // was already placed under this exact strategy + configuration
    // warm-starts the whole pipeline from the base layout over the
    // yield delta (ECO re-placement) instead of placing cold.
    if let Some(reply) = serve_warm(shared, queued, trace_id, ws) {
        return reply;
    }
    let (record, layout) = execute_job_with(plan, index, ws);
    match layout {
        Some(layout) => {
            let result = Arc::new(PlacementResult::from_layout(&record.device, &layout));
            shared.cache.insert(queued.key, Arc::clone(&result));
            shared.persist(queued.key, &result);
            // Non-derived devices become warm-start bases for future
            // defective requests over the same base. JSON imports are
            // skipped: the file can change under the stored topology.
            if !matches!(
                queued.job.device,
                DeviceSpec::Defective { .. } | DeviceSpec::FromJson { .. }
            ) {
                if let Ok(base) = queued.job.device.try_build() {
                    let base_key = config_fingerprint(
                        &queued.job.device,
                        queued.job.strategy,
                        &queued.job.pipeline_config(),
                    );
                    shared.warm.insert(
                        base_key,
                        Arc::new(WarmEntry {
                            base,
                            layout: layout.clone(),
                        }),
                    );
                }
            }
            let wall_ms = queued.enqueued.elapsed().as_secs_f64() * 1e3;
            shared.metrics.observe_stages(&layout.timings, wall_ms);
            shared.metrics.placed.fetch_add(1, Ordering::Relaxed);
            Reply::Placed {
                id: queued.id,
                cached: false,
                wall_ms,
                trace_id: Some(trace_id),
                result: (*result).clone(),
            }
        }
        None => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            let message = match &record.status {
                qplacer_harness::JobStatus::Failed { error } => format!("failed: {error}"),
                qplacer_harness::JobStatus::Panicked { message } => {
                    format!("panicked: {message}")
                }
                qplacer_harness::JobStatus::Ok => "pipeline returned no layout".to_string(),
            };
            Reply::Error {
                id: queued.id,
                code: ErrorCode::PipelineFailed,
                message,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cache-hit fast path hand-assembles its wire line around a
    /// memoized result fragment instead of serializing a [`Reply`].
    /// That is only sound if the bytes are exactly what serde would
    /// have produced — same envelope, same field order, same float
    /// rendering — because clients, the durable store's replay
    /// guarantee, and the protocol tests all assume one canonical
    /// encoding per reply.
    #[test]
    fn cached_line_matches_serde() {
        let result = PlacementResult {
            device: "grid 7x5 (h2)".to_string(),
            strategy: "frequency-aware".to_string(),
            instances: 35,
            positions: vec![
                (0.0, -0.25),
                (1.5, 2.0),
                (0.1, 0.2),
                (1e300, 5e-324),
                (-123456.789, 0.30000000000000004),
            ],
            place_iterations: 412,
            hpwl_mm: 17.25,
            mer_area_mm2: 104.06249999999999,
            utilization: 0.6172839506172839,
            ph: 0.0,
            violations: 3,
            remaining_overlaps: 0,
        };
        let fragment = serde_json::to_string(&result).unwrap();
        for (id, wall_ms) in [
            (0u64, 0.0f64),
            (1, 0.25),
            (u64::MAX, 0.0004837),
            (42, 1234.5678901234567),
            (7, 3.0),
        ] {
            let manual = placed_cached_line(id, wall_ms, &fragment);
            let via_serde = Reply::Placed {
                id,
                cached: true,
                wall_ms,
                trace_id: None,
                result: result.clone(),
            }
            .to_line();
            assert_eq!(manual, via_serde);
        }
    }
}
