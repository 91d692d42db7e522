//! The event-driven query server core.
//!
//! A [`Server`] is a `std::net::TcpListener` accept thread feeding a set
//! of sharded event loops — one per configured worker — over per-loop
//! handoff queues. Each loop drives its connections with nonblocking
//! sockets and the `osarch-poll` readiness shim (epoll on Linux, a
//! portable tick fallback elsewhere): requests are line-JSON (see
//! [`crate::protocol`]), framed incrementally so a connection can keep
//! **many pipelined requests in flight** and replies are batched into a
//! single write per readiness pass. Per-connection read/write buffers
//! come from a per-loop arena and are recycled on disconnect — the hot
//! path allocates for reply strings, never for framing.
//!
//! The loops never block on anything but the poller:
//!
//! * control queries (`ping`, `stats`, `spans`, `health`, `shutdown`)
//!   and already-landed cache entries ([`ShardedCache::try_get`]) are
//!   answered inline on the loop;
//! * a data-query miss is offloaded to a small compute pool through the
//!   bounded job queue; the pool runs the blocking single-flight path
//!   (coalescing concurrent misses), then posts a completion to the
//!   owning loop's mailbox and nudges its waker. Ordered reply *tickets*
//!   per connection keep pipelined responses in request order even when
//!   computations finish out of order.
//!
//! The server is built to survive misbehaviour, injected or real:
//!
//! * request handling runs under `catch_unwind` — a panicking handler
//!   produces an error envelope, never a dead loop;
//! * a loop that *does* die respawns in place with a fresh poller; a
//!   per-loop generation counter keeps late completions from being
//!   misdelivered to a recycled connection slot;
//! * progress-based timers: any byte read resets the idle clock (only a
//!   truly silent connection is disconnected at `idle_timeout`), and a
//!   client that stops draining its socket is disconnected after
//!   `write_timeout` without write progress — so a stalled client can
//!   neither wedge a loop nor block shutdown;
//! * an oversized request line gets an error envelope and the connection
//!   is *resynchronized* at the next newline, buffer capacity released;
//! * a failed recomputation degrades to the last good cached value,
//!   explicitly flagged, rather than failing the request outright;
//! * admission control bounds open connections (`queue_depth` is the
//!   global connection budget); the surplus is answered `busy`.
//!
//! Fault injection ([`osarch_chaos::ChaosController`]) threads through
//! the accept path, the compute pool, the response writer and the loop
//! lifecycle; with no controller configured every hook is one branch.
//!
//! Shutdown is cooperative: a `shutdown` request (or
//! [`ServerHandle::shutdown`]) flips the flag, closes the job queue and
//! the handoffs, wakes every loop, and pokes the accept thread with a
//! loopback connection. Loops flush completed replies and exit.

use crate::cache::{Fetched, ShardedCache};
use crate::protocol::{self, AdminAction, Frame, FrameBuf, Query};
use crate::queue::BoundedQueue;
use crate::registry::{parse_spec_fetch, SpecRegistry, SpecSnapshot};
use crate::stats::{op_slot, HealthGauges, ServeStats, OP_NAMES};
use osarch_chaos::{ChaosController, Failpoint};
use osarch_cluster::{Membership, Ring};
use osarch_cpu::json::Json;
use osarch_poll::{fd_of, new_poller, Event, Interest, Readiness, Token, WakeRx, Waker};
use osarch_telemetry::{
    PendingTrace, TelemetryHub, TraceIdGen, COUNTER_DEGRADED, COUNTER_ERRORS, COUNTER_HITS,
    COUNTER_MISSES, COUNTER_REQUESTS,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Event loops (one poller + connection set each).
    pub workers: usize,
    /// Cache shards.
    pub shards: usize,
    /// Global open-connection budget; connections beyond it are answered
    /// with a `busy` error envelope and dropped (backpressure). Kept
    /// under its historical name: in the thread-per-connection core this
    /// bounded the handoff queue, which was the same admission decision.
    pub queue_depth: usize,
    /// Per-request service deadline; a request that takes longer is
    /// answered with a `deadline exceeded` error envelope.
    pub deadline: Duration,
    /// Idle timeout per connection, measured from the **last byte
    /// read**: a client making byte-level progress mid-request is never
    /// idle, only a truly silent connection is disconnected.
    pub idle_timeout: Duration,
    /// Write-progress deadline per connection; a client that stops
    /// draining its socket is disconnected instead of wedging the loop
    /// (and, with it, shutdown).
    pub write_timeout: Duration,
    /// Compute-pool threads for offloaded data queries (`0` = one per
    /// event loop).
    pub compute_threads: usize,
    /// Trace-sampling rate: every Nth request per loop carries a full
    /// per-stage trace (`0` disables tracing). The decision is a counter
    /// check made *before* parse, so unsampled requests never allocate
    /// or read the clock for telemetry.
    pub sample_every: u64,
    /// Seed for the deterministic per-loop trace-id generators. Under a
    /// chaos replay with a fixed seed, trace ids replay bit-identically.
    pub telemetry_seed: u64,
    /// When set, bind a plain-HTTP scrape listener here: `GET /metrics`
    /// answers Prometheus text, any path containing `json` answers the
    /// `osarch-metrics/1` snapshot document.
    pub metrics_addr: Option<String>,
    /// Fault-injection schedule; `None` serves faithfully.
    pub chaos: Option<Arc<ChaosController>>,
    /// Multi-node cluster mode; `None` serves standalone (the default).
    pub cluster: Option<ClusterConfig>,
    /// Shared secret for the `admin` op (live spec hot-swap). `None` —
    /// the default — refuses every `admin` request outright: the control
    /// plane simply does not exist on an unconfigured server.
    pub admin_token: Option<String>,
}

/// Cluster-mode knobs: the static seed list, this node's identity on
/// it, and the replication/forwarding policy.
///
/// Every node builds the same [`Ring`] from the same seed list, so key
/// placement needs no coordination; liveness is the only gossiped
/// state. `self_addr` must be the address *peers dial* (the listen
/// address with a real port, not `:0`) and must appear verbatim in
/// every node's `peers`-plus-self set.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's dialable address as it appears on the ring.
    pub self_addr: String,
    /// Every peer's dialable address (excluding or including self —
    /// self is always added to the ring).
    pub peers: Vec<String>,
    /// Replication factor R: each key is served by the owner plus
    /// `R - 1` distinct ring successors.
    pub replicas: usize,
    /// Virtual nodes per physical node.
    pub vnodes: usize,
    /// This node's starting incarnation; a respawned node must come
    /// back with a *higher* one so gossip revives it over stale `down`
    /// rumours.
    pub incarnation: u64,
    /// When `true` (the default), a request for a key this node does
    /// not replicate is proxied to a replica and answered in place;
    /// when `false`, the client is redirected with a `not_owner`
    /// envelope instead.
    pub proxy: bool,
    /// Anti-entropy cadence: how often the gossip thread probes the
    /// next peer with a `health` + digest exchange.
    pub gossip_interval: Duration,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            self_addr: String::new(),
            peers: Vec::new(),
            replicas: 2,
            vnodes: osarch_cluster::DEFAULT_VNODES,
            incarnation: 0,
            proxy: true,
            gossip_interval: Duration::from_millis(250),
        }
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            shards: 16,
            queue_depth: 64,
            deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            compute_threads: 0,
            sample_every: 64,
            telemetry_seed: 0,
            metrics_addr: None,
            chaos: None,
            cluster: None,
            admin_token: None,
        }
    }
}

/// The poll tick: the longest a loop sleeps before re-checking its
/// mailbox, timers and the shutdown flag.
const TICK: Duration = Duration::from_millis(100);

/// Waker registration token; connection tokens start above it.
const WAKER_TOKEN: Token = 0;
const TOKEN_BASE: usize = 1;

/// Resting capacity of an arena read framer.
const READ_BASELINE: usize = 8 * 1024;

/// Resting capacity of an arena write buffer; buffers grown well past it
/// are shrunk back when they drain or retire.
const WRITE_BASELINE: usize = 16 * 1024;

/// Stop parsing new requests from a connection whose un-flushed reply
/// backlog exceeds this (resume when it drains): per-connection flow
/// control so a slow reader cannot balloon the server.
const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Retired buffer pairs kept per loop for reuse.
const ARENA_MAX: usize = 1024;

/// Safety net for a compute job whose completion never arrives (the
/// pool posts an error completion even on panic, so this should be
/// unreachable): convert the ticket to an error after deadline + grace.
const LOST_JOB_GRACE: Duration = Duration::from_secs(60);

/// One reply slot in a connection's ordered pipeline.
enum Ticket {
    /// Rendered envelope, ready to batch into the write buffer. Replies
    /// the old core exposed to write-path chaos (successful envelopes)
    /// set `chaos`; error envelopes are always delivered faithfully.
    /// A sampled request's trace rides along and is finalized (the
    /// `write` stage) when the envelope is buffered.
    Done {
        envelope: String,
        chaos: bool,
        trace: Option<Box<PendingTrace>>,
    },
    /// Waiting on an offloaded computation.
    Waiting {
        seq: u64,
        id: String,
        queued_at: Instant,
    },
}

/// One served connection, owned by exactly one event loop.
struct Conn {
    stream: TcpStream,
    token: Token,
    /// Loop-generation stamp: completions carry it so a recycled slot
    /// can never receive a predecessor's reply.
    gen: u64,
    frames: FrameBuf,
    write_buf: Vec<u8>,
    write_pos: usize,
    pending: VecDeque<Ticket>,
    next_seq: u64,
    last_read: Instant,
    last_write: Instant,
    interest: Interest,
    read_closed: bool,
    /// Handler panicked: answer, flush, hang up.
    poisoned: bool,
    /// Chaos tore the response: flush the prefix, hang up.
    torn: bool,
    /// Hard I/O error: drop immediately.
    dead: bool,
    /// Chaos write stall: no flush attempts until this instant.
    stalled_until: Option<Instant>,
    _permit: Permit,
}

impl Conn {
    fn write_backlog(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }
}

/// Releases one unit of the open-connection budget on drop, wherever the
/// connection dies — handoff, event loop, or an unwinding loop thread.
struct Permit(Arc<AtomicUsize>);

impl Drop for Permit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One offloaded data-query computation.
struct Job {
    loop_index: usize,
    token: Token,
    gen: u64,
    seq: u64,
    key: String,
    query: Query,
    id: String,
    op: &'static str,
    started: Instant,
    start_us: u64,
    /// The registry snapshot captured at admission: the computation and
    /// the reply's `epoch` field both resolve against it, so in-flight
    /// work finishes on the spec version it started under even when the
    /// registry swaps mid-flight.
    snapshot: Arc<SpecSnapshot>,
    /// Sampled request's trace, marked at enqueue time — the pool closes
    /// the `queue` stage when it pops the job.
    trace: Option<Box<PendingTrace>>,
    /// Cluster relay: forward the original line (with the `fwd` marker)
    /// to this replica instead of computing locally. On any relay
    /// failure the pool records the miss against the peer and falls
    /// back to a local computation — availability over placement.
    relay: Option<Relay>,
}

/// A pending cluster relay: the target replica and the re-framed
/// request line (original flat object plus `"fwd":"1"`).
struct Relay {
    target: String,
    line: String,
}

/// What the pool produced for a job: a local cache fetch, or a raw
/// reply envelope relayed verbatim from the owning replica (the remote
/// answered under the same request id, so it passes through untouched).
enum Outcome {
    Fetched(Fetched),
    Relayed(String),
}

/// A finished computation on its way back to the owning loop.
struct Completion {
    token: Token,
    gen: u64,
    seq: u64,
    id: String,
    op: &'static str,
    started: Instant,
    start_us: u64,
    /// The epoch the job's snapshot was captured at; the reply envelope
    /// carries it.
    epoch: u64,
    outcome: Outcome,
    trace: Option<Box<PendingTrace>>,
}

/// Per-loop shared state: the accept handoff, the completion mailbox,
/// and the waker that interrupts the loop's poll wait.
struct LoopShared {
    handoff: BoundedQueue<(TcpStream, Permit)>,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    /// Monotonic across respawns, so stale completions can't misroute.
    gen: AtomicU64,
    /// Age of this loop's oldest unflushed reply, in ms; refreshed each
    /// housekeeping sweep so `health` can report write-backlog age
    /// without touching loop-owned connection state.
    backlog_ms: AtomicU64,
}

/// Per-loop trace state, owned by the loop thread (and surviving loop
/// respawns, so a reincarnated loop never reissues trace ids): the
/// deterministic id generator plus the sampling counter.
struct LoopTrace {
    ids: TraceIdGen,
    counter: u64,
}

impl LoopTrace {
    /// Count one request; true when this one is sampled. Pure counter
    /// arithmetic — the unsampled path costs one branch, no clock.
    fn tick(&mut self, sample_every: u64) -> bool {
        if sample_every == 0 {
            return false;
        }
        self.counter = self.counter.wrapping_add(1);
        self.counter.is_multiple_of(sample_every)
    }
}

/// State shared by the accept thread, the loops, the pool and the handle.
struct Shared {
    cache: ShardedCache,
    stats: Arc<ServeStats>,
    hub: Arc<TelemetryHub>,
    shutdown: AtomicBool,
    deadline: Duration,
    idle_timeout: Duration,
    write_timeout: Duration,
    workers: usize,
    started: Instant,
    chaos: Option<Arc<ChaosController>>,
    /// The bound address, for the shutdown poke that wakes the accept loop.
    addr: SocketAddr,
    /// The scrape listener's bound address, for its own shutdown poke.
    metrics_addr: Option<SocketAddr>,
    conn_budget: usize,
    open_conns: Arc<AtomicUsize>,
    jobs: BoundedQueue<Job>,
    loops: Vec<LoopShared>,
    cluster: Option<ClusterState>,
    /// The versioned spec registry. Lives here — not in any loop — so a
    /// committed epoch survives loop deaths and respawns.
    registry: SpecRegistry,
    admin_token: Option<String>,
}

/// Live cluster-mode state: the (immutable) ring, the (gossiped)
/// membership table, and the routing counters.
struct ClusterState {
    ring: Ring,
    membership: Mutex<Membership>,
    self_addr: String,
    replicas: usize,
    proxy: bool,
    gossip_interval: Duration,
    /// Requests this node relayed to a replica on the client's behalf.
    forwarded: AtomicU64,
    /// Forwarded requests this node answered for a peer.
    proxied: AtomicU64,
    /// Requests answered with a `not_owner` redirect.
    redirected: AtomicU64,
    /// Completed gossip probe rounds (successful or not).
    gossip_rounds: AtomicU64,
}

impl ClusterState {
    fn from_config(config: &ClusterConfig) -> ClusterState {
        let mut nodes = config.peers.clone();
        nodes.push(config.self_addr.clone());
        ClusterState {
            ring: Ring::new(&nodes, config.vnodes.max(1)),
            membership: Mutex::new(Membership::new(
                &config.self_addr,
                config.incarnation,
                &config.peers,
            )),
            self_addr: config.self_addr.clone(),
            replicas: config.replicas.max(1),
            proxy: config.proxy,
            gossip_interval: config.gossip_interval,
            forwarded: AtomicU64::new(0),
            proxied: AtomicU64::new(0),
            redirected: AtomicU64::new(0),
            gossip_rounds: AtomicU64::new(0),
        }
    }

    /// The telemetry view: ring ownership, membership liveness, and the
    /// routing counters, sampled now.
    fn gauges(&self) -> osarch_telemetry::ClusterGauges {
        let membership = lock(&self.membership);
        osarch_telemetry::ClusterGauges {
            ownership_ppm: (self.ring.ownership(&self.self_addr) * 1_000_000.0).round() as u64,
            peers_alive: membership.alive_count(),
            peers_total: self.ring.len() as u64,
            incarnation: membership.self_incarnation(),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            proxied: self.proxied.load(Ordering::Relaxed),
            redirected: self.redirected.load(Ordering::Relaxed),
            gossip_rounds: self.gossip_rounds.load(Ordering::Relaxed),
        }
    }

    /// The `cluster` op's payload: an `osarch-cluster/1` document with
    /// this node's ring view and the full membership table.
    fn status_payload(&self) -> String {
        let gauges = self.gauges();
        let membership = lock(&self.membership);
        let nodes: Vec<String> = membership
            .entries()
            .iter()
            .map(|(addr, state)| {
                format!(
                    "{{\"addr\":\"{}\",\"incarnation\":{},\"status\":\"{}\"}}",
                    osarch_core::metrics::json_escape(addr),
                    state.incarnation,
                    state.status.label()
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"schema\":\"{}\",\"self\":\"{}\",\"incarnation\":{},",
                "\"replicas\":{},\"vnodes\":{},\"proxy\":{},",
                "\"ownership_ppm\":{},\"peers_alive\":{},\"peers_total\":{},",
                "\"forwarded\":{},\"proxied\":{},\"redirected\":{},",
                "\"gossip_rounds\":{},\"nodes\":[{}]}}"
            ),
            osarch_core::metrics::CLUSTER_SCHEMA,
            osarch_core::metrics::json_escape(&self.self_addr),
            gauges.incarnation,
            self.replicas,
            self.ring.vnodes(),
            self.proxy,
            gauges.ownership_ppm,
            gauges.peers_alive,
            gauges.peers_total,
            gauges.forwarded,
            gauges.proxied,
            gauges.redirected,
            gauges.gossip_rounds,
            nodes.join(","),
        )
    }
}

impl Shared {
    /// Take a chaos decision at `fp`; `false` whenever no controller is
    /// configured. Injections are counted in the serve stats so `health`
    /// can report them without reaching into the controller.
    fn inject(&self, fp: Failpoint) -> bool {
        let hit = self
            .chaos
            .as_ref()
            .is_some_and(|chaos| chaos.should_inject(fp));
        if hit {
            self.stats.record_fault_injected();
        }
        hit
    }

    /// Take a chaos delay decision at `fp` with a deterministic duration.
    fn inject_delay(&self, fp: Failpoint, min: Duration, max: Duration) -> Option<Duration> {
        let delay = self
            .chaos
            .as_ref()
            .and_then(|chaos| chaos.inject_delay(fp, min, max));
        if delay.is_some() {
            self.stats.record_fault_injected();
        }
        delay
    }

    fn open_conns(&self) -> usize {
        self.open_conns.load(Ordering::SeqCst)
    }

    /// Microseconds since the server started — every telemetry timestamp
    /// is relative to this origin, never to the wall clock.
    fn uptime_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Age of the oldest unflushed reply across every loop, in ms.
    fn oldest_backlog_ms(&self) -> u64 {
        self.loops
            .iter()
            .map(|l| l.backlog_ms.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// One consistent-enough telemetry snapshot: windowed histograms
    /// merged across shards, plus gauges and totals sampled now.
    fn telemetry_snapshot(&self) -> osarch_telemetry::MetricsSnapshot {
        let gauges = osarch_telemetry::Gauges {
            conns_open: self.open_conns() as u64,
            conn_budget: self.conn_budget as u64,
            workers: self.workers as u64,
            workers_live: self.stats.workers_live(),
            compute_backlog: self.jobs.len() as u64,
            oldest_write_backlog_ms: self.oldest_backlog_ms(),
            registry_epoch: self.registry.snapshot().epoch(),
            shutting_down: self.shutdown.load(Ordering::SeqCst),
        };
        let totals = osarch_telemetry::Totals {
            requests: self.stats.requests(),
            errors: self.stats.errors(),
            rejected: self.stats.rejected(),
            deadline_exceeded: self.stats.deadline_exceeded(),
            panics: self.stats.panics(),
            degraded: self.stats.degraded(),
            worker_respawns: self.stats.worker_respawns(),
            faults_injected: self.stats.faults_injected(),
            conns_opened: self.stats.conns_opened(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_coalesced: self.cache.coalesced(),
            cache_failed: self.cache.failed(),
            cache_degraded: self.cache.degraded(),
            swaps: self.registry.swaps(),
            rollbacks: self.registry.rollbacks(),
        };
        let mut snap = self.hub.snapshot(self.uptime_us(), gauges, totals);
        snap.swap_latency_us = self.registry.swap_latency();
        if let Some(cluster) = &self.cluster {
            snap.cluster = Some(cluster.gauges());
        }
        snap
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The server factory. See [`Server::start`].
pub struct Server;

impl Server {
    /// Bind `config.addr`, spawn the accept thread, the event loops and
    /// the compute pool, and return a handle. Serving begins immediately.
    pub fn start(config: &ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let conn_budget = config.queue_depth.max(1);
        let open_conns = Arc::new(AtomicUsize::new(0));
        let mut wake_rxs = Vec::with_capacity(workers);
        let mut loops = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (waker, wake_rx) = osarch_poll::waker()?;
            wake_rxs.push(wake_rx);
            loops.push(LoopShared {
                handoff: BoundedQueue::new(conn_budget.max(64)),
                completions: Mutex::new(Vec::new()),
                waker,
                gen: AtomicU64::new(0),
                backlog_ms: AtomicU64::new(0),
            });
        }
        let compute_threads = if config.compute_threads == 0 {
            workers
        } else {
            config.compute_threads
        };
        let metrics_listener = match &config.metrics_addr {
            Some(scrape_addr) => Some(TcpListener::bind(scrape_addr)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };
        let shared = Arc::new(Shared {
            cache: ShardedCache::new(config.shards),
            stats: Arc::new(ServeStats::new()),
            hub: Arc::new(TelemetryHub::new(
                workers,
                &OP_NAMES,
                config.sample_every,
                config.telemetry_seed,
            )),
            shutdown: AtomicBool::new(false),
            deadline: config.deadline,
            idle_timeout: config.idle_timeout,
            write_timeout: config.write_timeout,
            workers,
            started: Instant::now(),
            chaos: config.chaos.clone(),
            addr,
            metrics_addr,
            conn_budget,
            open_conns,
            jobs: BoundedQueue::new((conn_budget * 4).max(1024)),
            loops,
            cluster: config.cluster.as_ref().map(ClusterState::from_config),
            registry: SpecRegistry::new(),
            admin_token: config.admin_token.clone(),
        });
        let mut threads = Vec::with_capacity(workers + compute_threads + 2);
        for (index, wake_rx) in wake_rxs.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            // Count the loop live before its thread exists, so a `health`
            // probe sent right after `start` returns sees every loop.
            shared.stats.worker_started();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-loop-{index}"))
                    .spawn(move || loop_main(&shared, index, &wake_rx))?,
            );
        }
        for index in 0..compute_threads {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-compute-{index}"))
                    .spawn(move || pool_main(&shared))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".to_string())
                    .spawn(move || accept_loop(&listener, &shared))?,
            );
        }
        if let Some(listener) = metrics_listener {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-metrics".to_string())
                    .spawn(move || metrics_loop(&listener, &shared))?,
            );
        }
        if shared.cluster.as_ref().is_some_and(|c| c.ring.len() > 1) {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-gossip".to_string())
                    .spawn(move || gossip_loop(&shared))?,
            );
        }
        Ok(ServerHandle {
            addr,
            shared,
            threads,
        })
    }
}

/// A running server: its bound address plus shutdown/join control.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// (hits, misses, coalesced) of the response cache.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (
            self.shared.cache.hits(),
            self.shared.cache.misses(),
            self.shared.cache.coalesced(),
        )
    }

    /// (failed computations, degraded replies) of the response cache.
    #[must_use]
    pub fn cache_failure_stats(&self) -> (u64, u64) {
        (self.shared.cache.failed(), self.shared.cache.degraded())
    }

    /// Total cache lookups. The single-flight accounting invariant is
    /// `lookups == hits + misses + coalesced`, exactly.
    #[must_use]
    pub fn cache_lookups(&self) -> u64 {
        self.shared.cache.lookups()
    }

    /// (ok requests, error requests, rejected connections).
    #[must_use]
    pub fn request_stats(&self) -> (u64, u64, u64) {
        (
            self.shared.stats.requests(),
            self.shared.stats.errors(),
            self.shared.stats.rejected(),
        )
    }

    /// Connections currently admitted against the budget.
    #[must_use]
    pub fn open_connections(&self) -> usize {
        self.shared.open_conns()
    }

    /// A shareable view of the serving counters that outlives the handle
    /// — the chaos soak reads worker liveness *after* [`ServerHandle::stop`].
    #[must_use]
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.shared.stats)
    }

    /// The telemetry hub: windowed histograms, sampled span chains, and
    /// the deterministic trace-id generators. Outlives the handle.
    #[must_use]
    pub fn telemetry(&self) -> Arc<TelemetryHub> {
        Arc::clone(&self.shared.hub)
    }

    /// The scrape listener's bound address, when `metrics_addr` was
    /// configured (with the real port when `:0` was requested).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
    }

    /// One full `osarch-metrics/1` snapshot document — exactly what the
    /// `metrics` op and the scrape listener's JSON path emit.
    #[must_use]
    pub fn metrics_snapshot_json(&self) -> String {
        osarch_core::metrics::metrics_snapshot_json(&self.shared.telemetry_snapshot())
    }

    /// The `osarch-cluster/1` status document, when running in cluster
    /// mode — exactly what the `cluster` op answers.
    #[must_use]
    pub fn cluster_status_json(&self) -> Option<String> {
        self.shared
            .cluster
            .as_ref()
            .map(ClusterState::status_payload)
    }

    /// `(forwarded, proxied, redirected, gossip_rounds)` routing
    /// counters, when running in cluster mode.
    #[must_use]
    pub fn cluster_counters(&self) -> Option<(u64, u64, u64, u64)> {
        self.shared.cluster.as_ref().map(|c| {
            (
                c.forwarded.load(Ordering::Relaxed),
                c.proxied.load(Ordering::Relaxed),
                c.redirected.load(Ordering::Relaxed),
                c.gossip_rounds.load(Ordering::Relaxed),
            )
        })
    }

    /// This node's current membership digest, when running in cluster
    /// mode — the soak compares digests across nodes to assert
    /// convergence.
    #[must_use]
    pub fn membership_digest(&self) -> Option<String> {
        self.shared
            .cluster
            .as_ref()
            .map(|c| lock(&c.membership).digest())
    }

    /// The spec registry's current `{epoch}:{hash}` digest — soaks
    /// compare these across nodes to assert spec convergence.
    #[must_use]
    pub fn registry_digest(&self) -> String {
        self.shared.registry.snapshot().digest()
    }

    /// The spec registry's current epoch (1 = the built-ins).
    #[must_use]
    pub fn registry_epoch(&self) -> u64 {
        self.shared.registry.snapshot().epoch()
    }

    /// `(swaps, rollbacks)` committed by the spec registry so far.
    #[must_use]
    pub fn registry_swap_stats(&self) -> (u64, u64) {
        (
            self.shared.registry.swaps(),
            self.shared.registry.rollbacks(),
        )
    }

    /// Begin a graceful shutdown (idempotent): stop accepting, wake and
    /// drain every loop, let the compute pool run dry.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Block until every server thread has exited. Call
    /// [`ServerHandle::shutdown`] first (or send a `shutdown` request).
    pub fn wait(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }

    /// Shut down and join, in one call.
    pub fn stop(self) {
        self.shutdown();
        self.wait();
    }
}

fn initiate_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    shared.jobs.close();
    for loop_shared in &shared.loops {
        loop_shared.handoff.close();
        loop_shared.waker.wake();
    }
    // Poke the accept loop awake; it re-checks the flag after accept.
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(200));
    // Same poke for the scrape listener, when one is running.
    if let Some(scrape_addr) = shared.metrics_addr {
        let _ = TcpStream::connect_timeout(&scrape_addr, Duration::from_millis(200));
    }
}

// ---------------------------------------------------------------------------
// Accept thread: admission control + round-robin handoff
// ---------------------------------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut next_loop = 0usize;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the poke connection (or a straggler) — drop it
        }
        if shared.inject(Failpoint::AcceptDrop) {
            // Chaos: the listener sheds this connection without a word;
            // the peer sees an immediate close.
            drop(stream);
            continue;
        }
        // Admission: reserve a budget slot optimistically, back out on
        // overflow. The Permit returns the slot wherever the connection
        // ends up dying.
        let open = shared.open_conns.fetch_add(1, Ordering::SeqCst);
        if open >= shared.conn_budget {
            shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            reject_busy(shared, stream);
            continue;
        }
        shared.stats.record_conn_opened();
        let item = (stream, Permit(Arc::clone(&shared.open_conns)));
        if let Some((stream, permit)) = place_round_robin(&shared.loops, &mut next_loop, item) {
            // Every handoff is full (or closed): shed the connection.
            drop(permit);
            reject_busy(shared, stream);
        }
    }
}

/// Hand an accepted connection to the next event loop with capacity,
/// round-robin. Ownership threads through `try_push` and back out of its
/// `Err` — the item is moved, never parked in an `Option` — so "we still
/// hold the connection" is a fact of the types: placement returns `None`,
/// and the unplaced connection comes back as `Some` for shedding.
fn place_round_robin(
    loops: &[LoopShared],
    next_loop: &mut usize,
    mut item: (TcpStream, Permit),
) -> Option<(TcpStream, Permit)> {
    for _ in 0..loops.len() {
        let index = *next_loop % loops.len();
        *next_loop = next_loop.wrapping_add(1);
        match loops[index].handoff.try_push(item) {
            Ok(()) => {
                loops[index].waker.wake();
                return None;
            }
            Err(returned) => item = returned,
        }
    }
    Some(item)
}

/// Backpressure: answer busy and hang up rather than queueing unbounded
/// work. The message keeps its historical wording — the budget *is* the
/// connection queue of the old core.
fn reject_busy(shared: &Shared, mut stream: TcpStream) {
    shared.stats.record_rejected();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = writeln!(
        stream,
        "{}",
        protocol::err_envelope("null", "server busy: connection queue full")
    );
}

// ---------------------------------------------------------------------------
// Metrics scrape listener: plain HTTP/1.0, one snapshot per connection
// ---------------------------------------------------------------------------

/// Serve `--metrics-addr` scrapes: a request whose path contains `json`
/// gets the `osarch-metrics/1` snapshot document, everything else gets
/// Prometheus text exposition. One short-lived connection per scrape —
/// scrapes are ~1 Hz, so no event loop is warranted, and a stuck scraper
/// can at worst wedge this one thread, never the serve path.
fn metrics_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the shutdown poke (or a straggler)
        }
        serve_scrape(shared, stream);
    }
}

fn serve_scrape(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    // Read until the header terminator arrives. A client may deliver the
    // request line in several small writes; responding and closing after a
    // partial read would discard unread bytes, which turns the close into a
    // TCP reset and breaks the scraper mid-request. Bounded by the buffer
    // size and the read timeout, so a misbehaving scraper cannot wedge us.
    let mut buf = [0u8; 1024];
    let mut count = 0;
    loop {
        match stream.read(&mut buf[count..]) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                count += n;
                if buf[..count].windows(4).any(|w| w == b"\r\n\r\n") || count == buf.len() {
                    break;
                }
            }
        }
    }
    let request = String::from_utf8_lossy(&buf[..count]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/metrics");
    let snap = shared.telemetry_snapshot();
    let (content_type, body) = if path.contains("json") {
        (
            "application/json",
            osarch_core::metrics::metrics_snapshot_json(&snap),
        )
    } else {
        (
            "text/plain; version=0.0.4",
            osarch_telemetry::expose::prometheus_text(&snap),
        )
    };
    let _ = write!(
        stream,
        "HTTP/1.0 200 OK\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.flush();
}

// ---------------------------------------------------------------------------
// Compute pool: the only place the blocking cache path runs
// ---------------------------------------------------------------------------

fn pool_main(shared: &Shared) {
    while let Some(mut job) = shared.jobs.pop() {
        // Queue stage: enqueue (marked by the loop) to pool pickup.
        if let Some(trace) = job.trace.as_mut() {
            trace.stage_from_mark("queue", shared.uptime_us());
        }
        // A cluster relay tries the owning replica first; any failure
        // records the miss against the peer and degrades to the local
        // compute path below — availability over placement.
        let mut relayed: Option<String> = None;
        if let Some(relay) = job.relay.take() {
            let read_timeout = shared.deadline.min(RELAY_READ_TIMEOUT_CAP);
            match exchange_line(
                &relay.target,
                &relay.line,
                RELAY_CONNECT_TIMEOUT,
                read_timeout,
            ) {
                Ok(reply) => {
                    if let Some(cluster) = &shared.cluster {
                        lock(&cluster.membership).record_success(&relay.target);
                    }
                    relayed = Some(reply);
                }
                Err(_) => {
                    if let Some(cluster) = &shared.cluster {
                        lock(&cluster.membership).record_failure(&relay.target);
                    }
                }
            }
        }
        let outcome = match relayed {
            Some(reply) => {
                if let Some(trace) = job.trace.as_mut() {
                    // The relay round trip stands in for the cache stage.
                    trace.stage_from_mark("cache", shared.uptime_us());
                }
                Outcome::Relayed(reply)
            }
            None => {
                // The cache contains computation panics itself; this
                // outer guard is for everything unexpected, so a
                // completion is *always* posted and no ticket waits
                // forever.
                let mut compute_span: Option<(u64, u64)> = None;
                let fetched = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    compute_job(
                        shared,
                        &job.key,
                        &job.query,
                        &job.snapshot,
                        &mut compute_span,
                    )
                }))
                .unwrap_or_else(|_| {
                    Fetched::Failed("internal error: compute worker panicked".to_string())
                });
                if let Some(trace) = job.trace.as_mut() {
                    // Cache stage: the whole single-flight path (including
                    // any wait coalesced onto another flight's
                    // computation)…
                    trace.stage_from_mark("cache", shared.uptime_us());
                    // …with the leader's own computation as a nested span.
                    if let Some((start_us, dur_us)) = compute_span {
                        trace.stage("compute", start_us, dur_us);
                    }
                }
                Outcome::Fetched(fetched)
            }
        };
        let target = &shared.loops[job.loop_index];
        lock(&target.completions).push(Completion {
            token: job.token,
            gen: job.gen,
            seq: job.seq,
            id: job.id,
            op: job.op,
            started: job.started,
            start_us: job.start_us,
            epoch: job.snapshot.epoch(),
            outcome,
            trace: job.trace,
        });
        target.waker.wake();
    }
}

/// Run one offloaded computation through the single-flight cache. When
/// this thread ends up the flight leader, `compute_span` receives the
/// inner computation's `(start_us, dur_us)` — coalesced followers leave
/// it `None`.
fn compute_job(
    shared: &Shared,
    key: &str,
    query: &Query,
    snapshot: &SpecSnapshot,
    compute_span: &mut Option<(u64, u64)>,
) -> Fetched {
    shared.cache.get_or_compute_resilient(key, || {
        let compute_start = shared.uptime_us();
        if let Some(delay) = shared.inject_delay(
            Failpoint::ComputeDelay,
            COMPUTE_DELAY_MIN,
            COMPUTE_DELAY_MAX,
        ) {
            // Chaos: stall the computation (typically past the service
            // deadline).
            std::thread::sleep(delay);
        }
        if shared.inject(Failpoint::ComputePanic) {
            // Chaos: the single-flight leader dies mid-compute.
            panic!("chaos: injected computation panic");
        }
        let payload = query.compute(snapshot);
        *compute_span = Some((
            compute_start,
            shared.uptime_us().saturating_sub(compute_start),
        ));
        payload
    })
}

// ---------------------------------------------------------------------------
// Cluster: relay exchange + gossip probes
// ---------------------------------------------------------------------------

/// Connect budget for one relay/gossip exchange: short, because the
/// target is a LAN peer and a dead one should fail fast into the local
/// fallback (relay) or a recorded miss (gossip).
const RELAY_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Relay reads never wait longer than this even under a huge service
/// deadline — past it the local fallback is strictly better.
const RELAY_READ_TIMEOUT_CAP: Duration = Duration::from_secs(10);

/// Gossip probes are cheap liveness checks; they time out well inside
/// one gossip interval's order of magnitude.
const GOSSIP_TIMEOUT: Duration = Duration::from_millis(300);

/// One blocking request/reply exchange with a peer: dial, send the
/// line, read exactly one newline-terminated reply. Used by the relay
/// path (on pool threads) and the gossip prober (on its own thread) —
/// never by an event loop.
fn exchange_line(
    target: &str,
    line: &str,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> std::io::Result<String> {
    use std::net::ToSocketAddrs;
    let addr = target
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "unresolvable"))?;
    let mut stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(read_timeout))?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        let count = stream.read(&mut chunk)?;
        if count == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed before a full reply",
            ));
        }
        reply.extend_from_slice(&chunk[..count]);
        if let Some(at) = reply.iter().position(|&b| b == b'\n') {
            reply.truncate(at);
            break;
        }
        if reply.len() > protocol::MAX_REQUEST_BYTES * 8 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "peer reply exceeds frame budget",
            ));
        }
    }
    String::from_utf8(reply)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 reply"))
}

/// Cluster spec convergence, pull side: when a probed peer advertises a
/// strictly newer registry epoch, fetch its spec set (`spec-fetch`) and
/// adopt it at the *remote* epoch, so converged nodes share one digest.
/// Every failure path is a silent no-op — the next gossip round retries.
fn maybe_pull_specs(shared: &Shared, target: &str, remote_digest: &str) {
    let Some(remote_epoch) = remote_digest
        .split(':')
        .next()
        .and_then(|epoch| epoch.parse::<u64>().ok())
    else {
        return;
    };
    let local = shared.registry.snapshot();
    if remote_epoch <= local.epoch() {
        return;
    }
    let Ok(reply) = exchange_line(
        target,
        "{\"op\":\"spec-fetch\",\"id\":\"spec-pull\"}",
        RELAY_CONNECT_TIMEOUT,
        RELAY_READ_TIMEOUT_CAP,
    ) else {
        return;
    };
    // The payload's `epoch`, not the envelope's own top-level one.
    let Ok(reply) = Json::parse(&reply) else {
        return;
    };
    let Some(Ok((epoch, docs))) = reply.get("result").map(parse_spec_fetch) else {
        return;
    };
    let Ok(snapshot) = SpecSnapshot::from_docs(&docs, epoch) else {
        return;
    };
    if shared.registry.adopt(snapshot) {
        let active = shared.registry.snapshot();
        shared.cache.retain_prefix(active.key_prefix());
    }
}

/// The anti-entropy thread: round-robin the peer list, exchange
/// membership digests over the ordinary `health` op, and fold direct
/// probe evidence (success/failure) into the table. Every probe is a
/// full digest swap, so rumours spread O(log N) rounds and a respawned
/// node's higher incarnation revives it everywhere.
fn gossip_loop(shared: &Shared) {
    let Some(cluster) = &shared.cluster else {
        return;
    };
    let peers: Vec<String> = cluster
        .ring
        .nodes()
        .iter()
        .filter(|addr| **addr != cluster.self_addr)
        .cloned()
        .collect();
    if peers.is_empty() {
        return;
    }
    let mut next = 0usize;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let target = &peers[next % peers.len()];
        next = next.wrapping_add(1);
        let digest = lock(&cluster.membership).digest();
        let line = format!(
            "{{\"op\":\"health\",\"id\":\"gossip\",\"gossip\":\"{}\"}}",
            osarch_core::metrics::json_escape(&digest)
        );
        match exchange_line(target, &line, GOSSIP_TIMEOUT, GOSSIP_TIMEOUT) {
            Ok(reply) => {
                let reply = Json::parse(&reply).ok();
                let result = |key: &str| {
                    reply
                        .as_ref()
                        .and_then(|r| r.get("result")?.get(key)?.as_str())
                };
                {
                    let mut membership = lock(&cluster.membership);
                    membership.record_success(target);
                    if let Some(incoming) = result("gossip") {
                        membership.merge_digest(incoming);
                    }
                }
                // Membership lock released: the spec pull dials the peer
                // again and must not hold it across the exchange.
                if let Some(remote_digest) = result("spec") {
                    maybe_pull_specs(shared, target, remote_digest);
                }
            }
            Err(_) => {
                lock(&cluster.membership).record_failure(target);
            }
        }
        cluster.gossip_rounds.fetch_add(1, Ordering::Relaxed);
        // Interruptible inter-probe sleep: shutdown never waits a full
        // gossip interval behind this thread.
        let mut slept = Duration::ZERO;
        while slept < cluster.gossip_interval && !shared.shutdown.load(Ordering::SeqCst) {
            let step = Duration::from_millis(20).min(cluster.gossip_interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

// ---------------------------------------------------------------------------
// Event loops
// ---------------------------------------------------------------------------

/// One event-loop thread: serve until shutdown, reincarnating after any
/// escape of the per-request panic isolation (including injected worker
/// deaths). The liveness gauge is raised by `Server::start` before the
/// thread spawns and lowered here on exit, so `health` sees a respawning
/// loop as continuously live.
fn loop_main(shared: &Shared, index: usize, wake_rx: &WakeRx) {
    // Trace state lives outside the respawn loop: a reincarnated loop
    // continues its id stream instead of reissuing ids from the start.
    let mut ltrace = LoopTrace {
        ids: shared.hub.ids_for(index),
        counter: 0,
    };
    loop {
        let exit = std::panic::catch_unwind(AssertUnwindSafe(|| {
            event_loop(shared, index, wake_rx, &mut ltrace);
        }));
        match exit {
            Ok(()) => break, // shutdown — clean exit
            Err(_) => {
                // The loop died mid-tenure (its connections die with it;
                // their permits release on unwind). Respawn in place
                // with a fresh poller rather than shrinking the pool.
                shared.stats.record_worker_respawn();
            }
        }
    }
    shared.stats.worker_stopped();
}

fn event_loop(shared: &Shared, index: usize, wake_rx: &WakeRx, ltrace: &mut LoopTrace) {
    let me = &shared.loops[index];
    let mut poller = new_poller();
    let _ = poller.register(wake_rx.fd(), WAKER_TOKEN, Interest::READ);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free_slots: Vec<usize> = Vec::new();
    let mut arena: Vec<(FrameBuf, Vec<u8>)> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut last_sweep = Instant::now();

    loop {
        let _ = poller.wait(&mut events, Some(TICK));
        wake_rx.drain();
        let wake_us = shared.uptime_us();

        // Adopt handed-off connections.
        while let Some((stream, permit)) = me.handoff.try_pop() {
            adopt(
                shared,
                me,
                poller.as_mut(),
                &mut conns,
                &mut free_slots,
                &mut arena,
                stream,
                permit,
            );
        }

        // Deliver compute completions into their tickets.
        let completions = std::mem::take(&mut *lock(&me.completions));
        for completion in completions {
            let Some(slot) = completion.token.checked_sub(TOKEN_BASE) else {
                continue;
            };
            let Some(mut conn) = conns.get_mut(slot).and_then(Option::take) else {
                continue;
            };
            if conn.gen == completion.gen {
                settle_ticket(shared, index, &mut conn, completion);
            }
            service_conn(shared, poller.as_mut(), &mut conn);
            park_or_retire(
                shared,
                poller.as_mut(),
                &mut conns,
                &mut free_slots,
                &mut arena,
                slot,
                conn,
            );
        }

        // Readiness events.
        for event in events.iter().copied() {
            if event.token == WAKER_TOKEN {
                continue;
            }
            let slot = event.token - TOKEN_BASE;
            let Some(mut conn) = conns.get_mut(slot).and_then(Option::take) else {
                continue;
            };
            if event.readable {
                on_readable(shared, index, &mut conn, ltrace);
                if shared
                    .registry
                    .swap_loop_death
                    .swap(false, Ordering::SeqCst)
                {
                    // Chaos: this loop just committed a spec swap; die
                    // before the admin reply reaches the write buffer.
                    // Deliberately *outside* dispatch's catch_unwind — a
                    // real loop death, caught only by loop_main's respawn.
                    // The committed epoch lives in Shared and survives.
                    panic!("chaos: injected mid-swap loop death");
                }
            }
            service_conn(shared, poller.as_mut(), &mut conn);
            park_or_retire(
                shared,
                poller.as_mut(),
                &mut conns,
                &mut free_slots,
                &mut arena,
                slot,
                conn,
            );
        }

        if shared.shutdown.load(Ordering::SeqCst) {
            // Courtesy pass: flush whatever is already complete (the
            // in-band shutdown acknowledgement most importantly), then
            // drop everything. Permits release as connections drop.
            for parked in &mut conns {
                if let Some(mut conn) = parked.take() {
                    conn.stalled_until = None;
                    service_conn(shared, poller.as_mut(), &mut conn);
                }
            }
            return;
        }

        // Housekeeping sweep: expired write stalls, progress-based idle
        // and write timeouts, lost-completion safety net. Also the slow
        // telemetry gauges: offload-queue depth, arena occupancy, and
        // this loop's oldest write-backlog age.
        let now = Instant::now();
        if now.duration_since(last_sweep) >= TICK {
            last_sweep = now;
            let now_s = wake_us / 1_000_000;
            shared
                .hub
                .record_queue_depth(index, shared.jobs.len() as u64, now_s);
            shared.hub.record_arena(index, arena.len() as u64, now_s);
            let mut oldest_backlog = Duration::ZERO;
            for slot in 0..conns.len() {
                let Some(mut conn) = conns.get_mut(slot).and_then(Option::take) else {
                    continue;
                };
                sweep_conn(shared, &mut conn, now);
                service_conn(shared, poller.as_mut(), &mut conn);
                if conn.write_backlog() > 0 && !conn.dead {
                    oldest_backlog = oldest_backlog.max(now.duration_since(conn.last_write));
                }
                park_or_retire(
                    shared,
                    poller.as_mut(),
                    &mut conns,
                    &mut free_slots,
                    &mut arena,
                    slot,
                    conn,
                );
            }
            me.backlog_ms
                .store(oldest_backlog.as_millis() as u64, Ordering::Relaxed);
        }

        // Loop lag: how long this wake kept the loop busy before it
        // could sleep again — the "is the event loop keeping up" signal.
        let busy_us = shared.uptime_us().saturating_sub(wake_us);
        shared
            .hub
            .record_loop_lag(index, busy_us, wake_us / 1_000_000);
    }
}

/// Per-tick connection timers. Idle accounting is progress-based: the
/// clock runs from the last byte *read*, so a client trickling a request
/// one byte at a time is never "idle" — only true silence disconnects.
fn sweep_conn(shared: &Shared, conn: &mut Conn, now: Instant) {
    // A connection with nothing owed to it and no bytes for the idle
    // window is disconnected (a mid-request partial counts as silence —
    // the *clock* still only runs from the last byte received).
    let awaiting_input =
        conn.pending.is_empty() && conn.write_backlog() == 0 && !conn.read_closed && !conn.torn;
    if awaiting_input && now.duration_since(conn.last_read) >= shared.idle_timeout {
        conn.dead = true;
        return;
    }
    // Write-progress deadline: a stalled client stops draining, the
    // backlog freezes, and the connection is cut — shutdown never waits
    // behind it. An injected write stall suspends the clock.
    if conn.write_backlog() > 0
        && conn.stalled_until.is_none()
        && now.duration_since(conn.last_write) >= shared.write_timeout
    {
        conn.dead = true;
        return;
    }
    // Lost-completion safety net (normally unreachable: the pool always
    // posts a completion, even for panics).
    if let Some(Ticket::Waiting { queued_at, id, .. }) = conn.pending.front() {
        if now.duration_since(*queued_at) >= shared.deadline + LOST_JOB_GRACE {
            shared.stats.record_error();
            let envelope = protocol::err_envelope(id, "internal error: compute result lost");
            conn.pending[0] = Ticket::Done {
                envelope,
                chaos: false,
                trace: None,
            };
        }
    }
}

/// Put the connection back in its slot, or retire it if finished.
#[allow(clippy::too_many_arguments)]
fn park_or_retire(
    shared: &Shared,
    poller: &mut dyn Readiness,
    conns: &mut [Option<Conn>],
    free_slots: &mut Vec<usize>,
    arena: &mut Vec<(FrameBuf, Vec<u8>)>,
    slot: usize,
    conn: Conn,
) {
    let flushed = conn.write_backlog() == 0;
    let finished = conn.dead
        || ((conn.torn || conn.poisoned) && flushed)
        || (conn.read_closed && conn.pending.is_empty() && flushed);
    if finished {
        retire_conn(shared, poller, free_slots, arena, slot, conn);
    } else {
        conns[slot] = Some(conn);
    }
}

#[allow(clippy::too_many_arguments)]
fn adopt(
    shared: &Shared,
    me: &LoopShared,
    poller: &mut dyn Readiness,
    conns: &mut Vec<Option<Conn>>,
    free_slots: &mut Vec<usize>,
    arena: &mut Vec<(FrameBuf, Vec<u8>)>,
    stream: TcpStream,
    permit: Permit,
) {
    if stream.set_nonblocking(true).is_err() {
        return; // permit drops, budget released
    }
    // Replies are batched already; never let Nagle delay the batch.
    let _ = stream.set_nodelay(true);
    let slot = free_slots.pop().unwrap_or_else(|| {
        conns.push(None);
        conns.len() - 1
    });
    let token = slot + TOKEN_BASE;
    let gen = me.gen.fetch_add(1, Ordering::Relaxed) + 1;
    let (frames, write_buf) = arena.pop().unwrap_or_else(|| {
        (
            FrameBuf::new(READ_BASELINE),
            Vec::with_capacity(WRITE_BASELINE),
        )
    });
    let now = Instant::now();
    let conn = Conn {
        stream,
        token,
        gen,
        frames,
        write_buf,
        write_pos: 0,
        pending: VecDeque::new(),
        next_seq: 0,
        last_read: now,
        last_write: now,
        interest: Interest::READ,
        read_closed: false,
        poisoned: false,
        torn: false,
        dead: false,
        stalled_until: None,
        _permit: permit,
    };
    if poller
        .register(fd_of(&conn.stream), token, Interest::READ)
        .is_err()
    {
        free_slots.push(slot);
        shared.stats.record_rejected();
        return; // conn drops, permit releases
    }
    conns[slot] = Some(conn);
}

fn retire_conn(
    shared: &Shared,
    poller: &mut dyn Readiness,
    free_slots: &mut Vec<usize>,
    arena: &mut Vec<(FrameBuf, Vec<u8>)>,
    slot: usize,
    conn: Conn,
) {
    let Conn {
        stream,
        mut frames,
        mut write_buf,
        _permit,
        ..
    } = conn;
    let _ = poller.deregister(fd_of(&stream));
    drop(stream);
    drop(_permit);
    // Recycle the buffers: framing state cleared, grown capacity shed.
    frames.reset();
    write_buf.clear();
    if write_buf.capacity() > WRITE_BASELINE * 4 {
        write_buf.shrink_to(WRITE_BASELINE);
    }
    if arena.len() < ARENA_MAX {
        arena.push((frames, write_buf));
    }
    free_slots.push(slot);
    if shared.inject(Failpoint::WorkerDeath) {
        // Chaos: kill the loop on connection retirement. loop_main
        // catches the unwind and respawns it with a fresh poller.
        panic!("chaos: injected worker death");
    }
}

// ---------------------------------------------------------------------------
// The read path: nonblocking reads → incremental frames → tickets
// ---------------------------------------------------------------------------

fn on_readable(shared: &Shared, loop_index: usize, conn: &mut Conn, ltrace: &mut LoopTrace) {
    if conn.read_closed || conn.poisoned || conn.torn || conn.dead {
        return;
    }
    loop {
        if conn.write_backlog() > WRITE_HIGH_WATER {
            return; // flow control: resume when the backlog drains
        }
        let spare = conn.frames.spare();
        let window = spare.len();
        match conn.stream.read(spare) {
            Ok(0) => {
                conn.read_closed = true;
                // A final request sent without its newline still gets
                // answered (the write half may outlive the read half).
                if let Some((start, end)) = conn.frames.take_eof_line() {
                    dispatch_line(shared, loop_index, conn, ltrace, start, end);
                }
                return;
            }
            Ok(count) => {
                conn.frames.commit(count);
                conn.last_read = Instant::now();
                process_frames(shared, loop_index, conn, ltrace);
                if conn.poisoned || conn.dead {
                    return;
                }
                if count < window {
                    return; // likely drained; level-triggering re-reports
                }
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

fn process_frames(shared: &Shared, loop_index: usize, conn: &mut Conn, ltrace: &mut LoopTrace) {
    loop {
        match conn.frames.next_frame() {
            Frame::None => return,
            Frame::Oversized => {
                shared.stats.record_error();
                let now_us = shared.uptime_us();
                shared
                    .hub
                    .bump(loop_index, COUNTER_ERRORS, 1, now_us / 1_000_000);
                let envelope = protocol::err_envelope(
                    "null",
                    &format!(
                        "request too large (limit {} bytes)",
                        protocol::MAX_REQUEST_BYTES
                    ),
                );
                conn.pending.push_back(Ticket::Done {
                    envelope,
                    chaos: false,
                    trace: None,
                });
            }
            Frame::Line { start, end } => {
                dispatch_line(shared, loop_index, conn, ltrace, start, end);
                if conn.poisoned {
                    return;
                }
            }
        }
    }
}

/// Parse and answer one framed line, under per-request panic isolation:
/// whatever the request path does, this loop answers (or hangs up after
/// flushing) and lives to serve its other connections.
fn dispatch_line(
    shared: &Shared,
    loop_index: usize,
    conn: &mut Conn,
    ltrace: &mut LoopTrace,
    start: usize,
    end: usize,
) {
    let token = conn.token;
    let gen = conn.gen;
    let text = String::from_utf8_lossy(conn.frames.bytes(start, end));
    let line = text.trim();
    if line.is_empty() {
        return;
    }
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        handle_request(
            shared,
            loop_index,
            token,
            gen,
            ltrace,
            &mut conn.next_seq,
            &mut conn.pending,
            line,
        );
    }));
    if outcome.is_err() {
        shared.stats.record_panic();
        shared.stats.record_error();
        shared.hub.bump(
            loop_index,
            COUNTER_ERRORS,
            1,
            shared.uptime_us() / 1_000_000,
        );
        conn.pending.push_back(Ticket::Done {
            envelope: protocol::err_envelope("null", "internal error: request handler panicked"),
            chaos: false,
            trace: None,
        });
        // The connection state is unknown after a panic — answer, flush,
        // hang up.
        conn.poisoned = true;
    }
}

fn op_name(query: &Query) -> &'static str {
    match query {
        Query::Ping => "ping",
        Query::Measure { .. } => "measure",
        Query::Table { .. } => "table",
        Query::Lint { .. } => "lint",
        Query::Analyze { .. } => "analyze",
        Query::Trace { .. } => "trace",
        Query::Counters { .. } => "counters",
        Query::Stats => "stats",
        Query::Spans { .. } => "spans",
        Query::Metrics => "metrics",
        Query::Health { .. } => "health",
        Query::Cluster => "cluster",
        Query::Shutdown => "shutdown",
        Query::MeasureSpec { .. } => "measure",
        Query::Admin { .. } => "admin",
        Query::SpecFetch => "spec-fetch",
    }
}

/// Answer one request line: control queries and landed cache entries
/// resolve inline on the loop; data-query misses become compute-pool
/// jobs behind an ordered `Waiting` ticket.
///
/// Telemetry rides the same path. The sampling decision is made before
/// parse from the per-loop counter — an unsampled request takes one
/// branch and never allocates or reads the clock for tracing; a sampled
/// one gets a [`PendingTrace`] that follows the request through queue,
/// pool, cache and write batch.
#[allow(clippy::too_many_arguments)]
fn handle_request(
    shared: &Shared,
    loop_index: usize,
    token: Token,
    gen: u64,
    ltrace: &mut LoopTrace,
    next_seq: &mut u64,
    pending: &mut VecDeque<Ticket>,
    line: &str,
) {
    let started = Instant::now();
    let start_us = shared.uptime_us();
    let now_s = start_us / 1_000_000;
    let sampled = ltrace.tick(shared.hub.sample_every());
    let mut trace = if sampled {
        Some(PendingTrace::start(
            &mut ltrace.ids,
            "unknown",
            loop_index,
            start_us,
        ))
    } else {
        None
    };
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err((message, id)) => {
            // A line that fails to parse has no op to trace: the sampled
            // slot is spent (ids stay deterministic), the trace dropped.
            shared.stats.record_error();
            shared.hub.bump(loop_index, COUNTER_ERRORS, 1, now_s);
            pending.push_back(Ticket::Done {
                envelope: protocol::err_envelope(&id, &message),
                chaos: false,
                trace: None,
            });
            return;
        }
    };
    let id = request.id;
    let op = op_name(&request.query);
    if let Some(trace) = trace.as_mut() {
        trace.op = op;
        trace.stage_from_mark("decode", shared.uptime_us());
    }
    // Capture the registry snapshot for this request's whole lifetime:
    // the cache key, the computation, and the reply's `epoch` all
    // resolve against it, so a swap mid-request changes nothing for
    // work already admitted.
    let snapshot = shared.registry.snapshot();
    let mut reply_epoch = snapshot.epoch();
    let (payload, cached) = match &request.query {
        Query::Ping => ("{\"pong\":true}".to_string(), false),
        Query::Stats => {
            let (hits, misses, coalesced) = (
                shared.cache.hits(),
                shared.cache.misses(),
                shared.cache.coalesced(),
            );
            (
                shared.stats.stats_payload(
                    hits,
                    misses,
                    coalesced,
                    shared.workers,
                    shared.cache.shard_count(),
                    shared.open_conns(),
                ),
                false,
            )
        }
        Query::Spans { chrome: false } => (shared.stats.spans_payload(), false),
        Query::Spans { chrome: true } => (
            osarch_core::metrics::serve_chains_chrome_json(&shared.hub.chains())
                .trim_end()
                .to_string(),
            false,
        ),
        Query::Metrics => (
            osarch_core::metrics::metrics_snapshot_json(&shared.telemetry_snapshot())
                .trim_end()
                .to_string(),
            false,
        ),
        Query::Health { gossip } => {
            let mut payload = shared.stats.health_payload(&HealthGauges {
                queue_depth: shared.jobs.len(),
                conns_open: shared.open_conns(),
                conn_budget: shared.conn_budget,
                workers: shared.workers,
                cache_hits: shared.cache.hits() + shared.cache.coalesced(),
                cache_misses: shared.cache.misses(),
                oldest_write_backlog_ms: shared.oldest_backlog_ms(),
                shutting_down: shared.shutdown.load(Ordering::SeqCst),
            });
            if let Some(cluster) = &shared.cluster {
                // Anti-entropy piggybacks on the liveness probe: merge
                // the caller's digest (if any), answer with ours.
                let digest = {
                    let mut membership = lock(&cluster.membership);
                    if let Some(incoming) = gossip {
                        membership.merge_digest(incoming);
                    }
                    membership.digest()
                };
                payload.truncate(payload.len() - 1);
                // The spec digest rides the same probe: a peer that sees
                // a newer epoch here pulls the spec set via `spec-fetch`.
                payload.push_str(&format!(
                    ",\"gossip\":\"{}\",\"spec\":\"{}\"}}",
                    osarch_core::metrics::json_escape(&digest),
                    snapshot.digest()
                ));
            }
            (payload, false)
        }
        Query::Cluster => match &shared.cluster {
            Some(cluster) => (cluster.status_payload(), false),
            None => {
                shared.stats.record_error();
                shared.hub.bump(loop_index, COUNTER_ERRORS, 1, now_s);
                pending.push_back(Ticket::Done {
                    envelope: protocol::err_envelope(&id, "cluster: not running in cluster mode"),
                    chaos: false,
                    trace: None,
                });
                return;
            }
        },
        Query::Shutdown => {
            // Initiate before replying: shutdown must happen even when
            // the client hangs up without reading the acknowledgement.
            initiate_shutdown(shared);
            ("{\"shutting_down\":true}".to_string(), false)
        }
        Query::SpecFetch => (snapshot.fetch_payload(), false),
        Query::Admin {
            action,
            token,
            name,
            spec,
        } => match handle_admin(shared, *action, token, name.as_deref(), spec.as_deref()) {
            Ok(payload) => {
                // Admin replies report the post-action epoch: an
                // activation's envelope carries the epoch it created.
                reply_epoch = shared.registry.snapshot().epoch();
                (payload, false)
            }
            Err(message) => {
                shared.stats.record_error();
                shared.hub.bump(loop_index, COUNTER_ERRORS, 1, now_s);
                pending.push_back(Ticket::Done {
                    envelope: protocol::err_envelope(&id, &message),
                    chaos: false,
                    trace: None,
                });
                return;
            }
        },
        query => {
            // Data query. A query kind with no cache key would once have
            // panicked the worker here; now it is a clean error envelope.
            let Some(routing_key) = query.routing_key() else {
                shared.stats.record_error();
                shared.hub.bump(loop_index, COUNTER_ERRORS, 1, now_s);
                pending.push_back(Ticket::Done {
                    envelope: protocol::err_envelope(
                        &id,
                        &format!("internal error: {op} query has no cache key"),
                    ),
                    chaos: false,
                    trace: None,
                });
                return;
            };
            // A spec measurement must name a spec the captured snapshot
            // actually holds — resolved here, before any offload, so the
            // compute path can rely on existence.
            if let Query::MeasureSpec { name, .. } = query {
                if snapshot.spec(name).is_none() {
                    shared.stats.record_error();
                    shared.hub.bump(loop_index, COUNTER_ERRORS, 1, now_s);
                    let loaded: Vec<&str> =
                        snapshot.entries().iter().map(|e| e.name.as_str()).collect();
                    pending.push_back(Ticket::Done {
                        envelope: protocol::err_envelope(
                            &id,
                            &format!(
                                "unknown spec {name:?} at epoch {}; loaded specs: [{}]",
                                snapshot.epoch(),
                                loaded.join(", ")
                            ),
                        ),
                        chaos: false,
                        trace: None,
                    });
                    return;
                }
            }
            // The epoch-free routing key places the request on the ring
            // (ownership must not move on a swap); the snapshot-scoped
            // cache key isolates cached replies per epoch.
            let key = format!("{}{routing_key}", snapshot.key_prefix());
            // Cluster routing: a key this node does not replicate is
            // relayed to a replica (proxy mode) or answered with a
            // `not_owner` redirect. A forwarded request is never
            // re-forwarded (loop guard on the `fwd` marker), and with
            // every replica written off the key is computed locally —
            // availability over placement, since any node can compute
            // any key.
            let mut relay: Option<Relay> = None;
            if let Some(cluster) = &shared.cluster {
                let replicas = cluster.ring.replicas(&routing_key, cluster.replicas);
                let mine = replicas.iter().any(|addr| *addr == cluster.self_addr);
                if mine {
                    if request.forwarded {
                        cluster.proxied.fetch_add(1, Ordering::Relaxed);
                    }
                } else if request.forwarded || !cluster.proxy {
                    cluster.redirected.fetch_add(1, Ordering::Relaxed);
                    shared.stats.record_error();
                    shared.hub.bump(loop_index, COUNTER_ERRORS, 1, now_s);
                    let owner = replicas.first().copied().unwrap_or("");
                    pending.push_back(Ticket::Done {
                        envelope: protocol::not_owner_envelope(&id, &routing_key, owner, &replicas),
                        chaos: false,
                        trace: None,
                    });
                    return;
                } else {
                    let target = {
                        let membership = lock(&cluster.membership);
                        replicas
                            .iter()
                            .find(|addr| !membership.is_down(addr))
                            .map(|addr| (*addr).to_string())
                    };
                    if let Some(target) = target {
                        cluster.forwarded.fetch_add(1, Ordering::Relaxed);
                        // Re-frame the original flat line with the relay
                        // marker; the peer answers under the same id, so
                        // its envelope passes through verbatim.
                        let mut fwd_line = line.to_string();
                        fwd_line.truncate(fwd_line.len() - 1);
                        fwd_line.push_str(",\"fwd\":\"1\"}");
                        relay = Some(Relay {
                            target,
                            line: fwd_line,
                        });
                    }
                }
            }
            let hit = if relay.is_none() {
                shared.cache.try_get(&key)
            } else {
                None
            };
            match hit {
                Some(hit) => {
                    if let Some(trace) = trace.as_mut() {
                        // Inline hit: the whole cache stage is the lookup.
                        trace.stage_from_mark("cache", shared.uptime_us());
                    }
                    (hit.to_string(), true)
                }
                None => {
                    // Miss (or in flight, or a relay): offload. The
                    // bounded job queue is the compute-side backpressure
                    // valve.
                    let seq = *next_seq;
                    *next_seq += 1;
                    if let Some(trace) = trace.as_mut() {
                        // The pool closes this as the `queue` stage.
                        trace.mark(shared.uptime_us());
                    }
                    let job = Job {
                        loop_index,
                        token,
                        gen,
                        seq,
                        key,
                        query: query.clone(),
                        id: id.clone(),
                        op,
                        started,
                        start_us,
                        snapshot: Arc::clone(&snapshot),
                        trace,
                        relay,
                    };
                    if shared.jobs.try_push(job).is_err() {
                        shared.stats.record_error();
                        shared.hub.bump(loop_index, COUNTER_ERRORS, 1, now_s);
                        pending.push_back(Ticket::Done {
                            envelope: protocol::err_envelope(
                                &id,
                                "server busy: compute queue full",
                            ),
                            chaos: false,
                            trace: None,
                        });
                    } else {
                        pending.push_back(Ticket::Waiting {
                            seq,
                            id,
                            queued_at: started,
                        });
                    }
                    return;
                }
            }
        }
    };
    pending.push_back(finish_now(
        shared,
        loop_index,
        &id,
        op,
        &payload,
        cached,
        reply_epoch,
        started,
        start_us,
        trace,
    ));
}

/// Constant-time token comparison: the byte-fold visits every byte of
/// both strings regardless of where they first differ, so response
/// timing leaks neither the match prefix length nor (beyond the
/// unavoidable length class) the expected token.
fn token_matches(expected: &str, got: &str) -> bool {
    let mut diff = expected.len() ^ got.len();
    for (a, b) in expected.bytes().zip(got.bytes()) {
        diff |= usize::from(a ^ b);
    }
    diff == 0
}

/// Execute one authenticated `admin` action. Runs inline on the event
/// loop — admin traffic is rare and must serialize naturally against
/// the loop's own dispatch. Returns the reply payload or a one-line
/// error (rendered as an error envelope by the caller).
fn handle_admin(
    shared: &Shared,
    action: AdminAction,
    token: &str,
    name: Option<&str>,
    spec: Option<&str>,
) -> Result<String, String> {
    let Some(expected) = &shared.admin_token else {
        return Err("admin: disabled (server started without --admin-token)".to_string());
    };
    if !token_matches(expected, token) {
        return Err("admin: invalid token".to_string());
    }
    let registry = &shared.registry;
    match action {
        AdminAction::SpecLoad => {
            let doc = spec.unwrap_or_default();
            let staged = registry.stage(doc).map_err(|e| format!("spec-load: {e}"))?;
            Ok(format!(
                "{{\"action\":\"spec-load\",\"staged\":\"{}\",\"epoch\":{}}}",
                osarch_core::metrics::json_escape(&staged),
                registry.snapshot().epoch()
            ))
        }
        AdminAction::SpecActivate => activate_spec(shared, name.unwrap_or_default()),
        AdminAction::SpecRollback => {
            let swap_started = Instant::now();
            let restored = registry.rollback(None);
            shared.cache.retain_prefix(restored.key_prefix());
            registry.record_swap_latency(swap_started.elapsed().as_micros() as u64);
            Ok(format!(
                "{{\"action\":\"spec-rollback\",\"epoch\":{},\"digest\":\"{}\"}}",
                restored.epoch(),
                restored.digest()
            ))
        }
        AdminAction::SpecList => {
            let snapshot = registry.snapshot();
            let active: Vec<String> = snapshot
                .entries()
                .iter()
                .map(|e| format!("\"{}\"", osarch_core::metrics::json_escape(&e.name)))
                .collect();
            let staged: Vec<String> = registry
                .staged_names()
                .iter()
                .map(|n| format!("\"{}\"", osarch_core::metrics::json_escape(n)))
                .collect();
            Ok(format!(
                concat!(
                    "{{\"action\":\"spec-list\",\"epoch\":{},\"digest\":\"{}\",",
                    "\"swaps\":{},\"rollbacks\":{},\"active\":[{}],\"staged\":[{}]}}"
                ),
                snapshot.epoch(),
                snapshot.digest(),
                registry.swaps(),
                registry.rollbacks(),
                active.join(","),
                staged.join(",")
            ))
        }
    }
}

/// The activation pipeline: staged doc → parse → lint gate → absint
/// proof gate → epoch commit → measurement probe under panic
/// containment. A probe failure (including an injected `CorruptSpec`
/// fault) rolls the registry back to last-good automatically; the reply
/// reports which way it went.
fn activate_spec(shared: &Shared, name: &str) -> Result<String, String> {
    let registry = &shared.registry;
    let swap_started = Instant::now();
    let doc = registry
        .staged_doc(name)
        .ok_or_else(|| format!("spec-activate: {name:?} is not staged (spec-load it first)"))?;
    let (_, spec) =
        osarch_cpu::ArchSpec::from_json(&doc).map_err(|e| format!("spec-activate: {e}"))?;
    // Gate 1: the lint rules that run over every builtin must pass for
    // the candidate too (warnings allowed, errors fatal).
    let lint = osarch_core::Analyzer::new().analyze_spec(&spec);
    if !lint.passes(false) {
        return Err(format!(
            "spec-activate: {name:?} fails lint ({} diagnostics)",
            lint.diagnostics().len()
        ));
    }
    // Gate 2: the abstract-interpretation verifier must produce a proof
    // artifact with zero refuted obligations.
    let absint = osarch_core::AbsintAnalyzer::new().analyze_spec(&spec);
    let (_, refuted, _) = absint.verdict_counts();
    if refuted > 0 {
        return Err(format!(
            "spec-activate: {name:?} refuted by the dataflow verifier ({refuted} obligations)"
        ));
    }
    // Commit: the prior active becomes last-good; a lost race against a
    // concurrent activation leaves the registry untouched.
    let base = registry.snapshot();
    let candidate = base
        .with_spec(&doc, base.epoch() + 1)
        .map_err(|e| format!("spec-activate: {e}"))?;
    let committed = registry.commit(candidate).map_err(|active| {
        format!("spec-activate: lost a concurrent activation race (active epoch {active}); retry")
    })?;
    shared.cache.retain_prefix(committed.key_prefix());
    // Probe: measure every primitive of the candidate under panic
    // containment. This is where a corrupt spec blows up — and where
    // chaos pretends one did.
    let probe = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if shared.inject(Failpoint::CorruptSpec) {
            panic!("chaos: injected spec corruption during the activation probe");
        }
        let spec = committed
            .spec(name)
            .expect("the spec was committed under this name one line ago");
        for primitive in osarch_kernel::Primitive::all() {
            let _ = osarch_core::metrics::measure_spec_json(name, spec, primitive);
        }
    }));
    let swap_us = swap_started.elapsed().as_micros() as u64;
    registry.record_swap_latency(swap_us);
    match probe {
        Ok(()) => {
            if shared.inject(Failpoint::SwapLoopDeath) {
                // Chaos: arm the loop-death flag; the event loop checks
                // it outside dispatch's catch_unwind and dies for real
                // before this reply is written.
                registry.swap_loop_death.store(true, Ordering::SeqCst);
            }
            Ok(format!(
                concat!(
                    "{{\"action\":\"spec-activate\",\"name\":\"{}\",\"activated\":true,",
                    "\"rolled_back\":false,\"epoch\":{},\"digest\":\"{}\",\"swap_us\":{}}}"
                ),
                osarch_core::metrics::json_escape(name),
                committed.epoch(),
                committed.digest(),
                swap_us
            ))
        }
        Err(_) => {
            // The candidate died mid-probe: automatic rollback to the
            // last-good content at a fresh epoch, candidate unstaged.
            shared.stats.record_panic();
            let restored = registry.rollback(Some(name));
            shared.cache.retain_prefix(restored.key_prefix());
            Ok(format!(
                concat!(
                    "{{\"action\":\"spec-activate\",\"name\":\"{}\",\"activated\":false,",
                    "\"rolled_back\":true,\"epoch\":{},\"digest\":\"{}\",\"swap_us\":{}}}"
                ),
                osarch_core::metrics::json_escape(name),
                restored.epoch(),
                restored.digest(),
                swap_us
            ))
        }
    }
}

/// Render an inline (non-offloaded) reply, deadline-checked and counted
/// exactly as the old blocking core did. A sampled trace gets its ready
/// mark set here; the write stage closes when the envelope is batched.
#[allow(clippy::too_many_arguments)]
fn finish_now(
    shared: &Shared,
    loop_index: usize,
    id: &str,
    op: &'static str,
    payload: &str,
    cached: bool,
    epoch: u64,
    started: Instant,
    start_us: u64,
    mut trace: Option<Box<PendingTrace>>,
) -> Ticket {
    let service = started.elapsed();
    let service_us = service.as_micros() as u64;
    let now_s = start_us / 1_000_000;
    if service > shared.deadline {
        shared.stats.record_deadline_exceeded();
        shared.stats.record_error();
        shared.hub.bump(loop_index, COUNTER_ERRORS, 1, now_s);
        return Ticket::Done {
            envelope: protocol::err_envelope(
                id,
                &format!(
                    "deadline exceeded: served in {service_us} us, deadline {} us",
                    shared.deadline.as_micros()
                ),
            ),
            chaos: false,
            trace: None,
        };
    }
    shared
        .stats
        .record_request(op, start_us, service_us, cached);
    shared
        .hub
        .record_op(loop_index, op_slot(op), service_us, now_s);
    shared.hub.bump(loop_index, COUNTER_REQUESTS, 1, now_s);
    if cached {
        shared.hub.bump(loop_index, COUNTER_HITS, 1, now_s);
    }
    if let Some(trace) = trace.as_mut() {
        // Response ready: everything from here to batching is `write`.
        trace.mark(shared.uptime_us());
    }
    Ticket::Done {
        envelope: protocol::ok_envelope(id, cached, epoch, service_us, payload),
        chaos: true,
        trace,
    }
}

// ---------------------------------------------------------------------------
// Completions and the write path
// ---------------------------------------------------------------------------

/// Resolve the `Waiting` ticket a completion belongs to. Tickets settle
/// in any order; replies still leave in request order.
fn settle_ticket(shared: &Shared, loop_index: usize, conn: &mut Conn, completion: Completion) {
    let Some(position) = conn
        .pending
        .iter()
        .position(|ticket| matches!(ticket, Ticket::Waiting { seq, .. } if *seq == completion.seq))
    else {
        return;
    };
    conn.pending[position] = render_completion(shared, loop_index, completion);
}

fn render_completion(shared: &Shared, loop_index: usize, completion: Completion) -> Ticket {
    let now_s = completion.start_us / 1_000_000;
    let mut trace = completion.trace;
    let fetched = match completion.outcome {
        Outcome::Fetched(fetched) => fetched,
        Outcome::Relayed(envelope) => {
            // A replica answered on our behalf: its envelope carries the
            // request's own id, so it passes through verbatim. Counted
            // as a served request but not as a local cache event.
            let service = completion.started.elapsed();
            let service_us = service.as_micros() as u64;
            if service > shared.deadline {
                shared.stats.record_deadline_exceeded();
                shared.stats.record_error();
                shared.hub.bump(loop_index, COUNTER_ERRORS, 1, now_s);
                return Ticket::Done {
                    envelope: protocol::err_envelope(
                        &completion.id,
                        &format!(
                            "deadline exceeded: served in {service_us} us, deadline {} us",
                            shared.deadline.as_micros()
                        ),
                    ),
                    chaos: false,
                    trace: None,
                };
            }
            shared
                .stats
                .record_request(completion.op, completion.start_us, service_us, false);
            shared
                .hub
                .record_op(loop_index, op_slot(completion.op), service_us, now_s);
            shared.hub.bump(loop_index, COUNTER_REQUESTS, 1, now_s);
            if let Some(trace) = trace.as_mut() {
                trace.mark(shared.uptime_us());
            }
            return Ticket::Done {
                envelope,
                chaos: true,
                trace,
            };
        }
    };
    let (payload, cached, degraded) = match &fetched {
        Fetched::Computed(payload) => (payload, false, None),
        Fetched::Cached(payload) => (payload, true, None),
        Fetched::Degraded(payload, error) => {
            shared.stats.record_panic();
            shared.stats.record_degraded();
            shared.hub.bump(loop_index, COUNTER_DEGRADED, 1, now_s);
            (payload, true, Some(error.clone()))
        }
        Fetched::Failed(error) => {
            shared.stats.record_panic();
            shared.stats.record_error();
            shared.hub.bump(loop_index, COUNTER_ERRORS, 1, now_s);
            return Ticket::Done {
                envelope: protocol::err_envelope(
                    &completion.id,
                    &format!("{} failed: {error}", completion.op),
                ),
                chaos: false,
                trace: None,
            };
        }
    };
    let service = completion.started.elapsed();
    let service_us = service.as_micros() as u64;
    if service > shared.deadline {
        shared.stats.record_deadline_exceeded();
        shared.stats.record_error();
        shared.hub.bump(loop_index, COUNTER_ERRORS, 1, now_s);
        return Ticket::Done {
            envelope: protocol::err_envelope(
                &completion.id,
                &format!(
                    "deadline exceeded: served in {service_us} us, deadline {} us",
                    shared.deadline.as_micros()
                ),
            ),
            chaos: false,
            trace: None,
        };
    }
    shared
        .stats
        .record_request(completion.op, completion.start_us, service_us, cached);
    shared
        .hub
        .record_op(loop_index, op_slot(completion.op), service_us, now_s);
    shared.hub.bump(loop_index, COUNTER_REQUESTS, 1, now_s);
    shared.hub.bump(
        loop_index,
        if cached { COUNTER_HITS } else { COUNTER_MISSES },
        1,
        now_s,
    );
    let envelope = match degraded {
        Some(error) => protocol::degraded_envelope(
            &completion.id,
            completion.epoch,
            service_us,
            payload,
            &error,
        ),
        None => protocol::ok_envelope(
            &completion.id,
            cached,
            completion.epoch,
            service_us,
            payload,
        ),
    };
    if let Some(trace) = trace.as_mut() {
        // Response ready: everything from here to batching is `write`.
        trace.mark(shared.uptime_us());
    }
    Ticket::Done {
        envelope,
        chaos: true,
        trace,
    }
}

/// Move the completed reply prefix into the write buffer (one batched
/// write per pass), attempt the flush, and reconcile poller interest.
fn service_conn(shared: &Shared, poller: &mut dyn Readiness, conn: &mut Conn) {
    while !conn.torn && matches!(conn.pending.front(), Some(Ticket::Done { .. })) {
        let Some(Ticket::Done {
            envelope,
            chaos,
            trace,
        }) = conn.pending.pop_front()
        else {
            unreachable!("front checked above");
        };
        if chaos {
            if let Some(delay) =
                shared.inject_delay(Failpoint::WriteStall, WRITE_STALL_MIN, WRITE_STALL_MAX)
            {
                // Chaos: sit on the finished response (drives client
                // timeouts) — emulated by a flush embargo, never by
                // blocking the loop.
                let until = Instant::now() + delay;
                conn.stalled_until = Some(conn.stalled_until.map_or(until, |t| t.max(until)));
            }
            if shared.inject(Failpoint::WritePartial) {
                // Chaos: emit a torn response — a prefix with no newline
                // — then fail the connection. Clients must never parse
                // this as a reply.
                let bytes = envelope.as_bytes();
                if conn.write_buf.is_empty() {
                    conn.last_write = Instant::now();
                }
                conn.write_buf.extend_from_slice(&bytes[..bytes.len() / 2]);
                conn.torn = true;
                break;
            }
        }
        if conn.write_buf.is_empty() {
            conn.last_write = Instant::now();
        }
        conn.write_buf.extend_from_slice(envelope.as_bytes());
        conn.write_buf.push(b'\n');
        if let Some(mut trace) = trace {
            // The chain closes when the reply lands in the write batch:
            // past this point delivery is the kernel's problem, and the
            // flush cost is visible as loop lag rather than per-request.
            let now_us = shared.uptime_us();
            trace.stage_from_mark("write", now_us);
            shared.hub.push_chain(trace.finish(now_us));
        }
    }
    flush_writes(conn);
    update_interest(poller, conn);
}

fn flush_writes(conn: &mut Conn) {
    if conn.dead {
        return;
    }
    if let Some(until) = conn.stalled_until {
        if Instant::now() < until {
            return; // chaos embargo still running
        }
        conn.stalled_until = None;
    }
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(count) => {
                conn.write_pos += count;
                conn.last_write = Instant::now();
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.write_pos >= conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
        if conn.write_buf.capacity() > WRITE_BASELINE * 4 {
            // An oversized burst must not pin its high-water allocation.
            conn.write_buf.shrink_to(WRITE_BASELINE);
        }
    }
}

/// Reconcile poller interest with connection state: write interest only
/// while a backlog is draining (and not chaos-stalled), read interest
/// until the connection stops reading or flow control engages.
fn update_interest(poller: &mut dyn Readiness, conn: &mut Conn) {
    if conn.dead {
        return;
    }
    let desired = Interest {
        readable: !conn.read_closed
            && !conn.poisoned
            && !conn.torn
            && conn.write_backlog() <= WRITE_HIGH_WATER,
        writable: conn.write_backlog() > 0 && conn.stalled_until.is_none(),
    };
    if desired != conn.interest
        && poller
            .reregister(fd_of(&conn.stream), conn.token, desired)
            .is_ok()
    {
        conn.interest = desired;
    }
}

/// Injected computation stalls: long enough to blow tight deadlines,
/// short enough to keep soak throughput alive.
const COMPUTE_DELAY_MIN: Duration = Duration::from_millis(20);
const COMPUTE_DELAY_MAX: Duration = Duration::from_millis(120);

/// Injected response stalls: sized to straddle typical client
/// per-attempt timeouts.
const WRITE_STALL_MIN: Duration = Duration::from_millis(50);
const WRITE_STALL_MAX: Duration = Duration::from_millis(400);
