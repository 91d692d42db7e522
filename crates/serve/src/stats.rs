//! Serving-side observability: monotonic counters, an exact log-linear
//! latency histogram, and the recent-request span ring.
//!
//! The `/stats` query snapshots this state through the same
//! [`CounterRegistry`] + `counters_json` machinery the tracing subsystem
//! uses, so consumers read one counter schema everywhere; request spans
//! are [`osarch_trace::Event`]s under [`Category::Serve`].
//!
//! Latency percentiles come from an [`osarch_telemetry::Histogram`], not
//! a capped reservoir: every observation is counted at every volume, so
//! the tail percentiles stay honest on long runs (the old reservoir
//! silently stopped admitting at its cap and under-reported p99+).

use osarch_core::metrics::{self, json_number};
use osarch_core::stats::LatencySummary;
use osarch_telemetry::Histogram;
use osarch_trace::{Category, CounterRegistry, Event};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many recent request spans the `spans` query can return.
const SPAN_RING: usize = 256;

/// Every serve-protocol op, in the registry order of
/// [`osarch_core::names::op_names`]. The telemetry hub keys its per-op
/// latency windows by index into this table.
pub const OP_NAMES: [&str; 15] = [
    "ping",
    "measure",
    "table",
    "lint",
    "analyze",
    "trace",
    "counters",
    "stats",
    "spans",
    "metrics",
    "health",
    "cluster",
    "shutdown",
    "admin",
    "spec-fetch",
];

/// The [`OP_NAMES`] index of an op label. Unknown labels (only possible
/// if a new op forgets to register) fold into slot 0 rather than panic.
#[must_use]
pub fn op_slot(op: &str) -> usize {
    OP_NAMES.iter().position(|name| *name == op).unwrap_or(0)
}

/// The instantaneous gauges the server samples for a `health` reply —
/// everything the payload needs that is not a [`ServeStats`] counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthGauges {
    /// Compute-offload backlog right now.
    pub queue_depth: usize,
    /// Connections currently admitted.
    pub conns_open: usize,
    /// Open-connection budget `conns_open` is admitted against.
    pub conn_budget: usize,
    /// Event loops configured.
    pub workers: usize,
    /// Lifetime cache hits (including coalesced waiters).
    pub cache_hits: u64,
    /// Lifetime cache misses.
    pub cache_misses: u64,
    /// Age of the oldest connection with unflushed reply bytes, in ms
    /// (0 when every reply is flushed).
    pub oldest_write_backlog_ms: u64,
    /// Whether graceful shutdown has begun.
    pub shutting_down: bool,
}

/// Monotonic serving counters plus the exact latency histogram.
#[derive(Debug, Default)]
pub struct ServeStats {
    requests: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    deadline_exceeded: AtomicU64,
    panics: AtomicU64,
    degraded: AtomicU64,
    worker_respawns: AtomicU64,
    workers_live: AtomicU64,
    faults_injected: AtomicU64,
    conns_opened: AtomicU64,
    latency_hist: Mutex<Histogram>,
    spans: Mutex<Vec<Event>>,
}

impl ServeStats {
    /// Fresh, all-zero stats.
    #[must_use]
    pub fn new() -> ServeStats {
        ServeStats::default()
    }

    /// Record one served request: its span (timestamped in µs since the
    /// server started) and its service time.
    pub fn record_request(&self, op: &'static str, start_us: u64, service_us: u64, cached: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.latency_hist
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .record(service_us);
        let event = Event::complete(op, Category::Serve, start_us, service_us)
            .with_arg("cached", u64::from(cached));
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if spans.len() >= SPAN_RING {
            spans.remove(0);
        }
        spans.push(event);
    }

    /// Record a request answered with an error envelope.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection rejected by queue backpressure.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a request that blew its service deadline.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a panic contained by per-request isolation (`serve/panic/total`).
    pub fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a reply served from the stale last-good value because the
    /// recomputation failed (`serve/degraded/total`).
    pub fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a worker that died and was respawned in place.
    pub fn record_worker_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an injected chaos fault observed server-side.
    pub fn record_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection admitted past the open-connection budget
    /// check (`serve/conn/total`). Monotonic; the instantaneous open
    /// count is tracked by the server's admission gauge instead.
    pub fn record_conn_opened(&self) {
        self.conns_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// An event loop was started (counted before its thread spawns).
    pub fn worker_started(&self) {
        self.workers_live.fetch_add(1, Ordering::SeqCst);
    }

    /// A worker thread left its serving loop for good.
    pub fn worker_stopped(&self) {
        self.workers_live.fetch_sub(1, Ordering::SeqCst);
    }

    /// Requests answered with an `ok` envelope.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests answered with an error envelope.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Connections rejected by backpressure.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Requests that blew their service deadline.
    #[must_use]
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Panics contained by per-request isolation.
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Replies served degraded (stale last-good value).
    #[must_use]
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Workers respawned after dying.
    #[must_use]
    pub fn worker_respawns(&self) -> u64 {
        self.worker_respawns.load(Ordering::Relaxed)
    }

    /// Workers currently inside their serving loop.
    #[must_use]
    pub fn workers_live(&self) -> u64 {
        self.workers_live.load(Ordering::SeqCst)
    }

    /// Chaos faults injected server-side.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// Connections admitted over the server's lifetime.
    #[must_use]
    pub fn conns_opened(&self) -> u64 {
        self.conns_opened.load(Ordering::Relaxed)
    }

    /// Summary of the recorded service times (µs). Histogram-backed:
    /// every observation is counted, so `sampled` is always false.
    #[must_use]
    pub fn latency_summary(&self) -> LatencySummary {
        let hist = self
            .latency_hist
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        LatencySummary::from_histogram(&hist)
    }

    /// The `stats` payload: serving counters (through a
    /// [`CounterRegistry`], exported with the standard `counters_json`
    /// emitter) plus latency percentiles.
    #[must_use]
    pub fn stats_payload(
        &self,
        cache_hits: u64,
        cache_misses: u64,
        cache_coalesced: u64,
        workers: usize,
        shards: usize,
        conns_open: usize,
    ) -> String {
        let mut registry = CounterRegistry::new();
        let mut serve_counter = |name: &str, value: u64| {
            registry.add("serve", "request", "total", name, value);
        };
        serve_counter("requests", self.requests());
        serve_counter("errors", self.errors());
        serve_counter("rejected", self.rejected());
        serve_counter(
            "deadline_exceeded",
            self.deadline_exceeded.load(Ordering::Relaxed),
        );
        serve_counter("panics", self.panics());
        serve_counter("degraded", self.degraded());
        serve_counter("worker_respawns", self.worker_respawns());
        serve_counter("faults_injected", self.faults_injected());
        serve_counter("conns_opened", self.conns_opened());
        serve_counter("cache_hits", cache_hits);
        serve_counter("cache_misses", cache_misses);
        serve_counter("cache_coalesced", cache_coalesced);
        let latency = self.latency_summary();
        format!(
            concat!(
                "{{\"workers\":{},\"shards\":{},\"conns_open\":{},",
                "\"latency_us\":{{\"count\":{},\"samples\":{},\"sampled\":{},",
                "\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},",
                "\"max\":{},\"mean\":{}}},\"counters\":{}}}"
            ),
            workers,
            shards,
            conns_open,
            latency.count,
            latency.samples,
            latency.sampled,
            latency.p50,
            latency.p90,
            latency.p99,
            latency.p999,
            latency.max,
            json_number(latency.mean),
            metrics::counters_json(&registry).trim_end(),
        )
    }

    /// The `health` payload: liveness in one line. `queue_depth` is the
    /// instantaneous compute-offload backlog, `conns_open` the number of
    /// connections currently admitted (paired with `conn_budget` so a
    /// prober sees headroom, not just load); `workers_live` counts event
    /// loops inside their serving loop (respawns keep it at `workers`);
    /// the derived gauges — cache hit ratio over lifetime lookups and the
    /// age of the oldest unflushed reply — plus the resilience counters
    /// let a prober distinguish "healthy", "degraded but serving", and
    /// "shedding load" without scraping full stats.
    #[must_use]
    pub fn health_payload(&self, g: &HealthGauges) -> String {
        let live = self.workers_live();
        let status = if g.shutting_down {
            "shutting_down"
        } else if live < g.workers as u64 {
            "impaired"
        } else if self.degraded() > 0 || self.panics() > 0 {
            "degraded"
        } else {
            "ok"
        };
        let lookups = g.cache_hits + g.cache_misses;
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            g.cache_hits as f64 / lookups as f64
        };
        format!(
            concat!(
                "{{\"status\":\"{}\",\"workers\":{},\"workers_live\":{},",
                "\"queue_depth\":{},\"conns_open\":{},\"conn_budget\":{},",
                "\"cache_hit_ratio\":{},\"oldest_write_backlog_ms\":{},",
                "\"shutting_down\":{},",
                "\"panics\":{},\"degraded\":{},\"worker_respawns\":{},",
                "\"faults_injected\":{},\"requests\":{},\"errors\":{},\"rejected\":{}}}"
            ),
            status,
            g.workers,
            live,
            g.queue_depth,
            g.conns_open,
            g.conn_budget,
            json_number(hit_ratio),
            g.oldest_write_backlog_ms,
            g.shutting_down,
            self.panics(),
            self.degraded(),
            self.worker_respawns(),
            self.faults_injected(),
            self.requests(),
            self.errors(),
            self.rejected(),
        )
    }

    /// The `spans` payload: the most recent request spans, oldest first.
    #[must_use]
    pub fn spans_payload(&self) -> String {
        let spans = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let items: Vec<String> = spans
            .iter()
            .map(|event| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"dur\":{},\"cached\":{}}}",
                    metrics::json_escape(&event.name),
                    event.cat.label(),
                    event.ts,
                    event.dur,
                    event.arg("cached").unwrap_or(0)
                )
            })
            .collect();
        format!("{{\"spans\":[{}]}}", items.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osarch_core::metrics::validate_json;

    #[test]
    fn payloads_are_valid_json_and_count() {
        let stats = ServeStats::new();
        stats.record_request("measure", 0, 120, false);
        stats.record_request("measure", 200, 10, true);
        stats.record_error();
        stats.record_conn_opened();
        let payload = stats.stats_payload(5, 2, 1, 4, 16, 9);
        assert_eq!(validate_json(&payload), Ok(()), "{payload}");
        assert!(payload.contains("\"name\":\"requests\",\"value\":2"));
        assert!(payload.contains("\"name\":\"cache_hits\",\"value\":5"));
        assert!(payload.contains("\"name\":\"conns_opened\",\"value\":1"));
        assert!(payload.contains("\"conns_open\":9"), "{payload}");
        assert!(payload.contains("\"p50\":"));
        assert!(payload.contains("\"p999\":"), "{payload}");
        // Histogram-backed: every observation counted, never subsampled.
        assert!(
            payload.contains("\"samples\":2,\"sampled\":false"),
            "{payload}"
        );
        let spans = stats.spans_payload();
        assert_eq!(validate_json(&spans), Ok(()), "{spans}");
        assert_eq!(spans.matches("\"cat\":\"serve\"").count(), 2);
    }

    #[test]
    fn health_payload_reflects_liveness_and_degradation() {
        let stats = ServeStats::new();
        stats.worker_started();
        stats.worker_started();
        let gauges = HealthGauges {
            queue_depth: 3,
            conns_open: 5,
            conn_budget: 64,
            workers: 2,
            cache_hits: 3,
            cache_misses: 1,
            oldest_write_backlog_ms: 17,
            shutting_down: false,
        };
        let healthy = stats.health_payload(&gauges);
        assert_eq!(validate_json(&healthy), Ok(()), "{healthy}");
        assert!(healthy.contains("\"status\":\"ok\""), "{healthy}");
        assert!(healthy.contains("\"workers_live\":2"), "{healthy}");
        assert!(healthy.contains("\"queue_depth\":3"), "{healthy}");
        assert!(healthy.contains("\"conns_open\":5"), "{healthy}");
        assert!(healthy.contains("\"conn_budget\":64"), "{healthy}");
        assert!(healthy.contains("\"cache_hit_ratio\":0.75"), "{healthy}");
        assert!(
            healthy.contains("\"oldest_write_backlog_ms\":17"),
            "{healthy}"
        );

        stats.record_degraded();
        let idle = HealthGauges {
            workers: 2,
            ..HealthGauges::default()
        };
        let payload = stats.health_payload(&idle);
        assert!(payload.contains("\"status\":\"degraded\""));
        // No lookups yet: the ratio degrades to 0, not NaN.
        assert!(payload.contains("\"cache_hit_ratio\":0,"), "{payload}");

        stats.worker_stopped();
        assert!(stats
            .health_payload(&idle)
            .contains("\"status\":\"impaired\""));
        let stopping = HealthGauges {
            shutting_down: true,
            ..idle
        };
        assert!(stats
            .health_payload(&stopping)
            .contains("\"status\":\"shutting_down\""));
    }

    #[test]
    fn op_registry_matches_protocol_order() {
        // Every op in the shared name registry appears in OP_NAMES at the
        // same position, so hub slots and error messages agree.
        let listed: Vec<&str> = osarch_core::names::op_names().split(", ").collect();
        assert_eq!(listed, OP_NAMES.to_vec());
        assert_eq!(op_slot("metrics"), 9);
        assert_eq!(op_slot("cluster"), 11);
        assert_eq!(op_slot("admin"), 13);
        assert_eq!(op_slot("spec-fetch"), 14);
        assert_eq!(op_slot("nonsense"), 0, "unknown ops fold into slot 0");
    }

    #[test]
    fn span_ring_is_bounded() {
        let stats = ServeStats::new();
        for i in 0..(SPAN_RING as u64 + 10) {
            stats.record_request("ping", i, 1, true);
        }
        let spans = stats.spans_payload();
        assert_eq!(spans.matches("\"name\":").count(), SPAN_RING);
        // The oldest spans were evicted: ts 0..9 are gone, ts 10 survives.
        assert!(!spans.contains("\"ts\":9,"));
        assert!(spans.contains("\"ts\":10,"));
    }
}
