//! The served workloads: an in-process `osarch-serve` server driven by one
//! closed-loop, pipelined client thread, with every reply checked against
//! the direct `osarch_core::metrics` emitter outside the timed window.

use crate::hist::Histogram;
use crate::json::{self, Value};
use crate::repro::{self, ChildRun};
use crate::{median, peak_rss_mb, primitive_cli, Args, Outcome, Rng, Workload};
use osarch_core::{metrics, session};
use osarch_cpu::{Arch, ArchSpec};
use osarch_kernel::{trace_primitive, Primitive};
use osarch_serve::{Server, ServerConfig, ServerHandle};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The admin token of every benchmark server.
const TOKEN: &str = "layerbench-admin-token";
/// Requests in flight on the one connection. On a 2-core host, 32 deep
/// keeps the one loop saturated and repeats within about half the spread
/// of 8 deep, whose replies hand the two cores back and forth four times
/// as often.
pub const DEPTH: usize = 32;
/// Connections from the driver thread.
pub const CONNS: usize = 1;
/// Server event loops: with the one driver thread this fills 2 cores.
pub const LOOPS: usize = 1;
/// Compute-pool threads for cache misses.
pub const COMPUTE_THREADS: usize = 1;
/// Registry specs kept live on `swap-whatif`.
pub const LIVE_SPECS: usize = 4;
/// Data requests between two swaps on `swap-whatif`.
pub const SWAP_EVERY: u64 = 1000;
/// Draw weights of the `swap-whatif` ops, in the order `measure` by spec,
/// built-in `measure`, `table`, `trace`, `stats`, `metrics`, `health`.
/// The four data ops of the what-if query space weigh the same. The three
/// introspection ops are a small fixed share: each weighs a tenth of a
/// data op, which is an assumption, not a measured caller mix.
const WHATIF_WEIGHTS: [u32; 7] = [10, 10, 10, 10, 1, 1, 1];
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 9;
/// Replies buffered before the clock stops and they are checked.
const CHUNK_BYTES: usize = 2 << 20;
/// Cold reproduction children each served workload runs between its
/// window's segments: six rounds of the seven what-if bases.
const REPROS: usize = 6 * Arch::COUNT;

/// The traffic mix a served scenario draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The what-if query space between live swaps.
    Whatif,
    /// The served twin of the reproduction: every table and built-in key.
    Repro,
}

impl Mix {
    pub fn for_workload(workload: Workload) -> Mix {
        match workload {
            Workload::SwapWhatif => Mix::Whatif,
            Workload::ReproCold => Mix::Repro,
        }
    }
}

/// One data request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    Measure(Arch, Primitive),
    MeasureSpec(usize, Primitive),
    Table(usize),
    Trace(Arch, Primitive),
    Stats,
    Metrics,
    Health,
}

/// The 28 built-in `(arch, primitive)` keys.
pub fn keys() -> Vec<(Arch, Primitive)> {
    Arch::all()
        .into_iter()
        .flat_map(|arch| Primitive::all().into_iter().map(move |p| (arch, p)))
        .collect()
}

fn slot_name(slot: usize) -> String {
    format!("wi{slot}")
}

impl Req {
    /// The request line (without the newline) under `id`.
    pub fn line(self, id: u64) -> String {
        match self {
            Req::Measure(arch, p) => format!(
                "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{}\",\"id\":{id}}}",
                primitive_cli(p)
            ),
            Req::MeasureSpec(slot, p) => format!(
                "{{\"op\":\"measure\",\"spec\":\"{}\",\"primitive\":\"{}\",\"id\":{id}}}",
                slot_name(slot),
                primitive_cli(p)
            ),
            Req::Table(index) => format!(
                "{{\"op\":\"table\",\"table\":\"{}\",\"id\":{id}}}",
                session::REPORTS[index].name
            ),
            Req::Trace(arch, p) => format!(
                "{{\"op\":\"trace\",\"arch\":\"{arch}\",\"primitive\":\"{}\",\"id\":{id}}}",
                primitive_cli(p)
            ),
            Req::Stats => format!("{{\"op\":\"stats\",\"id\":{id}}}"),
            Req::Metrics => format!("{{\"op\":\"metrics\",\"id\":{id}}}"),
            Req::Health => format!("{{\"op\":\"health\",\"id\":{id}}}"),
        }
    }
}

/// Seeded request generator.
pub struct Generator {
    mix: Mix,
    seed: u64,
    rng: Rng,
    keys: Vec<(Arch, Primitive)>,
    repro_next: usize,
}

impl Generator {
    pub fn new(mix: Mix, seed: u64) -> Generator {
        Generator {
            mix,
            seed,
            rng: Rng::new(seed),
            keys: keys(),
            repro_next: 0,
        }
    }

    pub fn next(&mut self) -> Req {
        match self.mix {
            Mix::Whatif => {
                let total: u32 = WHATIF_WEIGHTS.iter().sum();
                let mut draw = self.rng.below(total as usize) as u32;
                let op = WHATIF_WEIGHTS
                    .iter()
                    .position(|&w| {
                        let hit = draw < w;
                        draw = draw.saturating_sub(w);
                        hit
                    })
                    .expect("draw below the total");
                let p = Primitive::all()[self.rng.below(4)];
                let (arch, kp) = self.keys[self.rng.below(self.keys.len())];
                match op {
                    0 => Req::MeasureSpec(self.rng.below(LIVE_SPECS), p),
                    1 => Req::Measure(arch, kp),
                    2 => Req::Table(self.rng.below(session::REPORTS.len())),
                    3 => Req::Trace(arch, kp),
                    4 => Req::Stats,
                    5 => Req::Metrics,
                    _ => Req::Health,
                }
            }
            Mix::Repro => {
                let tables = session::REPORTS.len();
                let i = self.repro_next % (tables + self.keys.len());
                self.repro_next += 1;
                if i < tables {
                    Req::Table(i)
                } else {
                    let (arch, p) = self.keys[i - tables];
                    Req::Measure(arch, p)
                }
            }
        }
    }
}

/// A seeded what-if variant of `base` under the slot's name: the base
/// machine with its clock scaled, so every activation has new content
/// and passes the lint and proof gates the built-ins pass.
pub fn variant_doc(slot: usize, base: Arch, rng: &mut Rng) -> String {
    let mut spec = base.spec();
    spec.clock_mhz = (spec.clock_mhz * (0.6 + 0.8 * rng.unit()) * 100.0).round() / 100.0;
    spec.to_json(&slot_name(slot))
}

/// Expected payloads, computed from the direct emitters and memoized.
#[derive(Default)]
pub struct Refs {
    measure: HashMap<(usize, usize), String>,
    spec: HashMap<(Arc<str>, usize), String>,
    table: HashMap<usize, String>,
    trace: HashMap<(usize, usize), String>,
}

fn prim_index(p: Primitive) -> usize {
    Primitive::all()
        .iter()
        .position(|&q| q == p)
        .expect("listed")
}

impl Refs {
    /// Drop the payloads of specs no longer live. Swaps come only after
    /// every reply before them is checked, so no later reply needs them,
    /// and the checker's memory stays flat over the window.
    fn forget_replaced(&mut self, model: &Model) {
        self.spec
            .retain(|(doc, _), _| model.docs.iter().flatten().any(|live| live == doc));
    }

    fn expected(&mut self, req: Req, doc: Option<&Arc<str>>) -> Result<Option<&str>, String> {
        Ok(Some(match req {
            Req::Measure(arch, p) => self
                .measure
                .entry((arch.index(), prim_index(p)))
                .or_insert_with(|| metrics::measure_json(arch, p)),
            Req::MeasureSpec(_, p) => {
                let doc = doc.ok_or("measure by spec with no live document")?;
                match self.spec.entry((doc.clone(), prim_index(p))) {
                    Entry::Occupied(entry) => entry.into_mut(),
                    Entry::Vacant(entry) => {
                        let (name, spec) = ArchSpec::from_json(doc)?;
                        entry.insert(metrics::measure_spec_json(&name, &spec, p))
                    }
                }
            }
            Req::Table(index) => self
                .table
                .entry(index)
                .or_insert_with(|| metrics::table_json(&(session::REPORTS[index].build)())),
            Req::Trace(arch, p) => self
                .trace
                .entry((arch.index(), prim_index(p)))
                .or_insert_with(|| {
                    metrics::chrome_trace_json(&trace_primitive(arch, p))
                        .trim_end()
                        .to_string()
                }),
            Req::Stats | Req::Metrics | Req::Health => return Ok(None),
        }))
    }

    /// Check one reply line against the request it answers.
    pub fn check(&mut self, line: &str, sent: &Sent) -> Result<(), String> {
        let reply = json::parse(line).map_err(|e| format!("reply is not JSON: {e}"))?;
        if reply.get("schema").and_then(Value::as_str) != Some(metrics::SERVE_SCHEMA) {
            return Err("reply lacks the serve schema".to_string());
        }
        if reply.get("id").and_then(Value::as_u64) != Some(sent.id) {
            return Err(format!("reply id mismatch for request {}", sent.id));
        }
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            let why = reply.get("error").and_then(Value::as_str).unwrap_or("?");
            return Err(format!("{:?} failed: {why}", sent.req));
        }
        if reply.get("epoch").and_then(Value::as_u64) != Some(sent.epoch) {
            return Err(format!("{:?} served at the wrong epoch", sent.req));
        }
        let range = reply.raw_range("result").ok_or("reply has no result")?;
        let raw = &line[range];
        match self.expected(sent.req, sent.doc.as_ref())? {
            Some(expected) if expected == raw => Ok(()),
            Some(_) => Err(format!(
                "{:?} at epoch {} differs from the direct emitter",
                sent.req, sent.epoch
            )),
            None => check_introspection(sent.req, &reply, raw),
        }
    }
}

fn check_introspection(req: Req, reply: &Value, raw: &str) -> Result<(), String> {
    let result = reply.get("result").ok_or("no result")?;
    match req {
        Req::Metrics => {
            metrics::validate_metrics_snapshot(raw).map_err(|e| format!("metrics: {e}"))?;
            match result.get("schema").and_then(Value::as_str) {
                Some(metrics::METRICS_SCHEMA) => Ok(()),
                _ => Err("metrics snapshot has the wrong schema".to_string()),
            }
        }
        _ if matches!(result, Value::Obj(_)) => Ok(()),
        _ => Err(format!("{req:?} result is not an object")),
    }
}

/// One request on the wire.
#[derive(Debug, Clone)]
pub struct Sent {
    pub id: u64,
    pub req: Req,
    pub epoch: u64,
    /// The live document of the spec a `MeasureSpec` names.
    pub doc: Option<Arc<str>>,
}

/// The registry state the driver expects: it is the only admin client
/// and swaps only with an empty pipeline, so this is exact.
#[derive(Debug, Clone)]
struct Model {
    epoch: u64,
    docs: Vec<Option<Arc<str>>>,
}

/// A closed-loop, pipelined client over one connection.
struct Driver {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rlen: usize,
    wbuf: Vec<u8>,
    inflight: VecDeque<(Sent, Instant)>,
    next_id: u64,
    /// Replies awaiting their check: text plus what was asked.
    arena: String,
    answered: Vec<(Range<usize>, Sent)>,
    latencies_ns: Vec<u64>,
}

impl Driver {
    fn connect(handle: &ServerHandle) -> std::io::Result<Driver> {
        let stream = TcpStream::connect(handle.addr())?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Driver {
            stream,
            rbuf: vec![0; 1 << 16],
            rlen: 0,
            wbuf: Vec::with_capacity(4096),
            inflight: VecDeque::with_capacity(DEPTH),
            next_id: 0,
            arena: String::with_capacity(CHUNK_BYTES + (1 << 20)),
            answered: Vec::new(),
            latencies_ns: Vec::new(),
        })
    }

    fn send(&mut self, reqs: &[Req], model: &Model) -> std::io::Result<()> {
        self.wbuf.clear();
        let mut batch = Vec::with_capacity(reqs.len());
        for &req in reqs {
            self.next_id += 1;
            self.wbuf
                .extend_from_slice(req.line(self.next_id).as_bytes());
            self.wbuf.push(b'\n');
            let doc = match req {
                Req::MeasureSpec(slot, _) => model.docs[slot].clone(),
                _ => None,
            };
            batch.push(Sent {
                id: self.next_id,
                req,
                epoch: model.epoch,
                doc,
            });
        }
        let at = Instant::now();
        self.stream.write_all(&self.wbuf)?;
        self.inflight
            .extend(batch.into_iter().map(|sent| (sent, at)));
        Ok(())
    }

    /// One blocking read, appended to `rbuf`.
    fn read_more(&mut self) -> std::io::Result<usize> {
        if self.rlen == self.rbuf.len() {
            self.rbuf.resize(self.rbuf.len() * 2, 0);
        }
        let n = self.stream.read(&mut self.rbuf[self.rlen..])?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.rlen += n;
        Ok(n)
    }

    /// One read; every complete reply is timed and buffered. Returns how
    /// many replies arrived.
    fn recv(&mut self) -> std::io::Result<usize> {
        let scan_from = self.rlen;
        self.read_more()?;
        let now = Instant::now();
        let mut start = 0;
        let mut replies = 0;
        let mut at = scan_from;
        while let Some(offset) = self.rbuf[at..self.rlen].iter().position(|&b| b == b'\n') {
            let end = at + offset;
            let (sent, sent_at) = self.inflight.pop_front().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "unsolicited reply")
            })?;
            self.latencies_ns
                .push(now.duration_since(sent_at).as_nanos() as u64);
            let text = String::from_utf8_lossy(&self.rbuf[start..end]);
            let from = self.arena.len();
            self.arena.push_str(&text);
            self.answered.push((from..self.arena.len(), sent));
            replies += 1;
            start = end + 1;
            at = start;
        }
        self.rbuf.copy_within(start..self.rlen, 0);
        self.rlen -= start;
        Ok(replies)
    }

    fn drain(&mut self) -> std::io::Result<()> {
        while !self.inflight.is_empty() {
            self.recv()?;
        }
        Ok(())
    }

    /// One request/reply exchange with an empty pipeline, outside the
    /// latency record; returns the reply line and its round trip.
    fn call(&mut self, line: &str) -> std::io::Result<(String, Duration)> {
        debug_assert!(self.inflight.is_empty());
        let at = Instant::now();
        self.stream.write_all(format!("{line}\n").as_bytes())?;
        loop {
            if let Some(end) = self.rbuf[..self.rlen].iter().position(|&b| b == b'\n') {
                let rtt = at.elapsed();
                let reply = String::from_utf8_lossy(&self.rbuf[..end]).into_owned();
                self.rbuf.copy_within(end + 1..self.rlen, 0);
                self.rlen -= end + 1;
                return Ok((reply, rtt));
            }
            self.read_more()?;
        }
    }

    /// Check every buffered reply; returns how many failed.
    fn check_answered(&mut self, refs: &mut Refs, errors: &mut Vec<String>) -> u64 {
        let mut failed = 0;
        for (range, sent) in &self.answered {
            if let Err(e) = refs.check(&self.arena[range.clone()], sent) {
                failed += 1;
                errors.push(e);
            }
        }
        self.answered.clear();
        self.arena.clear();
        failed
    }
}

/// Stage one document and activate it; returns the activate round trip.
fn swap(
    driver: &mut Driver,
    model: &mut Model,
    slot: usize,
    doc: String,
) -> Result<Duration, String> {
    driver.next_id += 1;
    let load = format!(
        "{{\"op\":\"admin\",\"action\":\"spec-load\",\"token\":\"{TOKEN}\",\"spec\":\"{}\",\"id\":{}}}",
        metrics::json_escape(&doc),
        driver.next_id
    );
    let (reply, _) = driver.call(&load).map_err(|e| format!("spec-load: {e}"))?;
    let result = admin_result(&reply, driver.next_id)?;
    if result.get("staged").and_then(Value::as_str) != Some(slot_name(slot).as_str()) {
        return Err("spec-load staged the wrong name".to_string());
    }
    driver.next_id += 1;
    let activate = format!(
        "{{\"op\":\"admin\",\"action\":\"spec-activate\",\"token\":\"{TOKEN}\",\"name\":\"{}\",\"id\":{}}}",
        slot_name(slot),
        driver.next_id
    );
    let (reply, rtt) = driver
        .call(&activate)
        .map_err(|e| format!("spec-activate: {e}"))?;
    let result = admin_result(&reply, driver.next_id)?;
    if result.get("activated").and_then(Value::as_bool) != Some(true) {
        return Err("spec-activate did not activate".to_string());
    }
    let epoch = result.get("epoch").and_then(Value::as_u64);
    if epoch != Some(model.epoch + 1) {
        return Err(format!(
            "spec-activate moved the epoch to {epoch:?}, not {}",
            model.epoch + 1
        ));
    }
    model.epoch += 1;
    model.docs[slot] = Some(Arc::from(doc));
    Ok(rtt)
}

fn admin_result(reply: &str, id: u64) -> Result<Value, String> {
    let value = json::parse(reply).map_err(|e| format!("admin reply is not JSON: {e}"))?;
    if value.get("id").and_then(Value::as_u64) != Some(id) {
        return Err(format!("admin reply id mismatch for request {id}"));
    }
    if value.get("ok").and_then(Value::as_bool) != Some(true) {
        let why = value.get("error").and_then(Value::as_str).unwrap_or("?");
        return Err(format!("admin call failed: {why}"));
    }
    match value.get("result") {
        Some(result @ Value::Obj(_)) => Ok(result.clone()),
        _ => Err("admin reply has no result object".to_string()),
    }
}

/// Round-robin over a seeded order of the seven base machines, reshuffled
/// every round, so every run swaps each base equally often.
struct BaseCycle {
    rng: Rng,
    order: Vec<usize>,
    at: usize,
}

impl BaseCycle {
    fn new(rng: Rng) -> BaseCycle {
        BaseCycle {
            rng,
            order: Vec::new(),
            at: 0,
        }
    }

    fn next(&mut self) -> Arch {
        if self.at == self.order.len() {
            self.order = self.rng.permutation(Arch::COUNT);
            self.at = 0;
        }
        self.at += 1;
        Arch::all()[self.order[self.at - 1]]
    }
}

/// Everything one served scenario measured.
#[derive(Debug, Default)]
pub struct ServedRun {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Every segment of the window.
    pub window: Pool,
    /// Activate round trips inside the window (`swap-whatif`), each with
    /// the base machine of the spec it activated.
    pub swaps_ms: Vec<(Arch, f64)>,
    /// Cold reproduction children run between the window's segments.
    pub children: Vec<(u64, ChildRun)>,
    /// (hits, misses, coalesced) of the server cache over the window.
    pub window_cache: (u64, u64, u64),
    /// Peak resident set of the process (server and driver) over the
    /// window's traffic and swaps; the set-ups, the reply checks and the
    /// children's spawns are left out.
    pub peak_rss_mb: f64,
    /// Sampled span chains (`spans` with `filter:"chrome"`) and the
    /// `metrics` snapshot, read when sampling is on: right after the
    /// window, and again after the swaps and misses that follow it.
    pub chrome: Option<Value>,
    pub snapshot: Option<Value>,
    pub after_chrome: Option<Value>,
    pub after_snapshot: Option<Value>,
}

/// Requests, timed seconds and request latencies pooled over segments of
/// the window. A segment is a run of requests between two stops of the
/// clock: the window stops it to check a full chunk of replies, to swap,
/// and for the work it interleaves.
#[derive(Debug, Clone, Default)]
pub struct Pool {
    pub segments: usize,
    pub requests: u64,
    pub secs: f64,
    /// Write-to-reply latency of every request, in nanoseconds.
    pub latency_ns: Histogram,
}

impl Pool {
    fn add(&mut self, requests: u64, secs: f64, latencies_ns: &[u64]) {
        self.segments += 1;
        self.requests += requests;
        self.secs += secs;
        for &ns in latencies_ns {
            self.latency_ns.record(ns);
        }
    }
}

fn server_config(sample_every: u64) -> ServerConfig {
    ServerConfig {
        workers: LOOPS,
        compute_threads: COMPUTE_THREADS,
        sample_every,
        admin_token: Some(TOKEN.to_string()),
        ..ServerConfig::default()
    }
}

/// Start a server and bring it to the scenario's starting state: warmed
/// cache (`Repro`) or `LIVE_SPECS` activated specs (`Whatif`).
fn set_up(
    mix: Mix,
    seed: u64,
    sample_every: u64,
    refs: &mut Refs,
) -> Result<(ServerHandle, Driver, Model, Rng), String> {
    let handle = Server::start(&server_config(sample_every)).map_err(|e| format!("start: {e}"))?;
    match prepare(&handle, mix, seed, refs) {
        Ok((driver, model, rng)) => Ok((handle, driver, model, rng)),
        Err(e) => {
            handle.stop();
            Err(e)
        }
    }
}

fn prepare(
    handle: &ServerHandle,
    mix: Mix,
    seed: u64,
    refs: &mut Refs,
) -> Result<(Driver, Model, Rng), String> {
    // The checker's expected payloads for every built-in key and table
    // (and trace, on `swap-whatif`): the served reproduction after the
    // window asks for all of them.
    let mut expected: Vec<Req> = keys()
        .into_iter()
        .map(|(a, p)| Req::Measure(a, p))
        .collect();
    expected.extend((0..session::REPORTS.len()).map(Req::Table));
    if mix == Mix::Whatif {
        expected.extend(keys().into_iter().map(|(a, p)| Req::Trace(a, p)));
    }
    for req in expected {
        refs.expected(req, None)?;
    }
    let mut driver = Driver::connect(handle).map_err(|e| format!("connect: {e}"))?;
    let mut model = Model {
        epoch: 1,
        docs: vec![None; LIVE_SPECS],
    };
    let mut rng = Rng::new(seed ^ 0x5357_4150);
    let mut errors = Vec::new();
    match mix {
        Mix::Repro => {
            let mut warm: Vec<Req> = keys()
                .into_iter()
                .map(|(a, p)| Req::Measure(a, p))
                .collect();
            warm.extend((0..session::REPORTS.len()).map(Req::Table));
            for chunk in warm.chunks(DEPTH) {
                driver
                    .send(chunk, &model)
                    .map_err(|e| format!("warm: {e}"))?;
                driver.drain().map_err(|e| format!("warm: {e}"))?;
            }
        }
        Mix::Whatif => {
            // Fixed bases spanning the cost range: set-up time must not
            // depend on which bases a seed draws first.
            let bases = [Arch::Cvax, Arch::R3000, Arch::Sparc, Arch::I860];
            for (slot, base) in bases.into_iter().enumerate().take(LIVE_SPECS) {
                let doc = variant_doc(slot, base, &mut rng);
                swap(&mut driver, &mut model, slot, doc)?;
                for p in Primitive::all() {
                    refs.expected(Req::MeasureSpec(slot, p), model.docs[slot].as_ref())?;
                }
            }
        }
    }
    let failed = driver.check_answered(refs, &mut errors);
    driver.latencies_ns.clear();
    if failed > 0 {
        return Err(format!(
            "set-up replies failed their checks: {}",
            errors.join("; ")
        ));
    }
    Ok((driver, model, rng))
}

/// What a served scenario runs for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    /// The end-to-end run: repeated set-ups, tracing off.
    EndToEnd,
    /// An untraced part of the traced run: one set-up, the window only.
    Untraced,
    /// A sampled part of the traced run: one set-up, span sampling at the
    /// server's default rate, the telemetry reads after the window, and
    /// again after the swaps and misses of [`misses_after`].
    Sampled,
}

/// Run one served scenario for `seconds` of measured time.
pub fn scenario(mix: Mix, seed: u64, seconds: f64, purpose: Purpose) -> ServedRun {
    let mut run = ServedRun::default();
    let sample_every = if purpose == Purpose::Sampled {
        ServerConfig::default().sample_every
    } else {
        0
    };
    // Set up several times; keep the last server, report the median time.
    let setups = if purpose == Purpose::EndToEnd {
        SETUP_REPS
    } else {
        1
    };
    let mut state = None;
    let mut refs = Refs::default();
    for rep in 0..setups {
        let started = Instant::now();
        refs = Refs::default();
        let result = set_up(mix, seed, sample_every, &mut refs);
        run.setup_s.push(started.elapsed().as_secs_f64());
        match result {
            Ok(s) if rep + 1 == setups => state = Some(s),
            Ok((handle, ..)) => handle.stop(),
            Err(e) => {
                run.attempted += 1;
                run.failed += 1;
                run.errors.push(format!("set-up: {e}"));
                return run;
            }
        }
    }
    let (handle, mut driver, mut model, mut rng) = state.expect("set up above");
    let mut gen = Generator::new(mix, seed);
    let mut between = (purpose == Purpose::EndToEnd).then(|| Between::new(seed));
    let windowed = window(
        &mut run,
        &mut driver,
        &mut model,
        &mut rng,
        &mut refs,
        &mut gen,
        &handle,
        seconds,
        between.as_mut(),
    );
    if let Err(e) = windowed {
        run.failed += 1;
        run.errors.push(format!("window: {e}"));
    }
    if sample_every > 0 {
        run.chrome = read_payload(
            &mut driver,
            "{\"op\":\"spans\",\"filter\":\"chrome\",\"id\":0}",
        );
        run.snapshot = read_payload(&mut driver, "{\"op\":\"metrics\",\"id\":0}");
        if let Err(e) = misses_after(&mut run, &mut driver, &mut model, &mut rng, &mut refs, seed) {
            run.failed += 1;
            run.errors.push(format!("after the window: {e}"));
        }
        run.after_chrome = read_payload(
            &mut driver,
            "{\"op\":\"spans\",\"filter\":\"chrome\",\"id\":0}",
        );
        run.after_snapshot = read_payload(&mut driver, "{\"op\":\"metrics\",\"id\":0}");
    }
    drop(driver);
    handle.stop();
    run
}

fn read_payload(driver: &mut Driver, line: &str) -> Option<Value> {
    let (reply, _) = driver.call(line).ok()?;
    json::parse(&reply).ok()?.get("result").cloned()
}

/// The timed window: closed-loop segments until `seconds` of them have
/// run. A segment ends when its replies fill a chunk or a swap is due;
/// the clock stops while the replies are checked, while the registry
/// swaps and while `between` work runs. On `swap-whatif` the window ends
/// after a whole round of swaps, one per base machine, so every run
/// swaps each base equally often and holds whole swap cycles only: a
/// cycle cut short would over-weight its cold start.
///
/// The peak resident set is reset before each segment and swap and read
/// after it: the checker recomputes simulations and parses replies in
/// this process, and its transient memory is the benchmark's, not the
/// server's.
#[allow(clippy::too_many_arguments)]
fn window(
    run: &mut ServedRun,
    driver: &mut Driver,
    model: &mut Model,
    rng: &mut Rng,
    refs: &mut Refs,
    gen: &mut Generator,
    handle: &ServerHandle,
    seconds: f64,
    mut between: Option<&mut Between>,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(seconds);
    let swapping = gen.mix == Mix::Whatif;
    let mut bases = BaseCycle::new(Rng::new(gen.seed ^ 0xba5e));
    let cache_before = handle.cache_stats();
    let mut timed = Duration::ZERO;
    let mut since_swap = 0u64;
    let mut swaps = 0usize;
    let mut batch = Vec::with_capacity(DEPTH);
    let io = |e: std::io::Error| e.to_string();
    let reset_peak =
        || crate::reset_peak_rss().map_err(|e| format!("reset the peak resident set: {e}"));
    loop {
        reset_peak()?;
        let started = Instant::now();
        let mut requests = 0u64;
        loop {
            let swap_due = swapping && since_swap >= SWAP_EVERY;
            let time_up = !swapping && timed + started.elapsed() >= budget;
            if swap_due || time_up || driver.arena.len() >= CHUNK_BYTES {
                break;
            }
            batch.clear();
            while driver.inflight.len() + batch.len() < DEPTH
                && !(swapping && since_swap + batch.len() as u64 >= SWAP_EVERY)
            {
                batch.push(gen.next());
            }
            since_swap += batch.len() as u64;
            requests += batch.len() as u64;
            driver.send(&batch, model).map_err(io)?;
            driver.recv().map_err(io)?;
        }
        driver.drain().map_err(io)?;
        let secs = started.elapsed();
        run.peak_rss_mb = run.peak_rss_mb.max(peak_rss_mb());
        timed += secs;
        run.window
            .add(requests, secs.as_secs_f64(), &driver.latencies_ns);
        driver.latencies_ns.clear();
        run.attempted += requests;
        run.failed += driver.check_answered(refs, &mut run.errors);
        let swap_due = swapping && since_swap >= SWAP_EVERY;
        let round_done = swap_due && swaps.is_multiple_of(Arch::COUNT);
        let done = timed >= budget && (!swapping || round_done);
        // A swap follows the traffic it interrupts, never a child: a child
        // keeps both cores busy, and the host's slowdown after such a
        // burst would land on the swap's round trip.
        if swap_due && !done {
            since_swap = 0;
            let slot = swaps % LIVE_SPECS;
            swaps += 1;
            let base = bases.next();
            let doc = variant_doc(slot, base, rng);
            run.attempted += 2;
            reset_peak()?;
            match swap(driver, model, slot, doc) {
                Ok(rtt) => run.swaps_ms.push((base, rtt.as_secs_f64() * 1e3)),
                Err(e) => {
                    run.failed += 1;
                    run.errors.push(e);
                }
            }
            run.peak_rss_mb = run.peak_rss_mb.max(peak_rss_mb());
            refs.forget_replaced(model);
        }
        if let Some(between) = between.as_deref_mut() {
            between.catch_up((timed.as_secs_f64() / seconds).min(1.0), run);
        }
        if done {
            break;
        }
    }
    let after = handle.cache_stats();
    run.window_cache = (
        after.0 - cache_before.0,
        after.1 - cache_before.1,
        after.2 - cache_before.2,
    );
    Ok(())
}

/// The work an end-to-end run does between its window's segments: cold
/// reproduction children, for `repro_p50_s`, which every workload
/// reports. It keeps pace with the window's clock, so it samples the host
/// across the whole run, as the window does. The clock is stopped and the
/// server idle while a child runs, and the child's memory is its own.
pub struct Between {
    seed: u64,
    done: usize,
}

impl Between {
    fn new(seed: u64) -> Between {
        Between { seed, done: 0 }
    }

    /// Run the children due once `share` of the window has run.
    fn catch_up(&mut self, share: f64, run: &mut ServedRun) {
        while self.done < (share * REPROS as f64).ceil() as usize {
            let rep = self.done as u64;
            self.done += 1;
            run.attempted += 1;
            match repro::spawn_child(self.seed, rep) {
                Ok(child) => run.children.push((rep, child)),
                Err(e) => {
                    run.failed += 1;
                    run.errors.push(format!("reproduction child: {e}"));
                }
            }
        }
    }
}

/// Serve `reqs` outside the latency record and check every reply.
fn serve_unrecorded(
    run: &mut ServedRun,
    driver: &mut Driver,
    model: &Model,
    refs: &mut Refs,
    reqs: &[Req],
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    run.attempted += reqs.len() as u64;
    for chunk in reqs.chunks(DEPTH) {
        driver.send(chunk, model).map_err(io)?;
        driver.drain().map_err(io)?;
    }
    driver.latencies_ns.clear();
    run.failed += driver.check_answered(refs, &mut run.errors);
    Ok(())
}

/// For the span stages a hit-only window lacks: cycles of one swap (bases
/// in seeded rounds of all seven) followed by a served reproduction at
/// the new epoch, which makes every table and built-in key miss. Enough
/// cycles that the server's 1-in-64 sampling catches about a dozen
/// misses, and two swaps per base for the registry's swap histogram.
fn misses_after(
    run: &mut ServedRun,
    driver: &mut Driver,
    model: &mut Model,
    rng: &mut Rng,
    refs: &mut Refs,
    seed: u64,
) -> Result<(), String> {
    let mut bases = BaseCycle::new(Rng::new(seed ^ 0x7a11));
    let mut repro = Generator::new(Mix::Repro, seed);
    for cycle in 0..2 * Arch::COUNT {
        let slot = cycle % LIVE_SPECS;
        let doc = variant_doc(slot, bases.next(), rng);
        run.attempted += 2;
        swap(driver, model, slot, doc)?;
        let reqs: Vec<Req> = (0..session::REPORTS.len() + keys().len())
            .map(|_| repro.next())
            .collect();
        serve_unrecorded(run, driver, model, refs, &reqs)?;
    }
    Ok(())
}

/// The load shape line printed with every served result.
pub fn shape_note(mix: Mix, sample_every: u64) -> String {
    format!(
        "load: closed loop, driver_threads=1 conns={CONNS} depth={DEPTH} | server: loops={LOOPS} \
         compute_threads={COMPUTE_THREADS} sample_every={sample_every}{}",
        if mix == Mix::Whatif {
            format!(" | live_specs={LIVE_SPECS} swap_every={SWAP_EVERY} weights={WHATIF_WEIGHTS:?}")
        } else {
            String::new()
        }
    )
}

/// The end-to-end run of `swap-whatif`. Capacity and latency pool every
/// request of the window's segments.
pub fn run(args: &Args) -> Outcome {
    let mix = Mix::Whatif;
    let mut r = scenario(mix, args.seed, args.seconds, Purpose::EndToEnd);
    let mut out = Outcome {
        attempted: r.attempted,
        failed: r.failed,
        errors: std::mem::take(&mut r.errors),
        ..Outcome::default()
    };
    out.note(shape_note(mix, 0));
    let children = repro::check_cold(args.seed, &r.children, &mut out);
    let w = &r.window;
    let (hits, misses, coalesced) = r.window_cache;
    out.note(format!(
        "samples: setup n={} | requests n={} in {:.3} s over {} segments | spec-activate round trips n={}",
        r.setup_s.len(),
        w.latency_ns.len(),
        w.secs,
        w.segments,
        r.swaps_ms.len(),
    ));
    out.note(format!(
        "cache over the window: hits={hits} misses={misses} coalesced={coalesced}"
    ));
    out.metric("setup_s", median(&mut r.setup_s), "s");
    out.metric("req_per_s", w.requests as f64 / w.secs.max(1e-9), "1/s");
    out.metric("req_p50_us", w.latency_ns.quantile(0.5) / 1e3, "us");
    out.metric("req_p99_us", w.latency_ns.quantile(0.99) / 1e3, "us");
    out.note(format!(
        "spec-activate p50 per base (ms): {:.3?}",
        crate::base_medians(&r.swaps_ms)
    ));
    out.metric("swap_p50_ms", crate::base_geomean(&r.swaps_ms), "ms");
    let mut repro_s: Vec<f64> = children.iter().map(|c| c.repro_us / 1e6).collect();
    out.metric("repro_p50_s", median(&mut repro_s), "s");
    out.metric("peak_rss_mb", r.peak_rss_mb, "MB");
    out
}
