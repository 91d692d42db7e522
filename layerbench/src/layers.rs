//! The traced run: every per-layer metric, timed from here through each
//! module's public functions, plus the server's own exported telemetry
//! (sampled span chains and the `metrics` snapshot). No probe goes inside
//! the program.

use crate::json::{self, Value};
use crate::served::{self, Mix, Purpose, Req};
use crate::{median, primitive_cli, repro, Args, Outcome, Rng};
use osarch_cluster::Ring;
use osarch_core::{metrics, session, AbsintAnalyzer, Analyzer};
use osarch_cpu::{Arch, ArchSpec};
use osarch_kernel::{
    measure_fresh, measure_with_spec, trace_primitive, HandlerSet, Machine, Primitive,
};
use osarch_mem::{AccessKind, Asid, MemorySystem, Mode, Protection, VirtAddr};
use osarch_serve::stats::OP_NAMES;
use osarch_serve::{
    ClusterConfig, Query, ServeStats, Server, ServerConfig, ShardedCache, SpecSnapshot,
};
use osarch_telemetry::TelemetryHub;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Median nanoseconds per call over `samples` timed batches of `batch`
/// calls each.
fn per_call_ns(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut values = Vec::with_capacity(samples);
    for _ in 0..samples {
        let started = Instant::now();
        for _ in 0..batch {
            f();
        }
        values.push(started.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&mut values)
}

/// Median nanoseconds per call where each sample needs untimed
/// preparation: `prep` builds the input, `timed` consumes it and returns
/// how many calls it made.
fn per_call_prepared<T>(
    samples: usize,
    mut prep: impl FnMut() -> T,
    mut timed: impl FnMut(T) -> usize,
) -> f64 {
    let mut values = Vec::with_capacity(samples);
    for _ in 0..samples {
        let input = prep();
        let started = Instant::now();
        let calls = timed(input);
        values.push(started.elapsed().as_nanos() as f64 / calls.max(1) as f64);
    }
    median(&mut values)
}

/// The traced run for any workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    served_layers(&mut out, args);
    cluster_layers(&mut out, args.seed);
    mem_layers(&mut out);
    kernel_layers(&mut out);
    core_layers(&mut out);
    analysis_layers(&mut out, args.seed);
    protocol_layers(&mut out, args);
    cache_layers(&mut out);
    stats_layers(&mut out);
    fingerprint(&mut out);
    out
}

/// Run the workload's served scenario (for `repro-cold`, its served twin:
/// every table and built-in key) as four quarters, alternately untraced
/// and sampled; the last sampled server's spans and snapshot price the
/// server stages.
fn served_layers(out: &mut Outcome, args: &Args) {
    let mix = Mix::for_workload(args.workload);
    let sample_every = ServerConfig::default().sample_every;
    // Alternate untraced and sampled quarters so drift over the run hits
    // both sides alike; the last sampled run supplies the telemetry.
    let quarter = args.seconds / 4.0;
    let mut runs: Vec<(Purpose, served::ServedRun)> = [
        Purpose::Untraced,
        Purpose::Sampled,
        Purpose::Untraced,
        Purpose::Sampled,
    ]
    .into_iter()
    .map(|purpose| (purpose, served::scenario(mix, args.seed, quarter, purpose)))
    .collect();
    out.note(served::shape_note(mix, sample_every));
    let rate = |purpose: Purpose| {
        let (requests, secs) = runs
            .iter()
            .filter(|(p, _)| *p == purpose)
            .map(|(_, r)| (r.window.requests, r.window.secs))
            .fold((0u64, 0.0f64), |(n, s), (rn, rs)| (n + rn, s + rs));
        requests as f64 / secs.max(1e-9)
    };
    let (rate_off, rate_on) = (rate(Purpose::Untraced), rate(Purpose::Sampled));
    out.note(format!(
        "tracing: untraced {rate_off:.0} req/s, sampled 1/{sample_every} {rate_on:.0} req/s, {quarter:.2} s per quarter"
    ));
    out.metric("trace.req_per_s_untraced", rate_off, "1/s");
    out.metric("trace.req_per_s_traced", rate_on, "1/s");
    out.metric(
        "trace.overhead_pct",
        (rate_off - rate_on) / rate_off.max(1e-9) * 100.0,
        "%",
    );
    for (_, run) in &mut runs {
        out.attempted += run.attempted;
        out.failed += run.failed;
        out.errors.append(&mut run.errors);
    }
    let (_, on) = runs.pop().expect("four runs");

    let (hits, misses, coalesced) = on.window_cache;
    let lookups = (hits + misses + coalesced).max(1);
    out.metric("cache.hit_ratio", hits as f64 / lookups as f64, "ratio");
    out.metric("cache.coalesced", coalesced as f64, "count");

    // Spans are whole microseconds, so a sub-microsecond stage has a
    // median of 0: report each stage's mean over the sampled chains. A
    // hit-only window has no queue or compute stage; those come from the
    // misses of the served reproduction after the window.
    let stage_durations = |doc: &Option<Value>, stage: &str| -> Vec<f64> {
        doc.as_ref()
            .and_then(|doc| doc.get("traceEvents"))
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some(stage))
            .filter_map(|e| e.get("dur").and_then(Value::as_f64))
            .collect()
    };
    let mut counts = Vec::new();
    for stage in ["decode", "queue", "cache", "compute", "write"] {
        let mut durs = stage_durations(&on.chrome, stage);
        let mut source = "window";
        if durs.is_empty() {
            durs = stage_durations(&on.after_chrome, stage);
            source = "after window";
        }
        if durs.is_empty() {
            out.error(format!("no sampled chain has a {stage} stage"));
        }
        counts.push(format!("{stage} n={} ({source})", durs.len()));
        let mean = durs.iter().sum::<f64>() / durs.len().max(1) as f64;
        out.metric(format!("server.{stage}_us"), mean, "us");
    }
    let snapshot_mean = |snapshot: &Option<Value>, key: &str| {
        snapshot
            .as_ref()
            .and_then(|s| s.at(&[key, "mean"]))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    out.metric(
        "server.loop_lag_us",
        snapshot_mean(&on.snapshot, "loop_lag_us"),
        "us",
    );
    out.metric(
        "registry.swap_latency_ms",
        snapshot_mean(&on.after_snapshot, "swap_latency_us") / 1e3,
        "ms",
    );
    out.note(format!(
        "server spans: {} | window cache hits={hits} misses={misses} coalesced={coalesced}",
        counts.join(", ")
    ));
    if on.chrome.is_none() || on.snapshot.is_none() || on.after_snapshot.is_none() {
        out.error("the sampled server exported no spans or snapshot");
    }

    // One reproduction child, for the simulation count of a cold process.
    out.attempted += 1;
    match repro::spawn_child(args.seed, 0) {
        Ok(child) => out.metric(
            "core.simulations_per_repro",
            child.simulations as f64,
            "count",
        ),
        Err(e) => {
            out.failed += 1;
            out.error(format!("reproduction child: {e}"));
            out.metric("core.simulations_per_repro", 0.0, "count");
        }
    }

    // Depth-1 loopback ping on a fresh server.
    let handle = match Server::start(&ServerConfig {
        workers: served::LOOPS,
        compute_threads: served::COMPUTE_THREADS,
        sample_every: 0,
        ..ServerConfig::default()
    }) {
        Ok(handle) => handle,
        Err(e) => {
            out.error(format!("ping server: {e}"));
            return;
        }
    };
    let rtt = ping_rtt_us(&handle.addr().to_string(), 4000);
    handle.stop();
    match rtt {
        Ok(us) => {
            out.attempted += 4000;
            out.metric("server.ping_rtt_us", us, "us");
        }
        Err(e) => out.error(format!("ping: {e}")),
    }
}

fn ping_rtt_us(addr: &str, count: usize) -> Result<f64, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut rtts = Vec::with_capacity(count);
    let mut line = String::new();
    for id in 0..count {
        let started = Instant::now();
        writeln!(writer, "{{\"op\":\"ping\",\"id\":{id}}}").map_err(|e| e.to_string())?;
        line.clear();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        rtts.push(started.elapsed().as_nanos() as f64 / 1e3);
        let reply = json::parse(&line)?;
        if reply.get("ok").and_then(Value::as_bool) != Some(true)
            || reply.get("id").and_then(Value::as_u64) != Some(id as u64)
        {
            return Err(format!("bad ping reply {line:?}"));
        }
    }
    Ok(median(&mut rtts))
}

/// A 2-node ring (R=1, proxy mode) with the client on node A only:
/// requests for keys node B owns take one proxied hop.
fn cluster_layers(out: &mut Outcome, seed: u64) {
    let keys = served::keys();
    let routing: Vec<String> = keys
        .iter()
        .map(|(a, p)| format!("measure/{a}/{}", p.tag()))
        .collect();
    let addrs = match reserve_addrs(2) {
        Ok(addrs) => addrs,
        Err(e) => {
            out.error(format!("cluster probe: {e}"));
            return;
        }
    };
    let mut handles = Vec::new();
    for addr in &addrs {
        match Server::start(&ServerConfig {
            addr: addr.clone(),
            workers: 1,
            compute_threads: 1,
            sample_every: 0,
            cluster: Some(ClusterConfig {
                self_addr: addr.clone(),
                peers: addrs.clone(),
                replicas: 1,
                proxy: true,
                ..ClusterConfig::default()
            }),
            ..ServerConfig::default()
        }) {
            Ok(handle) => handles.push(handle),
            Err(e) => out.error(format!("cluster node {addr}: {e}")),
        }
    }
    let result = if handles.len() == addrs.len() {
        cluster_probe(&addrs, &keys, &routing, seed)
    } else {
        Err("a node did not start".to_string())
    };
    for handle in handles {
        handle.stop();
    }
    match result {
        Ok((mut local, mut proxied, requests)) => {
            out.attempted += requests;
            let share = proxied.len() as f64 / requests.max(1) as f64;
            out.note(format!(
                "cluster probe: 2 nodes R=1 proxy, depth 1, local n={} proxied n={}",
                local.len(),
                proxied.len()
            ));
            out.metric("cluster.local_p50_us", median(&mut local), "us");
            out.metric("cluster.proxied_p50_us", median(&mut proxied), "us");
            out.metric("cluster.proxied_share", share, "ratio");
        }
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.error(format!("cluster probe: {e}"));
        }
    }
    let ring = Ring::new(
        &["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
        osarch_cluster::DEFAULT_VNODES,
    );
    let mut i = 0;
    let ns = per_call_ns(31, 10_000, || {
        i = (i + 1) % routing.len();
        black_box(ring.owner(black_box(&routing[i])));
    });
    out.metric("cluster.ring_owner_ns", ns, "ns");
}

/// Dialable loopback addresses for `n` nodes: bind ephemeral ports, read
/// them back, release them. Ring nodes must know every peer's address
/// before any of them starts.
fn reserve_addrs(n: usize) -> Result<Vec<String>, String> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())
}

/// Depth-1 closed loop on node A for 1.5 s; latencies split by whether A
/// owns the key. Returns (local, proxied, requests).
fn cluster_probe(
    addrs: &[String],
    keys: &[(Arch, Primitive)],
    routing: &[String],
    seed: u64,
) -> Result<(Vec<f64>, Vec<f64>, u64), String> {
    let ring = Ring::new(addrs, osarch_cluster::DEFAULT_VNODES);
    let stream = TcpStream::connect(&addrs[0]).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut rng = Rng::new(seed ^ 0xc105);
    let (mut local, mut proxied) = (Vec::new(), Vec::new());
    let mut line = String::new();
    let mut id = 0u64;
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(1500) {
        let k = rng.below(keys.len());
        let (arch, p) = keys[k];
        id += 1;
        let t = Instant::now();
        writeln!(
            writer,
            "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{}\",\"id\":{id}}}",
            primitive_cli(p)
        )
        .map_err(|e| e.to_string())?;
        line.clear();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        let text = line.trim_end();
        let reply = json::parse(text)?;
        let raw = reply.raw_range("result").map(|r| &text[r]);
        if reply.get("ok").and_then(Value::as_bool) != Some(true)
            || reply.get("id").and_then(Value::as_u64) != Some(id)
            || raw != Some(metrics::measure_json(arch, p).as_str())
        {
            return Err(format!("cluster reply for {arch} {} is wrong", p.tag()));
        }
        if ring.owner(&routing[k]) == Some(addrs[0].as_str()) {
            local.push(us);
        } else {
            proxied.push(us);
        }
    }
    Ok((local, proxied, id))
}

fn mem_layers(out: &mut Outcome) {
    let config = Arch::R3000.spec().mem;
    let us = per_call_ns(31, 20, || {
        black_box(MemorySystem::new(black_box(config.clone())));
    }) / 1e3;
    out.metric("mem.system_new_us", us, "us");
    let asid = Asid(1);
    let page = |i: u32| VirtAddr(0x0040_0000 + i * 4096);
    let ns = per_call_prepared(
        31,
        || {
            let mut mem = MemorySystem::new(config.clone());
            mem.create_space(asid);
            mem
        },
        |mut mem| {
            for i in 0..512 {
                black_box(mem.map_page(asid, page(i), Protection::RW));
            }
            512
        },
    );
    out.metric("mem.map_page_ns", ns, "ns");

    // 512 pages (2 MiB) is far beyond the R3000's 64-entry TLB and 64 KiB
    // cache; 4 lines of one page stay inside both.
    let mut mem = MemorySystem::new(config);
    mem.create_space(asid);
    for i in 0..512 {
        mem.map_page(asid, page(i), Protection::RW);
    }
    mem.switch_to(asid);
    let mut outcomes = [0u64; 2];
    let mut i = 0u32;
    let hit_ns = per_call_ns(31, 10_000, || {
        i = (i + 1) % 4;
        if let Ok(a) = mem.access(VirtAddr(page(0).0 + i * 32), AccessKind::Read, Mode::User) {
            outcomes[usize::from(a.tlb_miss || a.cache_hit == Some(false))] += 1;
        }
    });
    let hit_share = outcomes[0] as f64 / outcomes.iter().sum::<u64>().max(1) as f64;
    let mut misses = [0u64; 2];
    let miss_ns = per_call_ns(31, 10_000, || {
        i = (i + 1) % 512;
        if let Ok(a) = mem.access(
            VirtAddr(page(i).0 + (i % 128) * 32),
            AccessKind::Read,
            Mode::User,
        ) {
            misses[usize::from(a.tlb_miss && a.cache_hit == Some(false))] += 1;
        }
    });
    let miss_share = misses[1] as f64 / misses.iter().sum::<u64>().max(1) as f64;
    out.note(format!(
        "mem: hit loop {:.1}% TLB+cache hits, miss loop {:.1}% TLB+cache misses",
        hit_share * 100.0,
        miss_share * 100.0
    ));
    if hit_share < 0.99 || miss_share < 0.99 {
        out.error("the memory-access loops did not hit or miss as designed");
    }
    out.metric("mem.access_hit_ns", hit_ns, "ns");
    out.metric("mem.access_miss_ns", miss_ns, "ns");
}

fn kernel_layers(out: &mut Outcome) {
    let mut cold = Vec::new();
    for arch in Arch::all() {
        let us = per_call_ns(9, 1, || {
            black_box(Machine::with_spec(black_box(arch.spec())));
        }) / 1e3;
        out.metric(format!("kernel.machine_new_us.{arch}"), us, "us");
        let measure_us = per_call_ns(7, 1, || {
            black_box(measure_with_spec(black_box(arch.spec())));
        }) / 1e3;
        cold.push((arch, us, measure_us));
    }
    let mut generate = 0.0;
    let mut run_us = [0.0f64; 4];
    let mut instructions = 0u64;
    for arch in Arch::all() {
        let spec = arch.spec();
        let mut machine = Machine::with_spec(spec.clone());
        let layout = *machine.layout();
        generate += per_call_ns(15, 1, || {
            black_box(HandlerSet::generate(&spec, &layout));
        }) / 1e3;
        let handlers = HandlerSet::generate(&spec, &layout);
        for (slot, p) in Primitive::all().into_iter().enumerate() {
            run_us[slot] += per_call_ns(15, 1, || {
                black_box(machine.measure(handlers.program(p)));
            }) / 1e3;
            instructions += machine.measure(handlers.program(p)).instructions;
        }
    }
    out.metric(
        "kernel.handlers_generate_us",
        generate / Arch::COUNT as f64,
        "us",
    );
    for (p, us) in Primitive::all().into_iter().zip(run_us) {
        out.metric(
            format!("kernel.primitive_run_us.{}", primitive_cli(p)),
            us / Arch::COUNT as f64,
            "us",
        );
    }
    let mut shares = Vec::new();
    for (arch, machine_us, measure_us) in cold {
        out.metric(format!("kernel.measure_cold_us.{arch}"), measure_us, "us");
        shares.push(format!("{arch} {:.0}%", machine_us / measure_us * 100.0));
    }
    out.note(format!(
        "Machine::with_spec share of measure_with_spec: {}",
        shares.join(", ")
    ));
    // `Machine::measure` runs each handler three times (two warm-ups and
    // the measured run).
    let total_ns: f64 = run_us.iter().sum::<f64>() * 1e3;
    out.metric(
        "kernel.host_ns_per_sim_instr",
        total_ns / (3 * instructions) as f64,
        "ns",
    );
    let keys = served::keys();
    let trace_us = per_call_prepared(
        5,
        || (),
        |()| {
            for &(a, p) in &keys {
                black_box(trace_primitive(a, p));
            }
            keys.len()
        },
    ) / 1e3;
    out.metric("kernel.trace_primitive_us", trace_us, "us");
}

fn core_layers(out: &mut Outcome) {
    session::shared().prime();
    for spec in session::REPORTS {
        let ms = per_call_ns(5, 1, || {
            black_box((spec.build)());
        }) / 1e6;
        out.metric(format!("core.table_build_ms.{}", spec.name), ms, "ms");
    }
    let tables = session::all_tables();
    let us = per_call_ns(11, 1, || {
        black_box(metrics::tables_json(black_box(&tables)));
    }) / 1e3;
    out.metric("core.tables_json_us", us, "us");
    let us = per_call_ns(11, 1, || {
        black_box(metrics::bench_json());
    }) / 1e3;
    out.metric("core.bench_json_us", us, "us");
}

/// One what-if variant per base machine, as the swap workloads admit.
fn variants(seed: u64) -> Vec<(String, ArchSpec)> {
    let mut rng = Rng::new(seed ^ 0xa11);
    Arch::all()
        .into_iter()
        .map(|base| {
            let doc = served::variant_doc(0, base, &mut rng);
            ArchSpec::from_json(&doc).expect("generated documents parse")
        })
        .collect()
}

fn analysis_layers(out: &mut Outcome, seed: u64) {
    let ms = per_call_ns(5, 1, || {
        black_box(Analyzer::new().analyze_all());
    }) / 1e6;
    out.metric("analysis.lint_all_ms", ms, "ms");
    let ms = per_call_ns(5, 1, || {
        black_box(AbsintAnalyzer::new().analyze_all());
    }) / 1e6;
    out.metric("analysis.absint_all_ms", ms, "ms");
    let specs = variants(seed);
    let ms = per_call_prepared(
        5,
        || (),
        |()| {
            for (_, spec) in &specs {
                black_box(Analyzer::new().analyze_spec(spec));
            }
            specs.len()
        },
    ) / 1e6;
    out.metric("analysis.lint_spec_ms", ms, "ms");
    let ms = per_call_prepared(
        5,
        || (),
        |()| {
            for (_, spec) in &specs {
                black_box(AbsintAnalyzer::new().analyze_spec(spec));
            }
            specs.len()
        },
    ) / 1e6;
    out.metric("analysis.absint_spec_ms", ms, "ms");
}

fn protocol_layers(out: &mut Outcome, args: &Args) {
    let mut gen = served::Generator::new(Mix::for_workload(args.workload), args.seed);
    let lines: Vec<String> = (0..2048).map(|id| gen.next().line(id)).collect();
    let ns = per_call_prepared(
        21,
        || (),
        |()| {
            for line in &lines {
                black_box(osarch_serve::protocol::parse_request(black_box(line)).is_ok());
            }
            lines.len()
        },
    );
    out.metric("protocol.parse_request_ns", ns, "ns");
    let payload = metrics::measure_json(Arch::R3000, Primitive::NullSyscall);
    let ns = per_call_ns(21, 2000, || {
        black_box(osarch_serve::protocol::ok_envelope(
            "42",
            true,
            1,
            7,
            black_box(&payload),
        ));
    });
    out.metric("protocol.ok_envelope_ns", ns, "ns");

    // The CVAX-based variant: the costliest cold simulation.
    let (spec_name, spec) = &variants(args.seed)[0];
    let snapshot = SpecSnapshot::builtins()
        .with_spec(&spec.to_json(spec_name), 2)
        .expect("generated documents load");
    let query = |line: String| match osarch_serve::protocol::parse_request(&line) {
        Ok(request) => request.query,
        Err((e, _)) => panic!("benchmark request {line:?} refused: {e}"),
    };
    let cases: Vec<(&str, Vec<Query>)> = vec![
        (
            "measure",
            vec![query(
                Req::Measure(Arch::Cvax, Primitive::NullSyscall).line(1),
            )],
        ),
        (
            "measure_spec",
            Primitive::all()
                .into_iter()
                .map(|p| {
                    query(format!(
                        "{{\"op\":\"measure\",\"spec\":\"{spec_name}\",\"primitive\":\"{}\"}}",
                        primitive_cli(p)
                    ))
                })
                .collect(),
        ),
        (
            "table",
            (0..session::REPORTS.len())
                .map(|i| query(Req::Table(i).line(1)))
                .collect(),
        ),
        (
            "trace",
            Primitive::all()
                .into_iter()
                .map(|p| query(Req::Trace(Arch::R3000, p).line(1)))
                .collect(),
        ),
        ("counters", vec![query("{\"op\":\"counters\"}".to_string())]),
    ];
    for (op, queries) in cases {
        let samples = if op == "measure" { 31 } else { 5 };
        let batch = if op == "measure" { 1000 } else { 1 };
        let us = per_call_prepared(
            samples,
            || (),
            |()| {
                for _ in 0..batch {
                    for q in &queries {
                        black_box(q.compute(&snapshot));
                    }
                }
                batch * queries.len()
            },
        ) / 1e3;
        out.metric(format!("protocol.compute_us.{op}"), us, "us");
    }
}

fn cache_layers(out: &mut Outcome) {
    let cache = ShardedCache::new(16);
    let payload = metrics::measure_json(Arch::R3000, Primitive::NullSyscall);
    let keys: Vec<String> = (0..28).map(|i| format!("e1-0/measure/key{i}")).collect();
    for key in &keys {
        cache.get_or_compute(key, || payload.clone());
    }
    let mut i = 0;
    let ns = per_call_ns(31, 10_000, || {
        i = (i + 1) % keys.len();
        black_box(cache.get_or_compute(&keys[i], || unreachable!("present")));
    });
    out.metric("cache.hit_ns", ns, "ns");
    let mut next = 0u64;
    let us = per_call_prepared(
        21,
        || {
            next += 1;
            let fresh: Vec<String> = (0..1000)
                .map(|i| format!("e{next}-0/measure/miss{i}"))
                .collect();
            fresh
        },
        |fresh| {
            for key in &fresh {
                black_box(cache.get_or_compute(key, String::new));
            }
            fresh.len()
        },
    ) / 1e3;
    out.metric("cache.miss_overhead_us", us, "us");
    // A full snapshot: every key of the what-if query space under two
    // epochs; retaining the newer one reaps the older.
    let space: Vec<String> = (0..28)
        .map(|i| format!("measure/k{i}"))
        .chain((0..16).map(|i| format!("measure/spec{i}")))
        .chain((0..14).map(|i| format!("table/t{i}")))
        .chain((0..28).map(|i| format!("trace/k{i}")))
        .collect();
    let us = per_call_prepared(
        21,
        || {
            let cache = ShardedCache::new(16);
            for epoch in [1, 2] {
                for key in &space {
                    cache.get_or_compute(&format!("e{epoch}-0/{key}"), || payload.clone());
                }
            }
            cache
        },
        |cache| {
            black_box(cache.retain_prefix("e2-0/"));
            1
        },
    ) / 1e3;
    out.metric("cache.retain_prefix_us", us, "us");
}

fn stats_layers(out: &mut Outcome) {
    let stats = ServeStats::new();
    let mut t = 0u64;
    let ns = per_call_ns(31, 10_000, || {
        t += 3;
        stats.record_request("measure", t, 5, true);
    });
    out.metric("stats.record_request_ns", ns, "ns");
    let threads = crate::nproc();
    let shared = ServeStats::new();
    let mut samples = Vec::new();
    for _ in 0..15 {
        let barrier = std::sync::Barrier::new(threads);
        let per_thread = 5_000;
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    barrier.wait();
                    for i in 0..per_thread {
                        shared.record_request("measure", i, 5, true);
                    }
                });
            }
        });
        samples.push(started.elapsed().as_nanos() as f64 / per_thread as f64);
    }
    out.metric(
        "stats.record_request_contended_ns",
        median(&mut samples),
        "ns",
    );
    let hub = TelemetryHub::new(1, &OP_NAMES, 0, 0);
    let mut n = 0u64;
    let ns = per_call_ns(31, 10_000, || {
        n += 1;
        hub.record_op(0, 1, n % 97, n / 100_000);
    });
    out.metric("telemetry.record_op_ns", ns, "ns");
    let us = per_call_ns(21, 20, || {
        black_box(stats.stats_payload(10, 2, 1, 1, 16, 1));
    }) / 1e3;
    out.metric("stats.stats_payload_us", us, "us");
    let us = per_call_ns(21, 20, || {
        black_box(hub.snapshot(1_000_000, Default::default(), Default::default()));
    }) / 1e3;
    out.metric("telemetry.snapshot_us", us, "us");
}

/// The simulated-behaviour fingerprint of this simulator: instructions,
/// cycles, write-buffer stall cycles, TLB misses and cache misses, each
/// summed over the 7 architectures x 4 primitives.
const FINGERPRINT: [u64; 5] = [3434, 7449, 813, 8, 214];

/// The simulated-behaviour fingerprint: exact counts summed over every
/// architecture and primitive, from fresh simulations. It is an identity
/// check, not a cost: any change from [`FINGERPRINT`] fails the run.
fn fingerprint(out: &mut Outcome) {
    let mut sums = [0u64; 5];
    for arch in Arch::all() {
        let m = measure_fresh(arch);
        for p in Primitive::all() {
            let s = m.stats(p);
            for (sum, v) in sums.iter_mut().zip([
                s.instructions,
                s.cycles,
                s.wb_stall_cycles,
                s.tlb_misses,
                s.cache_misses,
            ]) {
                *sum += v;
            }
        }
    }
    let names = [
        "instructions",
        "cycles",
        "wb_stall_cycles",
        "tlb_misses",
        "cache_misses",
    ];
    out.attempted += 1;
    for ((name, v), want) in names.into_iter().zip(sums).zip(FINGERPRINT) {
        out.metric(format!("sim.{name}"), v as f64, "count");
        if v != want {
            out.error(format!(
                "simulated {name}: {v}, the fingerprint says {want}"
            ));
        }
    }
    if sums != FINGERPRINT {
        out.failed += 1;
    }
    out.note(format!("fingerprint (7 archs x 4 primitives): {sums:?}"));
}
