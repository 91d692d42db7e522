//! Satellite: robustness regression tests.
//!
//! Protocol framing under adversarial segmentation (one byte per write,
//! two requests per segment), the stalled-client shutdown race, cache
//! poisoning by a panicking leader under real concurrency, the `health`
//! probe, and the chaos soak itself — run twice to prove the fault
//! schedule replays bit-identically from its seed.

use osarch_core::metrics;
use osarch_cpu::json::Json;
use osarch_serve::cache::Fetched;
use osarch_serve::{Server, ServerConfig, ShardedCache, SoakConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

/// Satellite 1a: a request delivered one byte per `write()` call must be
/// reassembled into one request — the reply arrives whole and correct.
#[test]
fn one_byte_per_write_request_is_reassembled() {
    let server = Server::start(&ServerConfig::default()).expect("start");
    let (mut reader, mut stream) = connect(server.addr());

    let request = b"{\"op\":\"ping\",\"id\":77}\n";
    for byte in request {
        stream
            .write_all(std::slice::from_ref(byte))
            .expect("write one byte");
        stream.flush().expect("flush");
    }
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert!(reply.ends_with('\n'), "reply must be line-delimited");
    assert_eq!(metrics::validate_json(reply.trim_end()), Ok(()), "{reply}");
    assert!(reply.contains("\"pong\":true"), "{reply}");
    assert!(reply.contains("\"id\":77"), "{reply}");

    server.stop();
}

/// Satellite 1b: two complete requests delivered in a single `write()`
/// call (one TCP segment) must produce exactly two replies, in order.
#[test]
fn two_requests_in_one_segment_yield_two_ordered_replies() {
    let server = Server::start(&ServerConfig::default()).expect("start");
    let (mut reader, mut stream) = connect(server.addr());

    stream
        .write_all(b"{\"op\":\"ping\",\"id\":1}\n{\"op\":\"ping\",\"id\":2}\n")
        .expect("write both requests at once");
    stream.flush().expect("flush");

    for expected_id in [1u64, 2] {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert_eq!(metrics::validate_json(reply.trim_end()), Ok(()), "{reply}");
        assert!(
            reply.contains(&format!("\"id\":{expected_id}")),
            "replies must come back in request order: wanted id {expected_id}, got {reply}"
        );
    }

    server.stop();
}

/// Satellite 2: a client that stops draining its socket must not wedge a
/// worker — and with it, shutdown. The write deadline disconnects the
/// stalled client instead.
#[test]
fn stalled_client_cannot_wedge_shutdown() {
    let server = Server::start(&ServerConfig {
        workers: 2,
        write_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    // The stalled client: pipeline many large-reply requests and never
    // read a byte. Replies fill the kernel socket buffers until the
    // worker's write blocks.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    for id in 0..500 {
        if writeln!(
            writer,
            "{{\"op\":\"table\",\"table\":\"table1\",\"id\":{id}}}"
        )
        .is_err()
        {
            break; // server already disconnected us — even better
        }
    }
    let _ = writer.flush();
    // Give the worker time to fill the buffers and hit the deadline.
    std::thread::sleep(Duration::from_millis(600));

    // Shutdown must complete promptly despite the stalled connection.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.stop();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown wedged behind a stalled client");
    drop(stream);
}

/// Satellite 3: a leader that panics mid-flight must wake every parked
/// waiter with a clean error — and the key must stay retriable, not
/// poisoned. Real threads, real contention.
#[test]
fn panicking_leader_wakes_all_waiters_and_key_stays_retriable() {
    let cache = Arc::new(ShardedCache::new(4));
    let waiters = 6;
    // Everyone (leader + waiters) lines up; the leader's compute holds
    // the flight long enough for every waiter to park on it.
    let start = Arc::new(Barrier::new(waiters + 1));
    let computes = Arc::new(AtomicU64::new(0));

    let results: Vec<Fetched> = std::thread::scope(|scope| {
        let leader = {
            let cache = Arc::clone(&cache);
            let start = Arc::clone(&start);
            let computes = Arc::clone(&computes);
            scope.spawn(move || {
                cache.get_or_compute_resilient("hot", || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    start.wait(); // every waiter thread is running
                    std::thread::sleep(Duration::from_millis(100)); // …and parked
                    panic!("chaos: injected leader panic");
                })
            })
        };
        let handles: Vec<_> = (0..waiters)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let start = Arc::clone(&start);
                let computes = Arc::clone(&computes);
                scope.spawn(move || {
                    start.wait();
                    cache.get_or_compute_resilient("hot", || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        "late win".to_string()
                    })
                })
            })
            .collect();
        let mut results = vec![leader.join().expect("leader must not propagate the panic")];
        for handle in handles {
            results.push(handle.join().expect("waiter must not hang or panic"));
        }
        results
    });

    // The leader fails; every waiter either saw that failure or raced in
    // after the key was cleared and became a fresh leader/hit. Nobody
    // hangs, nobody sees a success envelope wrapping an error payload.
    assert!(
        matches!(results[0], Fetched::Failed(_)),
        "leader outcome: {:?}",
        results[0]
    );
    for fetched in &results[1..] {
        match fetched {
            Fetched::Failed(error) => {
                assert!(error.contains("panicked"), "{error}");
            }
            Fetched::Computed(value) | Fetched::Cached(value) => {
                assert_eq!(&**value, "late win", "a post-failure retry recomputed");
            }
            Fetched::Degraded(value, _) => {
                assert_eq!(&**value, "late win");
            }
        }
    }

    // The key is not poisoned: a later request retries and succeeds.
    let retry = cache.get_or_compute_resilient("hot", || "recovered".to_string());
    match retry {
        Fetched::Computed(value) => assert_eq!(&*value, "recovered"),
        Fetched::Cached(value) => assert_eq!(&*value, "late win"),
        other => panic!("key stayed poisoned: {other:?}"),
    }
    assert!(
        cache.failed() >= 1,
        "the leader's failure must be counted: {}",
        cache.failed()
    );
    // Single-flight accounting stays exact through the failure.
    assert_eq!(
        cache.lookups(),
        cache.hits() + cache.misses() + cache.coalesced()
    );
}

/// The `health` probe: one line with worker liveness, queue depth, and
/// the resilience counters. Every event loop counts as live as soon as
/// `start` returns, so the first probe of each of 20 fresh servers must
/// see all three.
#[test]
fn health_probe_reports_liveness() {
    for _ in 0..20 {
        let server = Server::start(&ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        })
        .expect("start");
        let (mut reader, mut stream) = connect(server.addr());
        writeln!(stream, "{{\"op\":\"health\",\"id\":5}}").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv");
        let doc = Json::parse(reply.trim_end()).expect("health reply is JSON");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(5), "{reply}");
        let health = doc.get("result").expect("result");
        let field = |key: &str| health.get(key).and_then(Json::as_u64);
        assert_eq!(
            health.get("status").and_then(Json::as_str),
            Some("ok"),
            "{reply}"
        );
        assert_eq!(field("workers"), Some(3), "{reply}");
        assert_eq!(field("workers_live"), Some(3), "{reply}");
        assert!(field("queue_depth").is_some(), "{reply}");
        assert_eq!(field("panics"), Some(0), "{reply}");
        server.stop();
    }
}

/// Tentpole acceptance: the chaos soak holds every invariant, and two
/// soaks with one seed plan bit-identical fault schedules (the actual
/// injected counts are interleaving-dependent; the schedule is not).
#[test]
fn chaos_soak_invariants_hold_and_schedule_replays() {
    let config = SoakConfig {
        seed: 42,
        rate: 0.2,
        secs: 1.0,
        conns: 4,
        workers: 2,
        ..SoakConfig::default()
    };
    let first = osarch_serve::run_soak(&config).expect("soak");
    assert!(
        first.passed(),
        "soak invariants violated: {:?}",
        first.violations
    );
    assert!(first.oks > 0, "soak made no progress");
    assert!(
        first.injected_total > 0,
        "rate 0.2 must actually inject faults"
    );

    let second = osarch_serve::run_soak(&config).expect("soak rerun");
    assert!(second.passed(), "{:?}", second.violations);
    assert_eq!(
        first.schedule, second.schedule,
        "same seed must plan the identical fault schedule"
    );
    assert_eq!(first.schedule_total, second.schedule_total);

    // A different seed plans a different schedule.
    let other = osarch_serve::run_soak(&SoakConfig {
        seed: 43,
        secs: 0.5,
        ..config
    })
    .expect("soak seed 43");
    assert_ne!(first.schedule, other.schedule);
}
