//! End-to-end tests for the service: TCP protocol round-trips, cache
//! behavior under concurrency, worker-count determinism, and overload
//! shedding. Uses the debug-build-sized workload subset
//! (`bzip2`, `gzip`) like the bench crate's determinism test; the CI
//! smoke job exercises the full Figure 9 grid in release via
//! `loadgen --verify-fig09`.

use polyflow_serve::json;
use polyflow_serve::protocol::{ok_response, parse_request, Request};
use polyflow_serve::{Server, Service, ServiceConfig, Ticket};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A generous budget every test cell completes within (the point is the
/// protocol, not the watchdog).
const BUDGET: u64 = 1_000_000_000;

fn test_config() -> ServiceConfig {
    ServiceConfig {
        jobs: 2,
        queue_capacity: 32,
        default_max_cycles: BUDGET,
        cache_capacity: 64,
        ..ServiceConfig::default()
    }
}

fn sim_line(workload: &str, policy: &str) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"policy\":\"{policy}\",\
         \"config\":{{\"max_cycles\":{BUDGET}}}}}"
    )
}

/// An upload that holds a worker: preparing its 2M-instruction trace
/// takes about 0.2 s in release. Its one-cycle budget then fails the
/// simulation at once, so the preparation is all it costs.
fn slow_upload_line() -> String {
    let asm = "; window: 3_000_000\n.program spin\nfn main {\n    li r1, 0\n    \
               li r2, 1000000\nloop:\n    addi r1, r1, 1\n    blt r1, r2, loop\n    halt\n}\n";
    format!(
        "{{\"program\":\"{}\",\"config\":{{\"max_cycles\":1}}}}",
        json::escape(asm)
    )
}

/// Sends `line` on a fresh connection from another thread; the handle
/// yields the reply.
fn spawn_exchange(addr: std::net::SocketAddr, line: String) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let writer = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(writer.try_clone().expect("clone"));
        let mut w = writer;
        w.write_all(format!("{line}\n").as_bytes()).expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply
    })
}

/// Blocks until the server's one worker has picked up a cell (the slow
/// upload sent just before).
fn wait_until_worker_busy(server: &Server) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.service().stats().batches == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "slow upload never reached the worker"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn sim_request(line: &str) -> polyflow_serve::SimRequest {
    match parse_request(line, BUDGET).expect("valid request") {
        Request::Simulate(r) => *r,
        _ => panic!("not a simulate request"),
    }
}

/// What an offline caller computes for the same request line: the
/// byte-level ground truth for every served response.
fn offline_expected(line: &str) -> String {
    let req = sim_request(line);
    let workload = match &req.source {
        polyflow_serve::SimSource::Bundled(name) => {
            polyflow_workloads::by_name(name).expect("bundled workload")
        }
        polyflow_serve::SimSource::Uploaded(w) => (**w).clone(),
    };
    let prepared = polyflow_bench::PreparedWorkload::prepare(workload);
    let mut scratch = polyflow_sim::SimScratch::default();
    let result =
        polyflow_bench::sweep::run_cell_with_config(&prepared, req.cell, &req.config, &mut scratch)
            .expect("test cell simulates cleanly");
    ok_response(
        req.workload_label(),
        &req.policy_label(),
        &json::compact(&result.to_json()),
    )
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let writer = TcpStream::connect(server.addr()).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Client { writer, reader }
    }

    fn exchange(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read response");
        assert!(reply.ends_with('\n'), "responses are newline-framed");
        reply.trim_end_matches('\n').to_string()
    }
}

fn error_kind(reply: &str) -> String {
    let v = json::parse(reply).expect("error response parses");
    assert_eq!(v.get("ok").and_then(json::Json::as_bool), Some(false));
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(json::Json::as_str)
        .expect("error.kind present")
        .to_string()
}

#[test]
fn tcp_protocol_round_trips() {
    let mut server = Server::spawn("127.0.0.1:0", test_config()).expect("bind");
    let mut c = Client::connect(&server);

    assert_eq!(c.exchange("ping"), "{\"ok\":true,\"pong\":true}");

    // Typed errors, all on the same connection — a protocol mistake
    // never costs the client its connection.
    assert_eq!(
        error_kind(&c.exchange("definitely not json")),
        "bad_request"
    );
    assert_eq!(
        error_kind(&c.exchange("{\"workload\":\"eon\"}")),
        "unknown_workload"
    );
    assert_eq!(
        error_kind(&c.exchange("{\"workload\":\"gzip\",\"policy\":\"warp\"}")),
        "unknown_policy"
    );
    assert_eq!(
        error_kind(&c.exchange("{\"workload\":\"gzip\",\"config\":{\"width\":4}}")),
        "bad_request"
    );

    // A real simulation, served and byte-checked against offline.
    let line = sim_line("bzip2", "baseline");
    let served = c.exchange(&line);
    assert_eq!(served, offline_expected(&line));

    // Same request again: a cache hit, and the very same bytes.
    let again = c.exchange(&line);
    assert_eq!(served, again);
    let stats = json::parse(&c.exchange("stats")).expect("stats parse");
    let cache = stats.get("stats").unwrap().get("cache").unwrap();
    assert!(cache.get("hits").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(
        stats
            .get("stats")
            .unwrap()
            .get("account")
            .unwrap()
            .get("cells")
            .unwrap()
            .as_u64(),
        Some(1),
        "one unique cell simulated"
    );

    // Graceful shutdown by verb: acknowledged, then drained.
    assert_eq!(c.exchange("shutdown"), "{\"ok\":true,\"draining\":true}");
    server.shutdown();
    let s = server.service().stats();
    assert_eq!(s.queue_depth, 0, "drain leaves nothing queued");
}

#[test]
fn concurrent_clients_same_key_get_identical_bytes() {
    let server = Server::spawn("127.0.0.1:0", test_config()).expect("bind");
    let line = sim_line("gzip", "postdoms");
    let clients = 6;
    let mut handles = Vec::new();
    for _ in 0..clients {
        let addr = server.addr();
        let line = line.clone();
        handles.push(std::thread::spawn(move || {
            let writer = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(writer.try_clone().expect("clone"));
            let mut w = writer;
            w.write_all(format!("{line}\n").as_bytes()).expect("write");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read");
            reply.trim_end_matches('\n').to_string()
        }));
    }
    let replies: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &replies[1..] {
        assert_eq!(r, &replies[0], "every client sees the same bytes");
    }
    assert_eq!(replies[0], offline_expected(&line));

    // However the six requests landed (one deduplicated batch, several
    // batches with cache hits in between), only one simulation ran.
    let s = server.service().stats();
    assert_eq!(s.batched_cells, 1, "duplicates never re-simulate");
    assert_eq!(s.completed, clients as u64);
}

#[test]
fn batch_composition_and_worker_count_do_not_change_bytes() {
    let requests: Vec<String> = [
        ("bzip2", "baseline"),
        ("bzip2", "postdoms"),
        ("bzip2", "loop"),
        ("gzip", "baseline"),
        ("gzip", "postdoms"),
        ("gzip", "loop"),
    ]
    .iter()
    .map(|(w, p)| sim_line(w, p))
    .collect();

    // Serial: one at a time, one worker.
    let serial = Service::new(ServiceConfig {
        jobs: 1,
        ..test_config()
    });
    serial.start();
    let serial_replies: Vec<String> = requests
        .iter()
        .map(|l| {
            serial
                .submit(sim_request(l))
                .expect("cell simulates")
                .to_string()
        })
        .collect();
    serial.shutdown_and_join();

    // Concurrent: all six enqueued in reversed order before four workers
    // start, so the mixed-workload cells run side by side.
    let batched = Service::new(ServiceConfig {
        jobs: 4,
        ..test_config()
    });
    let tickets: Vec<(
        usize,
        std::sync::mpsc::Receiver<polyflow_serve::service::Reply>,
    )> = requests
        .iter()
        .enumerate()
        .rev()
        .map(|(i, l)| match batched.enqueue(sim_request(l)).unwrap() {
            Ticket::Admitted { rx, .. } => (i, rx),
            Ticket::Ready(_) => panic!("cold cache cannot be ready"),
        })
        .collect();
    batched.start();
    let mut batched_replies = vec![String::new(); requests.len()];
    for (i, rx) in tickets {
        batched_replies[i] = rx.recv().unwrap().expect("cell simulates").to_string();
    }
    batched.shutdown_and_join();

    assert_eq!(serial_replies, batched_replies);

    // And both equal the offline ground truth (spot-check two cells to
    // bound debug-build runtime; full-grid equality runs in release CI).
    assert_eq!(serial_replies[0], offline_expected(&requests[0]));
    assert_eq!(serial_replies[4], offline_expected(&requests[4]));
}

#[test]
fn burst_beyond_queue_capacity_is_shed_typed_not_hung() {
    // The one worker is busy with a slow upload, so the first request is
    // still queued when the second arrives; capacity 1 makes the second
    // the K+1-th.
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            jobs: 1,
            queue_capacity: 1,
            ..test_config()
        },
    )
    .expect("bind");

    let blocker = spawn_exchange(server.addr(), slow_upload_line());
    wait_until_worker_busy(&server);
    let first = spawn_exchange(server.addr(), sim_line("gzip", "baseline"));

    // Wait until the first request occupies the queue.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.service().stats().queue_depth == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "first request never reached the queue"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut c = Client::connect(&server);
    let reply = c.exchange(&sim_line("gzip", "postdoms"));
    assert_eq!(error_kind(&reply), "overloaded");
    assert_eq!(server.service().stats().shed, 1);

    // Drain: the queued request still completes behind the slow upload,
    // and the shed client got its answer above — nobody hangs.
    server.shutdown();
    let first_reply = first.join().unwrap();
    assert!(
        first_reply.starts_with("{\"ok\":true"),
        "queued request completed during drain: {first_reply}"
    );
    blocker.join().unwrap();
}

#[test]
fn cache_keys_are_collision_free_across_figure_configs() {
    use polyflow_serve::{CacheKey, ResultCache};
    use polyflow_sim::{DependenceMode, MachineConfig};

    // Every distinct configuration the figure binaries (9–12) can run:
    // the superscalar baseline, the PolyFlow machine, its dependence-mode
    // env variants, and ablation-style geometry tweaks.
    let mut configs: Vec<(String, MachineConfig)> = vec![
        ("superscalar".into(), MachineConfig::superscalar()),
        ("hpca07".into(), MachineConfig::hpca07()),
        (
            "store_sets".into(),
            MachineConfig {
                memory_dependence: DependenceMode::StoreSet,
                ..MachineConfig::hpca07()
            },
        ),
        (
            "reg_hints".into(),
            MachineConfig {
                register_dependence: DependenceMode::StoreSet,
                ..MachineConfig::hpca07()
            },
        ),
        (
            "tasks4".into(),
            MachineConfig {
                max_tasks: 4,
                ..MachineConfig::hpca07()
            },
        ),
        (
            "fetch1".into(),
            MachineConfig {
                fetch_tasks_per_cycle: 1,
                ..MachineConfig::hpca07()
            },
        ),
        (
            "no_divert_delay".into(),
            MachineConfig {
                divert_release_delay: 0,
                ..MachineConfig::hpca07()
            },
        ),
    ];
    for budget in [100_000u64, 200_000] {
        configs.push((
            format!("budget{budget}"),
            MachineConfig {
                max_cycles: budget,
                ..MachineConfig::hpca07()
            },
        ));
    }

    // Pairwise-distinct fingerprints …
    for (i, (na, a)) in configs.iter().enumerate() {
        for (nb, b) in configs.iter().skip(i + 1) {
            assert_ne!(
                a.fingerprint(),
                b.fingerprint(),
                "{na} and {nb} must not share a cache key"
            );
        }
    }

    // … and therefore distinct cache entries even under one workload and
    // policy.
    let cache = ResultCache::new(64);
    for (name, cfg) in &configs {
        cache.insert(
            CacheKey {
                workload: "twolf".into(),
                policy: "postdoms".into(),
                config: cfg.fingerprint(),
            },
            Arc::from(name.as_str()),
        );
    }
    for (name, cfg) in &configs {
        let got = cache
            .get(&CacheKey {
                workload: "twolf".into(),
                policy: "postdoms".into(),
                config: cfg.fingerprint(),
            })
            .expect("entry present");
        assert_eq!(&*got, name.as_str());
    }
}

/// The `verify` verb end to end: a clean workload report, cache-hit
/// replay of identical bytes (by name *and* by uploaded assembly — same
/// fingerprint, same entry), and typed rejection of a program that does
/// not assemble.
#[test]
fn verify_verb_round_trips_and_caches_by_fingerprint() {
    let mut server = Server::spawn("127.0.0.1:0", test_config()).expect("bind");
    let mut c = Client::connect(&server);

    let line = "{\"verb\":\"verify\",\"workload\":\"gzip\"}";
    let first = c.exchange(line);
    let v = json::parse(&first).expect("verify reply parses");
    assert_eq!(v.get("ok").and_then(json::Json::as_bool), Some(true));
    let body = v.get("verify").expect("verify body");
    assert_eq!(
        body.get("clean").and_then(json::Json::as_bool),
        Some(true),
        "bundled workloads lint clean: {first}"
    );
    let fp = body
        .get("fingerprint")
        .and_then(json::Json::as_str)
        .expect("fingerprint")
        .to_string();

    let hits_before = cache_hits(&mut c);
    // Repeat by name: identical bytes, served from the report cache.
    assert_eq!(c.exchange(line), first);
    // Upload the same program as assembly: same fingerprint, so the
    // cache answers with the very same line.
    let asm = polyflow_isa::to_asm(&polyflow_workloads::by_name("gzip").unwrap().program);
    let upload = format!(
        "{{\"verb\":\"verify\",\"program\":\"{}\"}}",
        json::escape(&asm)
    );
    let uploaded = c.exchange(&upload);
    assert_eq!(uploaded, first, "fingerprint {fp} shares one cache entry");
    assert!(
        cache_hits(&mut c) >= hits_before + 2,
        "both repeats hit the report cache"
    );

    // A program that does not assemble is the client's mistake: typed
    // bad_request, connection intact.
    let bad = "{\"verb\":\"verify\",\"program\":\"fn main { frobnicate r1 }\"}";
    assert_eq!(error_kind(&c.exchange(bad)), "bad_request");
    // Naming and uploading at once is also malformed.
    let both = format!(
        "{{\"verb\":\"verify\",\"workload\":\"gzip\",\"program\":\"{}\"}}",
        json::escape("fn main {\n  halt\n}")
    );
    assert_eq!(error_kind(&c.exchange(&both)), "bad_request");
    assert_eq!(
        c.exchange("ping"),
        "{\"ok\":true,\"pong\":true}",
        "rejections never cost the connection"
    );

    server.shutdown();
}

/// The simulate-upload differential: serving a workload by bundled name
/// and by uploading its canonical assembly must return byte-identical
/// response lines *and* share one cache entry — the fingerprint keying
/// makes name and content the same identity. The hit counter proves the
/// sharing; the insert counter proves the upload simulated nothing.
#[test]
fn simulate_upload_matches_bundled_by_name_and_shares_cache() {
    let mut server = Server::spawn("127.0.0.1:0", test_config()).expect("bind");
    let mut c = Client::connect(&server);

    let named_line = sim_line("twolf", "postdoms");
    let named = c.exchange(&named_line);
    assert!(named.starts_with("{\"ok\":true"), "{named}");
    assert!(named.contains("\"workload\":\"twolf\""), "{named}");

    let hits_before = cache_hits(&mut c);
    let inserts_before = cache_inserts(&mut c);
    let asm = polyflow_isa::to_asm(&polyflow_workloads::by_name("twolf").unwrap().program);
    let upload = format!(
        "{{\"program\":\"{}\",\"policy\":\"postdoms\",\
         \"config\":{{\"max_cycles\":{BUDGET}}}}}",
        json::escape(&asm)
    );
    let uploaded = c.exchange(&upload);
    assert_eq!(
        uploaded, named,
        "uploading the canonical assembly replays the bundled bytes"
    );
    assert!(
        cache_hits(&mut c) > hits_before,
        "the upload landed on the named request's cache entry"
    );
    assert_eq!(
        cache_inserts(&mut c),
        inserts_before,
        "the upload inserted nothing — one entry serves both"
    );

    // And the shared bytes are the offline ground truth for both forms.
    assert_eq!(named, offline_expected(&upload));

    server.shutdown();
}

/// An oversized request line gets a typed `bad_request` — and the
/// connection survives to serve the next, correctly sized request.
#[test]
fn oversized_line_is_rejected_typed_and_connection_survives() {
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            max_request_line: 256,
            ..test_config()
        },
    )
    .expect("bind");
    let mut c = Client::connect(&server);

    let huge = format!("{{\"workload\":\"{}\"}}", "x".repeat(4096));
    let reply = c.exchange(&huge);
    assert_eq!(error_kind(&reply), "bad_request");
    assert!(reply.contains("exceeds 256 bytes"), "{reply}");

    // The oversized line was discarded up to its newline; the connection
    // still works, including for real simulations.
    assert_eq!(c.exchange("ping"), "{\"ok\":true,\"pong\":true}");
    let line = sim_line("gzip", "baseline");
    assert_eq!(c.exchange(&line), offline_expected(&line));

    server.shutdown();
}

/// A request that asks for the integrity trailer gets one — over ok and
/// typed-error replies alike — and the cached bytes themselves stay
/// trailer-free (a plain request for the same cell sees unchanged
/// bytes).
#[test]
fn integrity_trailer_round_trips_over_the_wire() {
    use polyflow_serve::protocol::check_integrity_trailer;

    let mut server = Server::spawn("127.0.0.1:0", test_config()).expect("bind");
    let mut c = Client::connect(&server);

    let plain = sim_line("bzip2", "postdoms");
    let trailered = format!(
        "{{\"workload\":\"bzip2\",\"policy\":\"postdoms\",\
         \"config\":{{\"max_cycles\":{BUDGET}}},\"integrity\":true}}"
    );
    let with_trailer = c.exchange(&trailered);
    let (body, verified) = check_integrity_trailer(&with_trailer);
    assert_eq!(verified, Some(true), "trailer verifies: {with_trailer}");
    assert_eq!(body, offline_expected(&plain), "body is the offline bytes");

    // Same cell without the trailer: the untouched cached bytes.
    assert_eq!(c.exchange(&plain), body, "cache entry is trailer-free");

    // Typed errors are trailered too when asked.
    let bad = "{\"workload\":\"eon\",\"integrity\":true}";
    let err_reply = c.exchange(bad);
    let (err_body, err_verified) = check_integrity_trailer(&err_reply);
    assert_eq!(err_verified, Some(true));
    assert_eq!(error_kind(err_body), "unknown_workload");

    server.shutdown();
}

/// A wire request with a deadline too short for its queue wait gets a
/// typed `deadline_exceeded`, and the stats counter records it.
#[test]
fn wire_deadline_exceeded_is_typed_and_counted() {
    // The one worker is busy with a slow upload, which holds the request
    // in the queue well past its 25ms deadline.
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            jobs: 1,
            ..test_config()
        },
    )
    .expect("bind");
    let blocker = spawn_exchange(server.addr(), slow_upload_line());
    wait_until_worker_busy(&server);
    let mut c = Client::connect(&server);
    let line = format!(
        "{{\"workload\":\"gzip\",\"policy\":\"postdoms\",\
         \"config\":{{\"max_cycles\":{BUDGET}}},\"deadline_ms\":25}}"
    );
    let reply = c.exchange(&line);
    assert_eq!(error_kind(&reply), "deadline_exceeded");
    let stats = json::parse(&c.exchange("stats")).expect("stats parse");
    let requests = stats.get("stats").unwrap().get("requests").unwrap();
    assert!(requests.get("deadline_exceeded").unwrap().as_u64().unwrap() >= 1);
    server.shutdown();
    blocker.join().unwrap();
}

/// A hostile upload — a spin loop asking for a 400M-instruction window
/// — is refused at parse time with a typed `bad_request`, so a bundled
/// request sent alongside it, on the same single worker, still meets a
/// 2 s deadline.
#[test]
fn hostile_upload_window_is_rejected_and_spares_concurrent_requests() {
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            jobs: 1,
            ..test_config()
        },
    )
    .expect("bind");
    let spin = "; window: 400000000\nfn main {\nspin:\n    j spin\n}";
    let hostile = format!("{{\"program\":\"{}\"}}", json::escape(spin));
    let bundled = format!(
        "{{\"workload\":\"gzip\",\"policy\":\"superscalar\",\
         \"config\":{{\"max_cycles\":{BUDGET}}},\"deadline_ms\":2000}}"
    );
    // The hostile line goes out first; the bundled one follows on its
    // own connection without waiting for the hostile reply.
    let mut c = Client::connect(&server);
    c.writer
        .write_all(format!("{hostile}\n").as_bytes())
        .expect("write request");
    let bundled_reply = spawn_exchange(server.addr(), bundled.clone());
    let mut reply = String::new();
    c.reader.read_line(&mut reply).expect("read response");
    assert_eq!(error_kind(reply.trim_end()), "bad_request", "{reply}");
    assert!(reply.contains("window"), "{reply}");
    let reply = bundled_reply.join().unwrap();
    assert_eq!(reply.trim_end(), offline_expected(&bundled));
    let s = server.service().stats();
    assert_eq!(
        s.registry_prepared, 1,
        "the hostile upload was never prepared"
    );
    assert_eq!(s.deadline_exceeded, 0);
    server.shutdown();
}

/// The persistent tier end to end, in process: populate → drain →
/// reopen the same `cache_dir` → the warm service answers with the very
/// same bytes without simulating anything.
#[test]
fn warm_start_serves_identical_bytes_without_resimulating() {
    let dir = std::env::temp_dir().join(format!("polyflow-e2e-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..test_config()
    };

    let mut server = Server::spawn("127.0.0.1:0", config.clone()).expect("bind");
    let mut c = Client::connect(&server);
    let lines = [sim_line("bzip2", "baseline"), sim_line("gzip", "postdoms")];
    let cold: Vec<String> = lines.iter().map(|l| c.exchange(l)).collect();
    for (l, r) in lines.iter().zip(&cold) {
        assert_eq!(r, &offline_expected(l));
    }
    server.shutdown();
    drop(server);

    let mut server = Server::spawn("127.0.0.1:0", config).expect("bind");
    let mut c = Client::connect(&server);
    let warm: Vec<String> = lines.iter().map(|l| c.exchange(l)).collect();
    assert_eq!(warm, cold, "warm-start replies are byte-identical");

    let stats = json::parse(&c.exchange("stats")).expect("stats parse");
    let cache = stats.get("stats").unwrap().get("cache").unwrap();
    assert!(cache.get("warm_start").unwrap().as_u64().unwrap() >= 2);
    assert!(cache.get("journal_bytes").unwrap().as_u64().unwrap() > 0);
    let s = server.service().stats();
    assert_eq!(s.batched_cells, 0, "warm requests never re-simulate");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A peer that sends requests but never reads replies cannot wedge the
/// drain: the write watchdog forfeits the connection and `shutdown`
/// completes promptly.
#[test]
fn stuck_reader_cannot_wedge_the_drain() {
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            write_timeout: Duration::from_millis(300),
            ..test_config()
        },
    )
    .expect("bind");

    // Flood stats requests without ever reading a byte back: the
    // handler's replies fill the socket buffers until a write blocks.
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let req = "stats\n".repeat(512);
    for _ in 0..64 {
        if w.write_all(req.as_bytes()).is_err() {
            break; // handler already gave up on us — fine
        }
    }

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("drain must finish despite the stuck reader");
    drop(stream);
}

fn cache_inserts(c: &mut Client) -> u64 {
    let stats = json::parse(&c.exchange("stats")).expect("stats parse");
    stats
        .get("stats")
        .unwrap()
        .get("cache")
        .unwrap()
        .get("inserts")
        .unwrap()
        .as_u64()
        .unwrap()
}

fn cache_hits(c: &mut Client) -> u64 {
    let stats = json::parse(&c.exchange("stats")).expect("stats parse");
    stats
        .get("stats")
        .unwrap()
        .get("cache")
        .unwrap()
        .get("hits")
        .unwrap()
        .as_u64()
        .unwrap()
}
