//! End-to-end tests for the sharding router against real in-process
//! backends: byte-identity of routed replies vs a single server vs the
//! offline ground truth, failover with ejection when a backend dies
//! mid-run, stats aggregation, the drain-the-router-not-the-backends
//! shutdown verb, the machine-parseable `SERVE_ADDR=`/`ROUTER_ADDR=`
//! first stdout line of both binaries, and the relay itself: a 2.46 MB
//! reply byte for byte, pipelined replies in order, and a restarted
//! backend reached through the connection pool.

use polyflow_serve::json;
use polyflow_serve::protocol::{ok_response, parse_request, with_integrity_trailer, Request};
use polyflow_serve::router::{routing_key, Ring, Router, RouterConfig};
use polyflow_serve::{Server, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A generous budget every test cell completes within.
const BUDGET: u64 = 1_000_000_000;

fn backend_config() -> ServiceConfig {
    ServiceConfig {
        jobs: 2,
        queue_capacity: 32,
        default_max_cycles: BUDGET,
        cache_capacity: 64,
        ..ServiceConfig::default()
    }
}

/// A fast-reacting router policy over `backends` for tests.
fn router_config(backends: Vec<String>) -> RouterConfig {
    RouterConfig {
        check_interval: Duration::from_millis(50),
        io_timeout: Duration::from_secs(60),
        default_max_cycles: BUDGET,
        ..RouterConfig::new(backends)
    }
}

fn spawn_backends(n: usize) -> Vec<Server> {
    (0..n)
        .map(|_| Server::spawn("127.0.0.1:0", backend_config()).expect("bind backend"))
        .collect()
}

fn addrs(backends: &[Server]) -> Vec<String> {
    backends.iter().map(|b| b.addr().to_string()).collect()
}

fn exchange_at(addr: &str, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut w = stream.try_clone().expect("clone");
    w.write_all(format!("{line}\n").as_bytes()).expect("write");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read");
    assert!(reply.ends_with('\n'), "newline-framed reply: {reply:?}");
    reply.trim_end_matches('\n').to_string()
}

fn sim_line(workload: &str, policy: &str, budget: u64) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"policy\":\"{policy}\",\
         \"config\":{{\"max_cycles\":{budget}}}}}"
    )
}

/// The base key set: distinct `max_cycles` values are distinct cache
/// keys with identical results.
fn test_lines() -> Vec<String> {
    let mut lines = vec![
        sim_line("bzip2", "baseline", BUDGET),
        sim_line("bzip2", "postdoms", BUDGET),
        sim_line("gzip", "baseline", BUDGET),
        sim_line("gzip", "postdoms", BUDGET),
    ];
    for i in 1..=4u64 {
        lines.push(sim_line("gzip", "postdoms", BUDGET + i));
    }
    lines
}

/// [`test_lines`] plus, for each shard of a router over `backends` that
/// owns none of them, a `gzip`/`postdoms` budget variant the ring maps
/// to that shard — so every shard takes traffic whatever ports the
/// backends were given.
fn lines_covering_every_shard(backends: &[String]) -> Vec<String> {
    let ring = Ring::new(backends, router_config(backends.to_vec()).replicas);
    let alive = vec![true; backends.len()];
    let shard = |line: &str| {
        let req = parse_request(line, BUDGET).expect("test line parses");
        let key = routing_key(&req).expect("simulate lines have a key");
        ring.shard_of(&key, &alive).expect("a live shard")
    };
    let mut lines = test_lines();
    let mut owned = vec![false; backends.len()];
    for line in &lines {
        owned[shard(line)] = true;
    }
    let mut extra = 5u64;
    while owned.contains(&false) {
        let line = sim_line("gzip", "postdoms", BUDGET + extra);
        let s = shard(&line);
        if !owned[s] {
            owned[s] = true;
            lines.push(line);
        }
        extra += 1;
    }
    lines
}

/// The offline ground truth for a simulate line.
fn offline_expected(line: &str) -> String {
    let Ok(Request::Simulate(req)) = parse_request(line, BUDGET) else {
        panic!("not a simulate line: {line}");
    };
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

/// Served ≡ offline, at any shard count: the same request line answered
/// through a 2-shard router, a 3-shard router, and a lone server all
/// produce the same bytes as an offline run in this process.
#[test]
fn routed_replies_are_byte_identical_across_shard_counts() {
    let lone = Server::spawn("127.0.0.1:0", backend_config()).expect("bind");
    let lone_addr = lone.addr().to_string();

    for shard_count in [2usize, 3] {
        let backends = spawn_backends(shard_count);
        let lines = lines_covering_every_shard(&addrs(&backends));
        let expected: Vec<String> = lines.iter().map(|l| offline_expected(l)).collect();
        let mut router =
            Router::spawn("127.0.0.1:0", router_config(addrs(&backends))).expect("router");
        let router_addr = router.addr().to_string();
        for (line, want) in lines.iter().zip(&expected) {
            let via_router = exchange_at(&router_addr, line);
            assert_eq!(&via_router, want, "router({shard_count} shards) vs offline");
            // Second hit is a backend cache hit relayed verbatim.
            assert_eq!(exchange_at(&router_addr, line), via_router, "cached bytes");
            assert_eq!(&exchange_at(&lone_addr, line), want, "lone server");
        }
        // Every shard took some of the traffic (the lines were chosen
        // so that each shard owns at least one of them).
        let stats = json::parse(&exchange_at(&router_addr, "stats")).expect("stats parse");
        let router_obj = stats.get("router").expect("router stats object");
        let backends_arr = router_obj
            .get("backends")
            .and_then(json::Json::as_arr)
            .expect("backends array");
        assert_eq!(backends_arr.len(), shard_count);
        let forwarded: Vec<u64> = backends_arr
            .iter()
            .map(|b| b.get("forwarded").and_then(json::Json::as_u64).unwrap())
            .collect();
        assert!(
            forwarded.iter().all(|&f| f > 0),
            "every shard saw traffic: {forwarded:?}"
        );
        router.shutdown();
    }
}

/// The largest Figure 9 reply (mcf under postdoms, 2.46 MB) crosses the
/// router byte-identical to the offline rendering, cold and cached,
/// with and without an integrity trailer.
#[test]
fn largest_figure9_reply_relays_byte_identical() {
    let backends = spawn_backends(2);
    let mut router = Router::spawn("127.0.0.1:0", router_config(addrs(&backends))).expect("router");
    let router_addr = router.addr().to_string();
    let line = sim_line("mcf", "postdoms", BUDGET);
    let want = offline_expected(&line);
    assert!(
        want.len() > 2_400_000,
        "the 2.46 MB cell: {} bytes",
        want.len()
    );
    let with_integrity = format!(
        "{{\"workload\":\"mcf\",\"policy\":\"postdoms\",\"integrity\":true,\
         \"config\":{{\"max_cycles\":{BUDGET}}}}}"
    );
    assert_eq!(exchange_at(&router_addr, &line), want, "cold");
    assert_eq!(exchange_at(&router_addr, &line), want, "cached");
    assert_eq!(
        exchange_at(&router_addr, &with_integrity),
        with_integrity_trailer(&want),
        "with the integrity trailer"
    );
    router.shutdown();
}

/// Five requests pipelined on one client connection come back in
/// request order, whichever shard answers each and however long each
/// takes.
#[test]
fn pipelined_requests_come_back_in_request_order() {
    let backends = spawn_backends(2);
    let mut router = Router::spawn("127.0.0.1:0", router_config(addrs(&backends))).expect("router");
    let sims = [
        sim_line("gzip", "postdoms", BUDGET),
        sim_line("bzip2", "baseline", BUDGET),
        sim_line("gzip", "baseline", BUDGET),
    ];
    let lines = [
        sims[0].as_str(),
        "ping",
        sims[1].as_str(),
        "{\"workload\":",
        sims[2].as_str(),
    ];
    let stream = TcpStream::connect(router.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut w = stream.try_clone().expect("clone");
    w.write_all(format!("{}\n", lines.join("\n")).as_bytes())
        .expect("write all five at once");
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::new();
    for _ in &lines {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        replies.push(reply.trim_end_matches('\n').to_string());
    }
    assert_eq!(replies[0], offline_expected(&sims[0]));
    assert_eq!(replies[1], "{\"ok\":true,\"pong\":true}");
    assert_eq!(replies[2], offline_expected(&sims[1]));
    assert!(replies[3].starts_with("{\"ok\":false"), "{}", replies[3]);
    assert_eq!(replies[4], offline_expected(&sims[2]));
    router.shutdown();
}

/// A backend restarted on the same port leaves the router's pooled
/// socket to it stale: the next request retries once on a fresh
/// connect and succeeds, and nothing counts against the backend.
#[test]
fn restarted_backend_is_reached_on_a_fresh_connect_without_ejection() {
    let mut backend = Server::spawn("127.0.0.1:0", backend_config()).expect("bind backend");
    let addr = backend.addr().to_string();
    // One health check at start-up, then none: only the forward meets
    // the stale socket.
    let config = RouterConfig {
        check_interval: Duration::from_secs(3600),
        ..router_config(vec![addr.clone()])
    };
    let mut router = Router::spawn("127.0.0.1:0", config).expect("router");
    let router_addr = router.addr().to_string();
    let line = sim_line("gzip", "postdoms", BUDGET);
    let want = offline_expected(&line);
    assert_eq!(exchange_at(&router_addr, &line), want, "before the restart");

    backend.shutdown();
    drop(backend);
    let _backend = Server::spawn(&addr, backend_config()).expect("rebind the same port");
    assert_eq!(exchange_at(&router_addr, &line), want, "after the restart");

    let stats = json::parse(&exchange_at(&router_addr, "stats")).expect("stats parse");
    let router_obj = stats.get("router").expect("router object");
    let shard = &router_obj
        .get("backends")
        .and_then(json::Json::as_arr)
        .expect("backends array")[0];
    assert_eq!(
        shard.get("healthy").and_then(json::Json::as_bool),
        Some(true)
    );
    assert_eq!(shard.get("failures").and_then(json::Json::as_u64), Some(0));
    assert_eq!(router.core().ejections(), 0);
    let connects = router_obj
        .get("backend_connects")
        .and_then(json::Json::as_u64)
        .expect("backend_connects counter");
    assert!(connects >= 2, "a fresh connect reached the new process");
    let accepted = router_obj
        .get("transport")
        .and_then(|t| t.get("accepted"))
        .and_then(json::Json::as_u64)
        .expect("the reactor's transport object");
    assert_eq!(accepted, 3, "three client connections so far");
    router.shutdown();
}

/// Kill one of two backends mid-run: every request still answers with
/// the right bytes via failover, and the router ejects the dead shard.
#[test]
fn backend_death_mid_run_fails_over_without_wrong_answers() {
    let lines = test_lines();
    let mut backends = spawn_backends(2);
    let mut router = Router::spawn("127.0.0.1:0", router_config(addrs(&backends))).expect("router");
    let router_addr = router.addr().to_string();

    // Warm every key through the router, recording the accepted bytes.
    let before: Vec<String> = lines.iter().map(|l| exchange_at(&router_addr, l)).collect();
    for r in &before {
        assert!(r.starts_with("{\"ok\":true"), "{r}");
    }

    // Take down one backend (its listener closes with it).
    let mut victim = backends.pop().expect("second backend");
    victim.shutdown();
    drop(victim);

    // Every key — including those the dead shard owned — must answer
    // with the same bytes as before the kill, via failover to the
    // survivor (which recomputes cells it never cached; determinism
    // makes that indistinguishable on the wire).
    for (line, want) in lines.iter().zip(&before) {
        assert_eq!(&exchange_at(&router_addr, line), want, "failover bytes");
    }

    // The ejection must be observable: forwarding failures (or the
    // health checker) mark the dead backend down.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if router.core().ejections() >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "ejection never recorded");
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = json::parse(&exchange_at(&router_addr, "stats")).expect("stats parse");
    let backends_arr = stats
        .get("router")
        .and_then(|r| r.get("backends"))
        .and_then(json::Json::as_arr)
        .expect("backends array");
    let healthy: Vec<bool> = backends_arr
        .iter()
        .map(|b| b.get("healthy").and_then(json::Json::as_bool).unwrap())
        .collect();
    assert_eq!(healthy, vec![true, false], "dead shard marked unhealthy");
    // The survivor owns the whole ring while its peer is out.
    let ownership: Vec<u64> = backends_arr
        .iter()
        .map(|b| {
            b.get("ownership_permille")
                .and_then(json::Json::as_u64)
                .unwrap()
        })
        .collect();
    assert_eq!(ownership[1], 0, "ejected shard owns nothing");
    assert!(
        ownership[0] >= 1000,
        "survivor owns the ring: {ownership:?}"
    );
    router.shutdown();
}

/// The router's `stats` verb aggregates per-backend health, ownership,
/// spliced backend stats, and cross-backend totals.
#[test]
fn router_stats_aggregate_health_ownership_and_backend_counters() {
    let backends = spawn_backends(2);
    let mut router = Router::spawn("127.0.0.1:0", router_config(addrs(&backends))).expect("router");
    let router_addr = router.addr().to_string();

    let line = sim_line("gzip", "postdoms", BUDGET);
    let first = exchange_at(&router_addr, &line);
    assert!(first.starts_with("{\"ok\":true"), "{first}");
    let again = exchange_at(&router_addr, &line);
    assert_eq!(again, first);

    let stats = json::parse(&exchange_at(&router_addr, "stats")).expect("stats parse");
    let router_obj = stats.get("router").expect("router object");
    assert!(
        router_obj
            .get("requests")
            .and_then(json::Json::as_u64)
            .unwrap()
            >= 3
    );
    let backends_arr = router_obj
        .get("backends")
        .and_then(json::Json::as_arr)
        .expect("backends array");
    let mut ownership_total = 0u64;
    for b in backends_arr {
        assert_eq!(b.get("healthy").and_then(json::Json::as_bool), Some(true));
        ownership_total += b
            .get("ownership_permille")
            .and_then(json::Json::as_u64)
            .unwrap();
        // Each live backend's own stats are spliced in whole.
        let inner = b.get("stats").expect("spliced backend stats");
        assert!(
            inner.get("cache").is_some(),
            "backend stats carry cache counters"
        );
    }
    assert!(
        (998..=1002).contains(&ownership_total),
        "ring ownership sums to ~1000 permille, got {ownership_total}"
    );
    let totals = router_obj.get("totals").expect("totals object");
    assert!(
        totals
            .get("cache_hits")
            .and_then(json::Json::as_u64)
            .unwrap()
            >= 1,
        "the repeat hit shows up in the cross-backend totals"
    );
    router.shutdown();
}

/// The `shutdown` verb drains the router, not the backends.
#[test]
fn shutdown_verb_drains_router_but_not_backends() {
    let backends = spawn_backends(2);
    let mut router = Router::spawn("127.0.0.1:0", router_config(addrs(&backends))).expect("router");
    let router_addr = router.addr().to_string();

    let reply = exchange_at(&router_addr, "shutdown");
    assert_eq!(reply, "{\"ok\":true,\"draining\":true}");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !router.draining() {
        assert!(Instant::now() < deadline, "router never began draining");
        std::thread::sleep(Duration::from_millis(10));
    }
    router.shutdown();

    // Both backends answer directly, untouched by the router's drain.
    for b in &backends {
        assert_eq!(
            exchange_at(&b.addr().to_string(), "ping"),
            "{\"ok\":true,\"pong\":true}"
        );
    }
}

/// Pin for the machine-parseable bound-address line: the first stdout
/// line of `serve --addr host:0` is `SERVE_ADDR=<addr>` and the
/// address in it answers pings; same for `router` and `ROUTER_ADDR=`.
#[test]
fn bound_address_is_the_first_stdout_line_of_both_binaries() {
    use std::process::{Command, Stdio};

    let mut serve = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut serve_stdout = BufReader::new(serve.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    serve_stdout.read_line(&mut first).expect("read stdout");
    let serve_addr = first
        .trim_end()
        .strip_prefix("SERVE_ADDR=")
        .unwrap_or_else(|| panic!("first stdout line must be SERVE_ADDR=<addr>, got {first:?}"))
        .to_string();
    assert_eq!(
        exchange_at(&serve_addr, "ping"),
        "{\"ok\":true,\"pong\":true}",
        "the printed address is live"
    );

    let mut router = Command::new(env!("CARGO_BIN_EXE_router"))
        .args(["--addr", "127.0.0.1:0", "--backends", &serve_addr])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn router");
    let mut router_stdout = BufReader::new(router.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    router_stdout.read_line(&mut first).expect("read stdout");
    let router_addr = first
        .trim_end()
        .strip_prefix("ROUTER_ADDR=")
        .unwrap_or_else(|| panic!("first stdout line must be ROUTER_ADDR=<addr>, got {first:?}"))
        .to_string();
    assert_eq!(
        exchange_at(&router_addr, "ping"),
        "{\"ok\":true,\"pong\":true}",
        "the printed router address is live"
    );

    router.kill().expect("kill router");
    let _ = router.wait();
    serve.kill().expect("kill serve");
    let _ = serve.wait();
}
