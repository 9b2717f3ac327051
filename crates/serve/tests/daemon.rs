//! End-to-end tests against a real daemon: every request here crosses a
//! TCP socket and the full accept → queue → worker → router path.

use perpetuum_online::{TelemetryBatch, TelemetryRecord};
use perpetuum_serve::{start, wire, FsyncPolicy, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

/// A parsed wire response: status code, headers (lowercased names), body.
struct Wire {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Wire {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Sends raw bytes, reads to EOF (every response closes the connection),
/// and splits the head from the body.
fn raw_request(addr: SocketAddr, raw: &[u8]) -> Wire {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    read_response(&mut stream)
}

fn read_response(stream: &mut TcpStream) -> Wire {
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable status line {status_line:?}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Wire { status, headers, body: body.to_string() }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Wire {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    raw_request(addr, raw.as_bytes())
}

fn get(addr: SocketAddr, path: &str) -> Wire {
    raw_request(addr, format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
}

/// POSTs a binary body (`Content-Type`/`Accept:` the perpetuum wire
/// type) and returns `(status, raw body bytes)` — binary responses are
/// not UTF-8, so the text helpers don't apply.
fn post_binary(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-type: {ct}\r\naccept: {ct}\r\ncontent-length: {}\r\n\r\n",
        body.len(),
        ct = wire::CONTENT_TYPE,
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("head/body split");
    let head = String::from_utf8_lossy(&raw[..split]);
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, raw[split + 4..].to_vec())
}

fn delete(addr: SocketAddr, path: &str) -> Wire {
    raw_request(addr, format!("DELETE {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
}

/// Pulls a top-level numeric field out of a JSON response body.
fn num_field(body: &str, key: &str) -> f64 {
    let v = serde_json::parse_value(body).expect("valid JSON body");
    match v.get(key) {
        Some(serde_json::Value::Num(n)) => *n,
        other => panic!("no numeric `{key}` in {body}: {other:?}"),
    }
}

/// Pulls the `assigned_cycles` array out of a `GET /session/{id}/plan`
/// body.
fn assigned_cycles(body: &str) -> Vec<f64> {
    let v = serde_json::parse_value(body).expect("valid JSON body");
    match v.get("assigned_cycles") {
        Some(serde_json::Value::Arr(items)) => items
            .iter()
            .map(|x| match x {
                serde_json::Value::Num(n) => *n,
                other => panic!("non-numeric cycle {other:?}"),
            })
            .collect(),
        other => panic!("no assigned_cycles in {body}: {other:?}"),
    }
}

fn scenario_body(seed: u64) -> String {
    format!(
        r#"{{"scenario": {{
            "field_size": 500.0, "n": 15, "q": 2,
            "tau_min": 1.0, "tau_max": 20.0,
            "dist": {{ "Linear": {{ "sigma": 2.0 }} }},
            "horizon": 60.0, "slot": 10.0,
            "variable": false, "deployment": "Uniform"
        }}, "seed": {seed}}}"#
    )
}

/// Spin until `probe` is true or the deadline passes.
fn wait_for(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn plan_cache_round_trip_is_byte_identical_over_the_wire() {
    let handle = start(ServerConfig::default()).expect("start");
    let addr = handle.addr;
    let body = scenario_body(11);

    let first = post(addr, "/plan", &body);
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(first.body.starts_with("{\"cache_hit\":false,"), "{}", first.body);

    // Same scenario, different key order and whitespace: still a hit.
    let reordered = r#"{ "seed": 11, "scenario": {"deployment":"Uniform","variable":false,"slot":10.0,"horizon":60.0,"dist":{"Linear":{"sigma":2.0}},"tau_max":20.0,"tau_min":1.0,"q":2,"n":15,"field_size":500.0} }"#;
    let second = post(addr, "/plan", reordered);
    assert_eq!(second.status, 200, "{}", second.body);
    assert!(second.body.starts_with("{\"cache_hit\":true,"), "{}", second.body);

    let result_of = |w: &Wire| w.body.split_once("\"result\":").map(|(_, r)| r.to_string());
    assert_eq!(result_of(&first), result_of(&second), "byte-identical schedule");

    let metrics = handle.state();
    assert_eq!(metrics.metrics.cache_hits.load(Relaxed), 1);
    assert_eq!(metrics.metrics.cache_misses.load(Relaxed), 1);
    handle.shutdown();
}

#[test]
fn simulate_with_faults_over_the_wire() {
    let handle = start(ServerConfig::default()).expect("start");
    let body = scenario_body(3).replace(
        "\"seed\": 3",
        r#""seed": 3, "algo": "Mtd", "faults": {"chargers": {"mtbf": 10.0, "mttr": 20.0}, "seed": 5}"#,
    );
    let resp = post(handle.addr, "/simulate", &body);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"algo\":\"Mtd\""), "{}", resp.body);
    assert!(resp.body.contains("\"breakdowns\":"), "{}", resp.body);
    handle.shutdown();
}

#[test]
fn healthz_metrics_and_routing_errors() {
    let handle = start(ServerConfig::default()).expect("start");
    let addr = handle.addr;

    assert_eq!(get(addr, "/healthz").status, 200);
    let _ = post(addr, "/plan", &scenario_body(1));
    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    for family in [
        "perpetuum_requests_total{endpoint=\"plan\"} 1",
        "perpetuum_cache_misses_total 1",
        "perpetuum_request_seconds_bucket",
        "perpetuum_responses_total{class=\"2xx\"}",
        "perpetuum_queue_depth 0",
    ] {
        assert!(metrics.body.contains(family), "missing {family:?}:\n{}", metrics.body);
    }

    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(get(addr, "/plan").status, 405);
    assert_eq!(post(addr, "/healthz", "").status, 405);
    handle.shutdown();
}

#[test]
fn malformed_wire_inputs_get_typed_errors_never_panics() {
    let handle = start(ServerConfig { max_body: 1024, ..ServerConfig::default() }).expect("start");
    let addr = handle.addr;

    // Invalid JSON body.
    let resp = post(addr, "/plan", "{not json");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("\"kind\":\"bad_json\""), "{}", resp.body);

    // Valid JSON, invalid scenario.
    let resp = post(addr, "/plan", &scenario_body(1).replace("\"q\": 2", "\"q\": 0"));
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("\"kind\":\"invalid_scenario\""), "{}", resp.body);

    // Truncated body: Content-Length promises more than is sent.
    let resp = raw_request(
        addr,
        b"POST /plan HTTP/1.1\r\nhost: t\r\ncontent-length: 500\r\n\r\n{\"scenario\"",
    );
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("truncated"), "{}", resp.body);

    // Unparsable Content-Length.
    let resp =
        raw_request(addr, b"POST /plan HTTP/1.1\r\nhost: t\r\ncontent-length: banana\r\n\r\n");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("Content-Length"), "{}", resp.body);

    // Declared body over the cap: 413 with Retry-After, body never read.
    let resp =
        raw_request(addr, b"POST /plan HTTP/1.1\r\nhost: t\r\ncontent-length: 999999\r\n\r\n");
    assert_eq!(resp.status, 413);
    assert!(resp.body.contains("\"kind\":\"payload_too_large\""), "{}", resp.body);
    assert_eq!(resp.header("retry-after"), Some("1"));

    // The daemon is still healthy after all of that.
    assert_eq!(get(addr, "/healthz").status, 200);
    handle.shutdown();
}

#[test]
fn full_queue_sheds_load_with_503_and_retry_after() {
    // One worker, one queue slot: occupy both, then overflow.
    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr;
    let m = handle.state_arc();

    // c1 occupies the worker: it connects but sends nothing, so the
    // worker blocks in read_request until the 2s socket timeout.
    let c1 = TcpStream::connect(addr).expect("c1");
    wait_for("worker to pick up c1", || m.metrics.in_flight.load(Relaxed) == 1);

    // c2 fills the single queue slot.
    let c2 = TcpStream::connect(addr).expect("c2");
    wait_for("c2 to be queued", || m.metrics.queue_depth.load(Relaxed) == 1);

    // c3 overflows: the accept thread itself must shed it.
    let mut c3 = TcpStream::connect(addr).expect("c3");
    let resp = read_response(&mut c3);
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(resp.body.contains("\"kind\":\"overloaded\""), "{}", resp.body);
    assert!(m.metrics.queue_rejected.load(Relaxed) >= 1);

    drop(c1);
    drop(c2);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let handle = start(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr;
    let admin = handle.admin_addr;
    let m = handle.state_arc();

    // Open a request and send only half of it, so it is mid-flight when
    // shutdown arrives.
    let body = scenario_body(21);
    let raw =
        format!("POST /plan HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}", body.len());
    let (half, rest) = raw.split_at(raw.len() / 2);
    let mut c1 = TcpStream::connect(addr).expect("c1");
    c1.write_all(half.as_bytes()).expect("first half");
    wait_for("worker to pick up c1", || m.metrics.in_flight.load(Relaxed) == 1);

    // Trigger shutdown through the loopback admin endpoint.
    let resp = raw_request(admin, b"POST /shutdown HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("shutting down"), "{}", resp.body);

    // The in-flight request must still complete — full response, no reset.
    c1.write_all(rest.as_bytes()).expect("second half");
    c1.shutdown(Shutdown::Write).expect("half-close");
    let resp = read_response(&mut c1);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"service_cost\":"), "{}", resp.body);

    // wait() returns because the admin endpoint latched the signal; new
    // connections are refused after the drain.
    handle.wait();
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err());
}

#[test]
fn session_lifecycle_over_the_wire() {
    let handle = start(ServerConfig::default()).expect("start");
    let addr = handle.addr;

    // Create: scenario in, session id + initial plan summary out.
    let created = post(addr, "/session", &scenario_body(13));
    assert_eq!(created.status, 200, "{}", created.body);
    let id = num_field(&created.body, "session") as u64;
    assert!(num_field(&created.body, "tau1") > 0.0, "{}", created.body);

    // A telemetry batch that changes nothing is planner-free.
    let r = post(addr, &format!("/session/{id}/telemetry"), r#"{"time": 0.5}"#);
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"replan\":\"none\""), "{}", r.body);
    assert_eq!(num_field(&r.body, "planner_calls"), 0.0, "{}", r.body);

    // The plan endpoint serves the live schedule.
    let plan = get(addr, &format!("/session/{id}/plan"));
    assert_eq!(plan.status, 200, "{}", plan.body);
    let assigned = assigned_cycles(&plan.body);
    assert!(!assigned.is_empty());

    // Pick a slow sensor whose class drop keeps the top class inhabited,
    // then report a rate that lands it in class 0 without undercutting τ₁
    // (capacities are 1.0 in realised scenarios): the replan must resolve
    // on the incremental forest-splice path.
    let tau1 = num_field(&created.body, "tau1");
    let class_of = |tau: f64| (tau / tau1).log2().round() as u32;
    let top = assigned.iter().map(|&a| class_of(a)).max().expect("classes");
    let top_count = assigned.iter().filter(|&&a| class_of(a) == top).count();
    let migrant = assigned
        .iter()
        .position(|&a| class_of(a) >= 1 && (class_of(a) < top || top_count > 1))
        .expect("a sensor that can drop a class");
    let body = format!(
        r#"{{"time": 1.0, "records": [{{"sensor": {migrant}, "rate": {}}}]}}"#,
        1.0 / (1.5 * tau1)
    );
    let r = post(addr, &format!("/session/{id}/telemetry"), &body);
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"replan\":\"incremental\""), "{}", r.body);

    // The scrape sees the live session, the session endpoint family, and
    // the per-path replan counters/latency histograms.
    let metrics = get(addr, "/metrics");
    for family in [
        "perpetuum_sessions 1",
        "perpetuum_session_evictions_total 0",
        "perpetuum_cache_evictions_total 0",
        "perpetuum_requests_total{endpoint=\"session\"}",
        "perpetuum_session_replans_total{kind=\"none\"} 1",
        "perpetuum_session_replans_total{kind=\"incremental\"} 1",
        "perpetuum_session_replans_total{kind=\"full\"} 0",
        "perpetuum_planner_seconds_count{path=\"none\"} 1",
        "perpetuum_planner_seconds_bucket{path=\"none\",le=\"+Inf\"} 1",
        "perpetuum_planner_seconds_count{path=\"incremental\"} 1",
        "perpetuum_planner_seconds_count{path=\"full\"} 0",
        "perpetuum_planner_seconds_bucket{path=\"incremental\",le=\"+Inf\"} 1",
    ] {
        assert!(metrics.body.contains(family), "missing {family:?}:\n{}", metrics.body);
    }
    // The planner-free ingest's latency is metered too, not dropped.
    let none_sum = metrics
        .body
        .lines()
        .find_map(|l| l.strip_prefix("perpetuum_planner_seconds_sum{path=\"none\"} "))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("none-path latency sum");
    assert!(none_sum > 0.0, "planner-free ingest metered as {none_sum} s");

    // Delete, then every session route 404s and the gauge drops to zero.
    assert_eq!(delete(addr, &format!("/session/{id}")).status, 200);
    assert_eq!(get(addr, &format!("/session/{id}/plan")).status, 404);
    assert_eq!(delete(addr, &format!("/session/{id}")).status, 404);
    assert!(get(addr, "/metrics").body.contains("perpetuum_sessions 0"));
    handle.shutdown();
}

#[test]
fn suppressed_events_over_the_wire_update_suppression_metrics() {
    let handle = start(ServerConfig::default()).expect("start");
    let addr = handle.addr;
    let created = post(addr, "/session", &scenario_body(21));
    assert_eq!(created.status, 200, "{}", created.body);
    let id = num_field(&created.body, "session") as u64;
    let tau1 = num_field(&created.body, "tau1");
    let assigned = assigned_cycles(&get(addr, &format!("/session/{id}/plan")).body);

    // An empty events batch is a pure clock tick carrying suppression
    // deltas: 10 client observations, 1 frame actually sent.
    let r = post(
        addr,
        &format!("/session/{id}/events"),
        r#"{"time": 0.5, "events": [], "observed": 10, "sent": 1}"#,
    );
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"replan\":\"none\""), "{}", r.body);

    // An in-band event for sensor 0 (τ̂ inside [assigned, 2·assigned))
    // is adopted without a replan.
    let in_band = 1.0 / (1.5 * assigned[0]);
    let r = post(
        addr,
        &format!("/session/{id}/events"),
        &format!(
            r#"{{"time": 1.0, "events": [{{"sensor": 0, "rho_hat": {in_band}, "last_rate": {in_band}, "level": 0.9}}], "observed": 5, "sent": 1}}"#
        ),
    );
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(num_field(&r.body, "planner_calls"), 0.0, "{}", r.body);

    // A rate fast enough to undercut τ₁ demands a full replan: the
    // non-sync batch is refused with 409 and mutates nothing...
    let fast = 2.0 / tau1;
    let body = format!(
        r#"{{"time": 2.0, "events": [{{"sensor": 0, "rho_hat": {fast}, "last_rate": {fast}, "level": 0.5}}]}}"#
    );
    let r = post(addr, &format!("/session/{id}/events"), &body);
    assert_eq!(r.status, 409, "{}", r.body);
    assert!(r.body.contains("sync_required"), "{}", r.body);

    // ...and the sync retry carrying every sensor's state is accepted.
    let events: Vec<String> = assigned
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let rho = if i == 0 { fast } else { 1.0 / (1.5 * a) };
            format!(r#"{{"sensor": {i}, "rho_hat": {rho}, "last_rate": {rho}, "level": 1.0}}"#)
        })
        .collect();
    let sync = format!(r#"{{"time": 2.0, "sync": true, "events": [{}]}}"#, events.join(","));
    let r = post(addr, &format!("/session/{id}/events"), &sync);
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"replan\":\"full\""), "{}", r.body);

    // The scrape shows the accepted batches (the 409 is not counted) and
    // the suppression ratio 1 - 2/15 from the delta counters.
    let metrics = get(addr, "/metrics");
    for family in [
        "perpetuum_events_ingested_total 3",
        "perpetuum_client_frames_observed_total 15",
        "perpetuum_client_frames_sent_total 2",
        "perpetuum_frames_suppressed_ratio 0.8666666666666667",
    ] {
        assert!(metrics.body.contains(family), "missing {family:?}:\n{}", metrics.body);
    }
    handle.shutdown();
}

#[test]
fn session_eviction_shows_up_in_the_scrape() {
    // One shard: with capacity split across shards, a single-slot store
    // needs a single shard for exact LRU semantics.
    let handle =
        start(ServerConfig { session_capacity: 1, session_shards: 1, ..ServerConfig::default() })
            .expect("start");
    let addr = handle.addr;

    let first = post(addr, "/session", &scenario_body(1));
    assert_eq!(first.status, 200, "{}", first.body);
    let first_id = num_field(&first.body, "session") as u64;
    let second = post(addr, "/session", &scenario_body(2));
    assert_eq!(second.status, 200, "{}", second.body);

    // The store held one slot: creating the second evicted the first.
    assert_eq!(get(addr, &format!("/session/{first_id}/plan")).status, 404);
    let metrics = get(addr, "/metrics");
    assert!(metrics.body.contains("perpetuum_sessions 1"), "{}", metrics.body);
    assert!(metrics.body.contains("perpetuum_session_evictions_total 1"), "{}", metrics.body);
    handle.shutdown();
}

#[test]
fn concurrent_telemetry_from_four_clients_loses_no_updates() {
    let handle = start(ServerConfig::default()).expect("start");
    let addr = handle.addr;

    let created = post(addr, "/session", &scenario_body(17));
    assert_eq!(created.status, 200, "{}", created.body);
    let id = num_field(&created.body, "session") as u64;
    let before = assigned_cycles(&get(addr, &format!("/session/{id}/plan")).body);

    // Four clients, one sensor each, hammer the same session with rate
    // reports 8× the planned consumption — every sensor's rounding class
    // must drop. All batches carry the same timestamp (monotonicity
    // accepts equal times), so interleaving order is irrelevant.
    let threads: Vec<_> = (0..4)
        .map(|sensor| {
            let new_rate = 8.0 / before[sensor];
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let body = format!(
                        r#"{{"time": 1.0, "records": [{{"sensor": {sensor}, "rate": {new_rate}}}]}}"#
                    );
                    let r = post(addr, &format!("/session/{id}/telemetry"), &body);
                    assert_eq!(r.status, 200, "{}", r.body);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread must not panic");
    }

    // Every client's update took effect: all four sensors were re-assigned
    // strictly tighter cycles, and nothing was served a 5xx.
    let after = assigned_cycles(&get(addr, &format!("/session/{id}/plan")).body);
    for sensor in 0..4 {
        assert!(
            after[sensor] < before[sensor],
            "sensor {sensor}: {} -> {} (update lost?)",
            before[sensor],
            after[sensor]
        );
    }
    let m = handle.state();
    assert_eq!(m.metrics.responses[2].load(Relaxed), 0, "no 5xx under concurrent ingest");
    assert!(m.metrics.session.requests.load(Relaxed) >= 21);
    handle.shutdown();
}

#[test]
fn binary_batch_ingest_over_the_wire() {
    let handle =
        start(ServerConfig { session_shards: 4, session_threads: 2, ..ServerConfig::default() })
            .expect("start");
    let addr = handle.addr;

    // Three live sessions created over the JSON path.
    let ids: Vec<u64> = (0..3)
        .map(|i| {
            let created = post(addr, "/session", &scenario_body(30 + i));
            assert_eq!(created.status, 200, "{}", created.body);
            num_field(&created.body, "session") as u64
        })
        .collect();

    // One binary batch carrying frames for all three sessions plus one
    // unknown session — posted with binary content-type AND accept.
    let frames = vec![
        wire::Frame::telemetry(
            ids[0],
            TelemetryBatch { time: 1.0, records: vec![TelemetryRecord::rate(0, 0.05)] },
        ),
        wire::Frame::telemetry(ids[1], TelemetryBatch::tick(1.0)),
        wire::Frame::telemetry(999_999, TelemetryBatch::tick(1.0)),
        wire::Frame::telemetry(ids[2], TelemetryBatch::tick(2.0)),
    ];
    let (status, body) = post_binary(addr, "/telemetry/batch", &wire::encode_frames(&frames));
    assert_eq!(status, 200);
    let outcomes = wire::decode_reports(&body).expect("binary report batch");
    assert_eq!(outcomes.len(), 4);
    assert_eq!(outcomes[0].session, ids[0]);
    assert!(outcomes[0].result.is_ok(), "{:?}", outcomes[0].result);
    assert!(outcomes[1].result.is_ok());
    assert!(outcomes[2].result.is_err(), "unknown session reported in place");
    assert!(outcomes[3].result.is_ok());

    // The scrape carries the batch endpoint family, frame counters, and
    // per-shard session gauges summing to the live session count.
    let metrics = get(addr, "/metrics");
    for family in [
        "perpetuum_requests_total{endpoint=\"telemetry_batch\"} 1",
        "perpetuum_batch_frames_total 4",
        "perpetuum_batch_frame_errors_total 1",
        "perpetuum_session_shard_sessions{shard=\"0\"}",
        "perpetuum_session_shard_sessions{shard=\"3\"}",
        "perpetuum_sessions 3",
    ] {
        assert!(metrics.body.contains(family), "missing {family:?}:\n{}", metrics.body);
    }

    // A malformed binary body is a typed 400, not a hang or a panic.
    let (status, body) = post_binary(addr, "/telemetry/batch", b"PBT1\x01");
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("bad_wire"));
    handle.shutdown();
}

#[test]
fn oversized_real_body_reads_a_clean_413_not_a_reset() {
    // The client sends a 256 KiB body against a 1 KiB cap. The daemon
    // must drain it before responding — otherwise the client's writes
    // die on a reset connection and it never sees the 413.
    let handle = start(ServerConfig { max_body: 1024, ..ServerConfig::default() }).expect("start");
    let big = "x".repeat(256 * 1024);
    let resp = post(handle.addr, "/plan", &big);
    assert_eq!(resp.status, 413, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"payload_too_large\""), "{}", resp.body);
    assert!(resp.body.contains("262144"), "declared size named: {}", resp.body);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert_eq!(get(handle.addr, "/healthz").status, 200, "daemon healthy after the drain");
    handle.shutdown();
}

#[test]
fn trickling_clients_hit_the_request_deadline_with_408() {
    // The deadline is enforced *inside* the server's reads: a partial
    // head followed by silence gets its 408 when the 100 ms deadline
    // fires, not after the 10 s per-read socket timeout. (Writing more
    // bytes past the deadline would only race the server's close — the
    // byte-drip variant is pinned by the `http` unit tests.)
    let handle = start(ServerConfig {
        request_deadline: Duration::from_millis(100),
        ..ServerConfig::default()
    })
    .expect("start");
    let started = std::time::Instant::now();
    let mut c = TcpStream::connect(handle.addr).expect("connect");
    c.write_all(b"GET /healthz HTTP/1.1\r\n").expect("partial head");
    let resp = read_response(&mut c);
    assert_eq!(resp.status, 408, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"request_timeout\""), "{}", resp.body);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline must beat the per-read socket timeout, took {:?}",
        started.elapsed()
    );
    handle.shutdown();
}

#[test]
fn journaled_daemon_exports_journal_metrics_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("perpetuum-daemon-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        data_dir: Some(dir.clone()),
        fsync_policy: FsyncPolicy::Always,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr;

    let created = post(addr, "/session", &scenario_body(5));
    assert_eq!(created.status, 200, "{}", created.body);
    let id = num_field(&created.body, "session") as u64;
    let r = post(addr, &format!("/session/{id}/telemetry"), r#"{"time": 0.5}"#);
    assert_eq!(r.status, 200, "{}", r.body);

    // The scrape exposes the full journal/recovery family; a fresh
    // journaled daemon has written and fsynced but recovered nothing.
    let metrics = get(addr, "/metrics");
    for family in [
        "perpetuum_journal_bytes_written_total",
        "perpetuum_journal_fsyncs_total",
        "perpetuum_sessions_quarantined_total 0",
        "perpetuum_sessions_recovered_total 0",
        "perpetuum_journal_replayed_wal_records_total 0",
        "perpetuum_recovery_seconds_bucket{phase=\"startup\"",
    ] {
        assert!(metrics.body.contains(family), "missing {family:?}:\n{}", metrics.body);
    }
    let m = handle.state();
    assert!(m.metrics.journal_bytes_written.load(Relaxed) > 0, "create + frames journaled");
    assert!(m.metrics.journal_fsyncs.load(Relaxed) >= 2, "fsync-always fsyncs each append");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admin_listener_is_loopback_only_and_404s_unknown_routes() {
    let handle = start(ServerConfig::default()).expect("start");
    assert!(handle.admin_addr.ip().is_loopback());
    let resp = raw_request(handle.admin_addr, b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(resp.status, 200);
    let resp = raw_request(handle.admin_addr, b"GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(resp.status, 404);
    handle.shutdown();
}
