//! Chaos harness: the real `perpetuum-serve` binary, journaling to disk,
//! ingesting through a fault-injecting proxy (drops, truncation, stalls,
//! corruption), then `kill -9`'d mid-flight and restarted on the same
//! `--data-dir`. The restarted daemon must report the recovered sessions
//! in `/metrics` and serve **byte-identical** plans to the pre-kill
//! state — every frame a client saw acknowledged survives the crash.

mod fault_proxy;

use fault_proxy::{FaultProxy, FaultRates};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns the daemon binary journaling into `data_dir`, parses its bound
/// address off stdout, and waits until `/healthz` answers.
fn spawn_daemon(data_dir: &Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_perpetuum-serve"))
        .args(["--addr", "127.0.0.1:0", "--admin-addr", "127.0.0.1:0"])
        .arg("--data-dir")
        .arg(data_dir)
        .args(["--fsync-policy", "batch", "--workers", "2", "--read-timeout-secs", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn perpetuum-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let addr: SocketAddr = loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("daemon stdout");
        assert!(n > 0, "daemon exited before announcing its address");
        if let Some(rest) = line.trim().strip_prefix("perpetuum-serve listening on http://") {
            break rest.parse().expect("parse bound address");
        }
    };
    // Keep draining stdout so the daemon never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    wait_for("daemon /healthz", || {
        request(addr, "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
            .is_some_and(|(status, _)| status == 200)
    });
    Daemon { child, addr }
}

/// One request over a fresh connection; `None` when the socket dies
/// (reset, injected drop, daemon gone) before a parsable response.
fn request(addr: SocketAddr, raw: &str) -> Option<(u16, String)> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).ok()?;
    let mut stream = stream;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    stream.set_write_timeout(Some(Duration::from_secs(5))).ok()?;
    stream.write_all(raw.as_bytes()).ok()?;
    stream.shutdown(Shutdown::Write).ok()?;
    let mut text = String::new();
    stream.read_to_string(&mut text).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status: u16 = head.lines().next()?.split(' ').nth(1)?.parse().ok()?;
    Some((status, body.to_string()))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Option<(u16, String)> {
    request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> Option<(u16, String)> {
    request(addr, &format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n"))
}

fn wait_for(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn scenario_body(seed: u64) -> String {
    format!(
        r#"{{"scenario": {{
            "field_size": 500.0, "n": 12, "q": 2,
            "tau_min": 1.0, "tau_max": 20.0,
            "dist": {{ "Linear": {{ "sigma": 2.0 }} }},
            "horizon": 60.0, "slot": 10.0,
            "variable": false, "deployment": "Uniform"
        }}, "seed": {seed}}}"#
    )
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perpetuum-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Parses one counter value out of a Prometheus text scrape.
fn metric(scrape: &str, name: &str) -> Option<f64> {
    scrape
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

#[test]
fn killed_daemon_recovers_every_acknowledged_frame() {
    let data_dir = tmp_dir("kill9");
    let daemon = spawn_daemon(&data_dir);

    // All ingest traffic goes through the fault proxy: some connections
    // are dropped before reaching the daemon, some cut mid-request, some
    // stalled, and some have one request byte flipped.
    let proxy = FaultProxy::start(
        daemon.addr,
        0xC4A0_5EED,
        FaultRates {
            drop: 120,
            truncate: 120,
            corrupt: 150,
            stall: 30,
            stall_for: Duration::from_millis(20),
        },
    )
    .expect("start fault proxy");
    let via_proxy = proxy.addr();

    // Create three sessions through the proxy, retrying the faulted
    // attempts — only a 200 with a session id counts.
    let mut ids: Vec<u64> = Vec::new();
    let mut attempt = 0u64;
    while ids.len() < 3 {
        attempt += 1;
        assert!(attempt < 200, "could not create sessions through the proxy");
        let Some((200, body)) = post(via_proxy, "/session", &scenario_body(40 + ids.len() as u64))
        else {
            continue;
        };
        let id = body
            .split_once("\"session\":")
            .and_then(|(_, r)| r.split(&[',', '}'][..]).next())
            .and_then(|s| s.trim().parse().ok())
            .expect("session id in create body");
        ids.push(id);
    }

    // Hammer telemetry through the proxy. Acknowledged (200) ingests are
    // the ledger the recovered daemon must honour; faulted attempts are
    // free to vanish.
    let mut acked = 0u64;
    for round in 0..25u64 {
        for (k, &id) in ids.iter().enumerate() {
            let time = 0.1 + round as f64 * 0.1;
            let rate = 0.05 + ((round + k as u64) % 7) as f64 * 0.01;
            let body = format!(
                r#"{{"time": {time}, "records": [{{"sensor": {}, "rate": {rate}}}]}}"#,
                (round as usize + k) % 12
            );
            if let Some((200, _)) = post(via_proxy, &format!("/session/{id}/telemetry"), &body) {
                acked += 1;
            }
        }
    }
    assert!(acked > 0, "no telemetry survived the proxy at all");
    let counts = proxy.counts();
    let injected = counts.dropped.load(std::sync::atomic::Ordering::Relaxed)
        + counts.truncated.load(std::sync::atomic::Ordering::Relaxed)
        + counts.corrupted.load(std::sync::atomic::Ordering::Relaxed);
    assert!(injected > 0, "the chaos proxy injected nothing — rates too low?");

    // Pre-kill ground truth, read directly (not through the proxy).
    let pre_kill: Vec<String> = ids
        .iter()
        .map(|id| {
            let (status, body) =
                get(daemon.addr, &format!("/session/{id}/plan")).expect("pre-kill plan read");
            assert_eq!(status, 200, "{body}");
            body
        })
        .collect();

    // SIGKILL: no drain, no fsync, no goodbye. The journal's write-before
    // -ack discipline is all that stands between the acks and the void.
    proxy.shutdown();
    drop(daemon); // Drop sends SIGKILL and reaps

    let daemon = spawn_daemon(&data_dir);
    let (status, scrape) = get(daemon.addr, "/metrics").expect("metrics after restart");
    assert_eq!(status, 200);
    assert_eq!(
        metric(&scrape, "perpetuum_sessions_recovered_total"),
        Some(3.0),
        "recovered-session counter:\n{scrape}"
    );
    assert_eq!(metric(&scrape, "perpetuum_sessions"), Some(3.0), "live gauge:\n{scrape}");
    assert!(
        metric(&scrape, "perpetuum_recovery_seconds_count{phase=\"startup\"}").unwrap_or(0.0)
            >= 1.0,
        "recovery histogram missing:\n{scrape}"
    );

    // Every acknowledged frame survived: plans are byte-identical to the
    // pre-kill reads.
    for (id, expected) in ids.iter().zip(&pre_kill) {
        let (status, body) =
            get(daemon.addr, &format!("/session/{id}/plan")).expect("post-restart plan read");
        assert_eq!(status, 200, "{body}");
        assert_eq!(&body, expected, "session {id} diverged across kill -9");
    }

    // And the recovered sessions are live, not husks: one more ingest
    // lands with a 200.
    for &id in &ids {
        let (status, body) =
            post(daemon.addr, &format!("/session/{id}/telemetry"), r#"{"time": 99.0}"#)
                .expect("post-restart ingest");
        assert_eq!(status, 200, "{body}");
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn clean_drain_then_restart_replays_zero_wal_records() {
    let data_dir = tmp_dir("drain");
    let daemon = spawn_daemon(&data_dir);

    let (status, body) = post(daemon.addr, "/session", &scenario_body(7)).expect("create");
    assert_eq!(status, 200, "{body}");
    let id: u64 = body
        .split_once("\"session\":")
        .and_then(|(_, r)| r.split(&[',', '}'][..]).next())
        .and_then(|s| s.trim().parse().ok())
        .expect("session id");
    for i in 0..5 {
        let (status, _) = post(
            daemon.addr,
            &format!("/session/{id}/telemetry"),
            &format!(r#"{{"time": {}.5}}"#, i),
        )
        .expect("ingest");
        assert_eq!(status, 200);
    }
    let (_, pre) = get(daemon.addr, &format!("/session/{id}/plan")).expect("plan");

    // Graceful shutdown via SIGTERM → drain → journal compaction.
    let pid = daemon.child.id();
    unsafe {
        assert_eq!(libc_kill(pid as i32, 15), 0, "SIGTERM");
    }
    let mut daemon = daemon;
    let exit = daemon.child.wait().expect("daemon exits after SIGTERM");
    assert!(exit.success(), "graceful exit status {exit:?}");

    // After a drain every WAL holds only its epoch marker — the
    // snapshot carries everything else.
    for entry in std::fs::read_dir(&data_dir).expect("data dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "wal") {
            let len = std::fs::metadata(&path).expect("wal metadata").len();
            assert_eq!(
                len,
                perpetuum_serve::journal::EPOCH_RECORD_BYTES as u64,
                "{} not drained to its epoch marker",
                path.display()
            );
        }
    }

    let daemon = spawn_daemon(&data_dir);
    let (status, scrape) = get(daemon.addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    assert_eq!(
        metric(&scrape, "perpetuum_journal_replayed_wal_records_total"),
        Some(0.0),
        "clean restart must replay zero WAL records:\n{scrape}"
    );
    assert_eq!(metric(&scrape, "perpetuum_sessions_recovered_total"), Some(1.0));
    let (status, post_restart) = get(daemon.addr, &format!("/session/{id}/plan")).expect("plan");
    assert_eq!(status, 200);
    assert_eq!(post_restart, pre, "drained state diverged across restart");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&data_dir);
}

extern "C" {
    #[link_name = "kill"]
    fn libc_kill(pid: i32, sig: i32) -> i32;
}
