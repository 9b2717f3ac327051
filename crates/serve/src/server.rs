//! The daemon proper: accept loop, bounded request queue, worker pool,
//! loopback admin listener, and the graceful-shutdown drain.
//!
//! Concurrency model (all `std`, no async runtime):
//!
//! * the **accept thread** pulls connections off the main listener and
//!   `try_send`s them into a bounded [`sync_channel`]; when the
//!   queue is full it sheds load right there — `503` with `Retry-After`
//!   written inline, never blocking the accept loop on a planner run;
//! * **workers** share the receiver behind a mutex, each popping one
//!   connection at a time: read → route → write, with per-request read
//!   timeouts so a stalled client cannot wedge a worker forever;
//! * the **admin thread** listens on a loopback-only socket for
//!   `POST /shutdown` (and `GET /healthz` for probes);
//! * **shutdown** latches the [`ShutdownSignal`], pokes both listeners so
//!   their `accept` calls return, drops the queue sender, and joins: the
//!   workers drain every already-queued connection before exiting, so no
//!   accepted request is ever reset.

use crate::handlers::AppState;
use crate::http::{error_response, read_request, Response};
use crate::journal::{FsyncPolicy, JournalSet, DEFAULT_COMPACT_EVERY};
use crate::router;
use crate::shutdown::ShutdownSignal;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Everything tunable about the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Main listener address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Admin listener address — must resolve to a loopback IP.
    pub admin_addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded queue capacity between accept and the workers; beyond it,
    /// connections are shed with `503`.
    pub queue_capacity: usize,
    /// Request body cap in bytes (`413` beyond it).
    pub max_body: usize,
    /// Plan-cache capacity in entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Live telemetry-session capacity (LRU eviction beyond it).
    pub session_capacity: usize,
    /// Session-store shard count (`0` = auto: one per worker, rounded up
    /// to a power of two).
    pub session_shards: usize,
    /// Max threads applying a `/telemetry/batch` request's shard groups
    /// in parallel (`0` = auto: the worker count).
    pub session_threads: usize,
    /// Per-connection socket read timeout: the longest one read syscall
    /// may wait for *any* byte to arrive. The deadline below bounds the
    /// whole request.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout — a slow-reading client cannot
    /// wedge a worker on the response.
    pub write_timeout: Duration,
    /// Whole-request deadline, enforced inside every read syscall: a
    /// client that trickles bytes (staying under the per-read timeout on
    /// each one) gets `408` once this much wall clock has passed since
    /// its connection was picked up. Zero disables.
    pub request_deadline: Duration,
    /// Background-refinement worker threads draining `/plan` upgrade
    /// jobs (`0` disables the pool; `refine=background` requests then
    /// stay constructive and count as dropped).
    pub refine_workers: usize,
    /// Write-ahead journal directory; `None` runs in-memory only.
    pub data_dir: Option<PathBuf>,
    /// When journaled appends reach stable storage.
    pub fsync_policy: FsyncPolicy,
    /// WAL records per shard before auto-compaction (`0` = only on
    /// drain).
    pub compact_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            admin_addr: "127.0.0.1:0".to_string(),
            workers: thread::available_parallelism().map_or(4, |n| n.get()).clamp(2, 16),
            queue_capacity: 64,
            max_body: 1 << 20,
            cache_capacity: 128,
            session_capacity: crate::handlers::DEFAULT_SESSION_CAPACITY,
            session_shards: 0,
            session_threads: 0,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(30),
            refine_workers: 1,
            data_dir: None,
            fsync_policy: FsyncPolicy::Batch,
            compact_every: DEFAULT_COMPACT_EVERY,
        }
    }
}

/// A running daemon: bound addresses plus the join handles needed to
/// drain it.
pub struct ServerHandle {
    /// The main listener's bound address.
    pub addr: SocketAddr,
    /// The admin listener's bound address (loopback).
    pub admin_addr: SocketAddr,
    shutdown: Arc<ShutdownSignal>,
    state: Arc<AppState>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The shared handler state (metrics + cache) — handy for tests and
    /// for the final stats printout.
    pub fn state(&self) -> &AppState {
        &self.state
    }

    /// An owning clone of the handler state, so metrics stay readable
    /// after [`ServerHandle::wait`] consumes the handle.
    pub fn state_arc(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// The shutdown signal, for wiring to signal handlers.
    pub fn shutdown_signal(&self) -> Arc<ShutdownSignal> {
        Arc::clone(&self.shutdown)
    }

    /// Blocks until shutdown is requested (by signal or admin endpoint),
    /// then drains and joins every
    /// thread. In-flight and queued requests complete first.
    pub fn wait(self) {
        self.shutdown.wait();
        // Wake the refinement pool: its workers block on the job queue,
        // not the listener, so the close is what lets them exit.
        self.state.refine_queue.close();
        for t in self.threads {
            let _ = t.join();
        }
        // Graceful drain: every in-flight request has been journaled by
        // now, so flush, fsync, and compact — a clean restart replays
        // zero WAL records.
        if let Some(journal) = &self.state.journal {
            if let Err(err) = journal.drain() {
                eprintln!("journal drain failed: {err}");
            }
        }
    }

    /// Requests shutdown, then [`ServerHandle::wait`]s for the drain.
    pub fn shutdown(self) {
        self.shutdown.trigger();
        self.wait();
    }
}

fn bind_loopback_admin(addr: &str) -> io::Result<TcpListener> {
    let resolved: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    if resolved.is_empty() || !resolved.iter().all(|a| a.ip().is_loopback()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("admin listener must bind a loopback address, got {addr}"),
        ));
    }
    TcpListener::bind(&resolved[..])
}

/// Binds both listeners, spawns the accept loop, workers, and admin
/// thread, and returns immediately.
pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let admin_listener = bind_loopback_admin(&cfg.admin_addr)?;
    let admin_addr = admin_listener.local_addr()?;

    let shutdown = Arc::new(ShutdownSignal::new());
    shutdown.register_waker(addr);
    shutdown.register_waker(admin_addr);

    let workers = cfg.workers.max(1);
    // Auto-tuning: by default the store gets one shard per worker (so
    // independent workers rarely collide on a shard) and a batch request
    // may fan its shard groups over as many threads as there are workers.
    let shards = if cfg.session_shards == 0 { workers } else { cfg.session_shards };
    let batch_threads = if cfg.session_threads == 0 { workers } else { cfg.session_threads };
    let mut state = AppState::new(cfg.cache_capacity)
        .with_sessions(cfg.session_capacity, shards)
        .with_batch_threads(batch_threads);
    if let Some(dir) = &cfg.data_dir {
        let journal = JournalSet::open(
            dir.clone(),
            state.sessions.shard_count(),
            cfg.fsync_policy,
            cfg.compact_every,
            Arc::clone(&state.metrics),
        )?;
        let stats = journal.recover(&state.sessions)?;
        if stats.sessions > 0 || stats.wal_records > 0 || stats.truncated_tail {
            eprintln!(
                "recovered {} session(s) from {} ({} snapshot + {} WAL records, {} skipped{})",
                stats.sessions,
                dir.display(),
                stats.snap_records,
                stats.wal_records,
                stats.skipped,
                if stats.truncated_tail { ", torn tail discarded" } else { "" },
            );
        }
        state = state.with_journal(journal);
    }
    let state = Arc::new(state);
    let (tx, rx) = sync_channel::<TcpStream>(cfg.queue_capacity.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let limits = ConnLimits {
        read_timeout: cfg.read_timeout,
        write_timeout: cfg.write_timeout,
        deadline: cfg.request_deadline,
        max_body: cfg.max_body,
    };
    let mut threads = Vec::with_capacity(cfg.workers + 2);
    for worker_id in 0..cfg.workers.max(1) {
        let rx = Arc::clone(&rx);
        let state = Arc::clone(&state);
        threads.push(
            thread::Builder::new()
                .name(format!("serve-worker-{worker_id}"))
                .spawn(move || worker_loop(&rx, &state, limits))?,
        );
    }

    for refine_id in 0..cfg.refine_workers {
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        threads.push(
            thread::Builder::new()
                .name(format!("serve-refine-{refine_id}"))
                .spawn(move || crate::refine::worker_loop(&state, &shutdown))?,
        );
    }

    {
        let shutdown = Arc::clone(&shutdown);
        let state = Arc::clone(&state);
        threads.push(thread::Builder::new().name("serve-accept".to_string()).spawn(move || {
            accept_loop(&listener, &tx, &state, &shutdown);
            // `tx` drops here: workers drain the queue, then exit.
        })?);
    }

    {
        let shutdown = Arc::clone(&shutdown);
        let read_timeout = cfg.read_timeout;
        threads.push(
            thread::Builder::new()
                .name("serve-admin".to_string())
                .spawn(move || admin_loop(&admin_listener, &shutdown, read_timeout))?,
        );
    }

    Ok(ServerHandle { addr, admin_addr, shutdown, state, threads })
}

fn accept_loop(
    listener: &TcpListener,
    tx: &std::sync::mpsc::SyncSender<TcpStream>,
    state: &AppState,
    shutdown: &ShutdownSignal,
) {
    for conn in listener.incoming() {
        if shutdown.is_triggered() {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Count the connection into the queue gauge *before* the send so
        // a worker's decrement can never race it below zero.
        state.metrics.queue_depth.fetch_add(1, Relaxed);
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                state.metrics.queue_depth.fetch_sub(1, Relaxed);
                state.metrics.queue_rejected.fetch_add(1, Relaxed);
                state.metrics.record_status(503);
                let resp =
                    Response::error(503, "overloaded", "request queue is full; retry shortly")
                        .with_header("retry-after", "1".to_string());
                let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                let _ = resp.write_to(&mut stream);
            }
            Err(TrySendError::Disconnected(_)) => {
                state.metrics.queue_depth.fetch_sub(1, Relaxed);
                break;
            }
        }
    }
}

/// Per-connection socket limits, copied into every worker.
#[derive(Debug, Clone, Copy)]
struct ConnLimits {
    read_timeout: Duration,
    write_timeout: Duration,
    deadline: Duration,
    max_body: usize,
}

fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, state: &Arc<AppState>, limits: ConnLimits) {
    loop {
        // Hold the receiver lock only for the pop, never while serving.
        let stream = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        let Ok(stream) = stream else { break };
        state.metrics.queue_depth.fetch_sub(1, Relaxed);
        state.metrics.in_flight.fetch_add(1, Relaxed);
        serve_connection(state, stream, limits);
        state.metrics.in_flight.fetch_sub(1, Relaxed);
    }
}

fn serve_connection(state: &AppState, mut stream: TcpStream, limits: ConnLimits) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    // The deadline is enforced *inside* read_request — every read syscall
    // is clamped to the time remaining — so a client trickling one byte
    // per read-timeout interval cannot hold this worker past it.
    let deadline = (!limits.deadline.is_zero()).then(|| started + limits.deadline);
    let resp = match read_request(&stream, limits.max_body, deadline) {
        Ok(req) => {
            // Belt and braces for the post-read phase: a request that
            // arrived with no budget left is not worth routing.
            if deadline.is_some_and(|d| Instant::now() > d) {
                state.metrics.record_status(408);
                let _ = error_response(&crate::http::HttpError::Deadline { phase: "handling" })
                    .map(|resp| resp.write_to(&mut stream));
                return;
            }
            router::handle(state, &req)
        }
        Err(err) => match error_response(&err) {
            Some(resp) => resp,
            None => return, // socket died before a request arrived
        },
    };
    state.metrics.record_status(resp.status);
    let _ = resp.write_to(&mut stream);
}

fn admin_loop(listener: &TcpListener, shutdown: &Arc<ShutdownSignal>, read_timeout: Duration) {
    for conn in listener.incoming() {
        if shutdown.is_triggered() {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(read_timeout));
        let _ = stream.set_write_timeout(Some(read_timeout));
        // Loopback-only listener: the per-read socket timeout is enough,
        // no whole-request deadline.
        let resp = match read_request(&stream, 4096, None) {
            Ok(req) => match (req.method.as_str(), req.path.as_str()) {
                ("POST", "/shutdown") => {
                    // Answer first, then latch: the trigger's waker poke
                    // brings this loop (and the main accept loop) down.
                    let resp = Response::json(200, "{\"status\":\"shutting down\"}".to_string());
                    let _ = resp.write_to(&mut stream);
                    shutdown.trigger();
                    continue;
                }
                ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}".to_string()),
                (m, p) => Response::error(404, "not_found", &format!("no admin route for {m} {p}")),
            },
            Err(err) => match error_response(&err) {
                Some(resp) => resp,
                None => continue,
            },
        };
        let _ = resp.write_to(&mut stream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn healthz_round_trip_and_graceful_shutdown() {
        let handle =
            start(ServerConfig { workers: 2, queue_capacity: 8, ..ServerConfig::default() })
                .expect("start");
        let addr = handle.addr;
        let resp = request(addr, "GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
        handle.shutdown();
        // After the drain, new connections must be refused, not queued.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err());
    }

    #[test]
    fn admin_shutdown_endpoint_drains_the_daemon() {
        let handle = start(ServerConfig::default()).expect("start");
        let admin = handle.admin_addr;
        assert!(admin.ip().is_loopback());
        let resp = request(admin, "POST /shutdown HTTP/1.1\r\nhost: x\r\n\r\n");
        assert!(resp.contains("shutting down"), "{resp}");
        handle.wait(); // returns because the admin endpoint latched the signal
    }

    /// The request deadline must fire *inside* the read: with a 30s
    /// per-read socket timeout, only the deadline (100ms) can explain a
    /// prompt 408 on a stalled request head.
    #[test]
    fn request_deadline_interrupts_an_idle_read_before_the_socket_timeout() {
        let handle = start(ServerConfig {
            read_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_millis(100),
            ..ServerConfig::default()
        })
        .expect("start");
        let mut stream = TcpStream::connect(handle.addr).expect("connect");
        stream.write_all(b"GET /healthz HT").expect("partial head");
        let started = Instant::now();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).expect("read response");
        assert!(resp.starts_with("HTTP/1.1 408"), "{resp}");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the deadline answered, not the 30s socket timeout"
        );
        handle.shutdown();
    }

    #[test]
    fn non_loopback_admin_addr_is_refused() {
        match start(ServerConfig { admin_addr: "0.0.0.0:0".to_string(), ..ServerConfig::default() })
        {
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::InvalidInput),
            Ok(_) => panic!("0.0.0.0 must be rejected"),
        }
    }
}
