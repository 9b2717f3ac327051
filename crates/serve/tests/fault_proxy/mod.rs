//! A seeded socket-level fault proxy for crash/recovery testing: test
//! support for `tests/chaos.rs`, kept out of the daemon library.
//!
//! [`FaultProxy`] sits between a test client and the daemon and injects
//! the network's greatest hits — dropped connections, mid-frame
//! truncation, stalls, byte corruption — on a deterministic schedule: a
//! hand-rolled xorshift64 stream seeded by the test, decided once per
//! accepted connection. The same seed against the same connection
//! sequence injects the same faults, so a chaos run that finds a bug is
//! replayable.
//!
//! The proxy is intentionally dumb about HTTP: it copies bytes. Faults
//! mutate the *client→daemon* direction only, because that is the
//! direction durability cares about — a corrupted or truncated request
//! must be *rejected* (never acked and lost), while the daemon's own
//! response bytes passing through untouched lets the test distinguish
//! "server rejected it" from "proxy ate it". Every injected fault is
//! counted so tests can assert the schedule actually fired.
//!
//! No `rand` dependency: the proxy is std-only.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The faults the proxy can inject on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Pass the connection through untouched.
    None,
    /// Close the client connection immediately, before any byte reaches
    /// the daemon.
    Drop,
    /// Forward only a prefix of the request, then close the upstream
    /// write half — the daemon sees a mid-frame truncation.
    Truncate,
    /// Sleep before forwarding anything — exercises the daemon's
    /// slow-client read timeout without violating the protocol.
    Stall,
    /// Flip one byte of the request stream — exercises body/frame
    /// validation (the daemon must reject, never silently accept).
    Corrupt,
}

/// Per-mille injection rates for each fault (the remainder passes
/// through clean). `drop + truncate + stall + corrupt` must be ≤ 1000.
#[derive(Debug, Clone, Copy)]
pub struct FaultRates {
    /// ‰ of connections dropped outright.
    pub drop: u32,
    /// ‰ of connections truncated mid-request.
    pub truncate: u32,
    /// ‰ of connections stalled before forwarding.
    pub stall: u32,
    /// ‰ of connections with one corrupted request byte.
    pub corrupt: u32,
    /// How long a stalled connection sleeps.
    pub stall_for: Duration,
}

impl Default for FaultRates {
    fn default() -> Self {
        Self { drop: 0, truncate: 0, stall: 0, corrupt: 0, stall_for: Duration::from_millis(50) }
    }
}

/// Injected-fault counters, one per [`FaultKind`].
#[derive(Debug, Default)]
pub struct FaultCounts {
    /// Connections passed through untouched.
    pub clean: AtomicU64,
    /// Connections dropped.
    pub dropped: AtomicU64,
    /// Connections truncated.
    pub truncated: AtomicU64,
    /// Connections stalled.
    pub stalled: AtomicU64,
    /// Connections with a corrupted byte.
    pub corrupted: AtomicU64,
}

/// xorshift64: tiny, seedable, good enough to schedule faults.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        // xorshift has a fixed point at 0; displace it deterministically.
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Picks the fault for one connection plus its parameters (truncation
/// length / corruption offset), consuming a fixed two RNG draws so the
/// schedule stays aligned whatever fault fires.
fn decide(rng: &mut XorShift64, rates: &FaultRates) -> (FaultKind, u64) {
    let roll = (rng.next() % 1000) as u32;
    let param = rng.next();
    let mut bound = rates.drop;
    if roll < bound {
        return (FaultKind::Drop, param);
    }
    bound += rates.truncate;
    if roll < bound {
        return (FaultKind::Truncate, param);
    }
    bound += rates.stall;
    if roll < bound {
        return (FaultKind::Stall, param);
    }
    bound += rates.corrupt;
    if roll < bound {
        return (FaultKind::Corrupt, param);
    }
    (FaultKind::None, param)
}

/// A running fault proxy: listens on loopback, forwards to `upstream`.
pub struct FaultProxy {
    addr: SocketAddr,
    counts: Arc<FaultCounts>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts the proxy in front of `upstream` with a deterministic fault
    /// schedule drawn from `seed`.
    pub fn start(upstream: SocketAddr, seed: u64, rates: FaultRates) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let counts = Arc::new(FaultCounts::default());
        let stop = Arc::new(AtomicBool::new(false));
        let rng = Mutex::new(XorShift64::new(seed));
        let thread_counts = Arc::clone(&counts);
        let thread_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if thread_stop.load(Relaxed) {
                    break;
                }
                let Ok(client) = conn else { continue };
                let fault = {
                    let mut rng = match rng.lock() {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    decide(&mut rng, &rates)
                };
                let counts = Arc::clone(&thread_counts);
                let stall_for = rates.stall_for;
                std::thread::spawn(move || {
                    serve_one(client, upstream, fault, stall_for, &counts);
                });
            }
        });
        Ok(Self { addr, counts, stop, accept_thread: Some(accept_thread) })
    }

    /// The address test clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The injected-fault counters.
    pub fn counts(&self) -> &FaultCounts {
        &self.counts
    }

    /// Stops accepting and joins the accept loop (in-flight connection
    /// threads finish on their own).
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Relaxed);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_accepting();
        }
    }
}

/// Handles one proxied connection under its assigned fault.
fn serve_one(
    client: TcpStream,
    upstream: SocketAddr,
    (kind, param): (FaultKind, u64),
    stall_for: Duration,
    counts: &FaultCounts,
) {
    match kind {
        FaultKind::Drop => {
            counts.dropped.fetch_add(1, Relaxed);
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
        FaultKind::Stall => {
            counts.stalled.fetch_add(1, Relaxed);
            std::thread::sleep(stall_for);
        }
        FaultKind::Truncate => {
            counts.truncated.fetch_add(1, Relaxed);
        }
        FaultKind::Corrupt => {
            counts.corrupted.fetch_add(1, Relaxed);
        }
        FaultKind::None => {
            counts.clean.fetch_add(1, Relaxed);
        }
    }
    let Ok(server) = TcpStream::connect(upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };

    // Forward limit for truncation: a small prefix so the cut lands
    // mid-request (headers or early body) rather than after it.
    let limit = match kind {
        FaultKind::Truncate => 16 + (param % 120) as usize,
        _ => usize::MAX,
    };
    // Corruption offset: somewhere in the first KiB of the request.
    let corrupt_at = match kind {
        FaultKind::Corrupt => Some((param % 1024) as usize),
        _ => None,
    };

    let client_read = client.try_clone();
    let server_write = server.try_clone();
    let upstream_half = std::thread::spawn(move || {
        let (Ok(mut from), Ok(mut to)) = (client_read, server_write) else { return };
        let mut sent = 0usize;
        let mut buf = [0u8; 4096];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            let mut chunk = buf[..n].to_vec();
            if let Some(at) = corrupt_at {
                if (sent..sent + n).contains(&at) {
                    chunk[at - sent] ^= 0xA5;
                }
            }
            let take = chunk.len().min(limit.saturating_sub(sent));
            if take > 0 && to.write_all(&chunk[..take]).is_err() {
                break;
            }
            sent += n;
            if sent >= limit {
                // Truncation point reached: slam the upstream write half.
                let _ = to.shutdown(Shutdown::Write);
                break;
            }
        }
        if limit == usize::MAX {
            let _ = to.shutdown(Shutdown::Write);
        }
    });

    // Response direction: always a clean copy.
    let mut from = server;
    let mut to = client;
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = upstream_half.join();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_schedule_is_deterministic_in_the_seed() {
        let rates =
            FaultRates { drop: 100, truncate: 200, stall: 100, corrupt: 200, ..Default::default() };
        let draw = |seed: u64| -> Vec<FaultKind> {
            let mut rng = XorShift64::new(seed);
            (0..64).map(|_| decide(&mut rng, &rates).0).collect()
        };
        assert_eq!(draw(7), draw(7), "same seed, same schedule");
        assert_ne!(draw(7), draw(8), "different seed, different schedule");
        let kinds = draw(7);
        assert!(kinds.contains(&FaultKind::None));
        assert!(
            kinds.iter().any(|k| *k != FaultKind::None),
            "40% fault rate must fire within 64 draws"
        );
    }

    #[test]
    fn zero_rates_never_inject() {
        let mut rng = XorShift64::new(99);
        for _ in 0..256 {
            assert_eq!(decide(&mut rng, &FaultRates::default()).0, FaultKind::None);
        }
    }

    /// A one-shot upstream that echoes a fixed response after reading the
    /// request (enough to exercise both copy directions).
    fn tiny_upstream() -> (SocketAddr, std::thread::JoinHandle<Vec<u8>>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind upstream");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut request = Vec::new();
            let _ = conn.read_to_end(&mut request); // until client write-half closes
            let _ = conn.write_all(b"PONG");
            request
        });
        (addr, handle)
    }

    #[test]
    fn clean_connections_pass_bytes_through_unchanged() {
        let (upstream, server) = tiny_upstream();
        let proxy = FaultProxy::start(upstream, 1, FaultRates::default()).expect("proxy");
        let mut conn = TcpStream::connect(proxy.addr()).expect("connect");
        conn.write_all(b"PING-BODY").expect("write");
        conn.shutdown(Shutdown::Write).expect("half close");
        let mut reply = Vec::new();
        conn.read_to_end(&mut reply).expect("read");
        assert_eq!(reply, b"PONG");
        assert_eq!(server.join().expect("upstream"), b"PING-BODY");
        assert_eq!(proxy.counts().clean.load(Relaxed), 1);
        proxy.shutdown();
    }

    #[test]
    fn corrupting_connections_flip_exactly_one_byte() {
        let (upstream, server) = tiny_upstream();
        let rates = FaultRates { corrupt: 1000, ..Default::default() };
        let proxy = FaultProxy::start(upstream, 3, rates).expect("proxy");
        let sent = vec![0u8; 1024]; // zeroed: any flip is visible
        let mut conn = TcpStream::connect(proxy.addr()).expect("connect");
        conn.write_all(&sent).expect("write");
        conn.shutdown(Shutdown::Write).expect("half close");
        let mut reply = Vec::new();
        conn.read_to_end(&mut reply).expect("read");
        let received = server.join().expect("upstream");
        assert_eq!(received.len(), sent.len());
        let flipped: Vec<usize> = (0..sent.len()).filter(|&i| received[i] != sent[i]).collect();
        assert_eq!(flipped.len(), 1, "exactly one corrupted byte, got {flipped:?}");
        assert_eq!(received[flipped[0]], 0xA5);
        assert_eq!(proxy.counts().corrupted.load(Relaxed), 1);
        proxy.shutdown();
    }

    #[test]
    fn truncating_connections_cut_the_request_short() {
        let (upstream, server) = tiny_upstream();
        let rates = FaultRates { truncate: 1000, ..Default::default() };
        let proxy = FaultProxy::start(upstream, 5, rates).expect("proxy");
        let sent = vec![7u8; 2048];
        let mut conn = TcpStream::connect(proxy.addr()).expect("connect");
        let _ = conn.write_all(&sent); // proxy may close mid-write
        let _ = conn.shutdown(Shutdown::Write);
        let mut reply = Vec::new();
        let _ = conn.read_to_end(&mut reply);
        let received = server.join().expect("upstream");
        assert!(
            received.len() < sent.len() && received.len() < 136,
            "upstream saw a short prefix, got {} bytes",
            received.len()
        );
        assert_eq!(proxy.counts().truncated.load(Relaxed), 1);
        proxy.shutdown();
    }

    #[test]
    fn dropped_connections_never_reach_upstream() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind upstream");
        let upstream = listener.local_addr().expect("addr");
        listener.set_nonblocking(true).expect("nonblocking");
        let rates = FaultRates { drop: 1000, ..Default::default() };
        let proxy = FaultProxy::start(upstream, 9, rates).expect("proxy");
        let mut conn = TcpStream::connect(proxy.addr()).expect("connect");
        let _ = conn.write_all(b"DOOMED");
        let mut reply = Vec::new();
        let _ = conn.read_to_end(&mut reply);
        assert!(reply.is_empty(), "dropped connection got {reply:?}");
        assert_eq!(proxy.counts().dropped.load(Relaxed), 1);
        std::thread::sleep(Duration::from_millis(20));
        assert!(listener.accept().is_err(), "upstream must never see the connection");
        proxy.shutdown();
    }
}
