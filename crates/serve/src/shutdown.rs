//! Graceful-shutdown coordination.
//!
//! One [`ShutdownSignal`] is shared by every thread of the daemon. The
//! protocol, in order:
//!
//! 1. something trips the signal — `POST /shutdown` on the loopback admin
//!    listener, a `SIGINT`/`SIGTERM` (forwarded by
//!    [`install_signal_forwarder`]), or [`ShutdownSignal::trigger`] from
//!    the embedding test;
//! 2. `trigger` pokes every registered listener address with a throwaway
//!    loopback connection so blocked `accept` calls return and observe the
//!    flag — the accept loops close their listeners (new connections are
//!    refused from this point);
//! 3. the request queue's sender is dropped; workers drain what was
//!    already queued and exit — in-flight requests complete and their
//!    responses are written in full, never reset;
//! 4. the embedding thread joins everything and exits cleanly.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A latchable, waitable shutdown flag that knows how to wake blocked
/// accept loops.
#[derive(Default)]
pub struct ShutdownSignal {
    flag: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
    wakers: Mutex<Vec<SocketAddr>>,
}

impl ShutdownSignal {
    /// A fresh, untriggered signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once shutdown has been requested. Accept loops check this
    /// immediately after every `accept` return.
    pub(crate) fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Registers a listener address to poke on trigger so its blocked
    /// `accept` returns.
    pub(crate) fn register_waker(&self, addr: SocketAddr) {
        if let Ok(mut w) = self.wakers.lock() {
            w.push(addr);
        }
    }

    /// Latches the flag, wakes [`ShutdownSignal::wait`]ers, and pokes
    /// every registered listener. Idempotent.
    pub fn trigger(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return;
        }
        drop(self.lock.lock());
        self.cv.notify_all();
        let addrs: Vec<SocketAddr> = match self.wakers.lock() {
            Ok(w) => w.clone(),
            Err(_) => Vec::new(),
        };
        for addr in addrs {
            // Throwaway connection: the accept loop sees it, checks the
            // flag, and exits. Errors mean the listener is already gone.
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
    }

    /// Blocks until the signal is triggered.
    pub fn wait(&self) {
        let mut guard = match self.lock.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        while !self.is_triggered() {
            guard = match self.cv.wait(guard) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set from the signal handler; polled by the forwarder thread. (A
    /// handler may only do async-signal-safe work — flag-and-poll keeps
    /// the actual shutdown on a normal thread.)
    pub(super) static SIGNALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub(super) fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal(2)` with a handler that only stores a relaxed
        // atomic flag is async-signal-safe; libc is always linked.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// Installs `SIGINT`/`SIGTERM` handlers (unix; a no-op elsewhere) and
/// spawns a thread that forwards the first signal to `shutdown`.
pub fn install_signal_forwarder(shutdown: Arc<ShutdownSignal>) {
    #[cfg(unix)]
    {
        sig::install();
        std::thread::spawn(move || loop {
            if sig::SIGNALLED.load(Ordering::SeqCst) {
                shutdown.trigger();
                return;
            }
            if shutdown.is_triggered() {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        });
    }
    #[cfg(not(unix))]
    {
        let _ = shutdown;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn trigger_is_idempotent_and_wakes_waiters() {
        let s = Arc::new(ShutdownSignal::new());
        assert!(!s.is_triggered());
        let waiter = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.wait())
        };
        s.trigger();
        s.trigger();
        assert!(s.is_triggered());
        waiter.join().expect("waiter returns after trigger");
    }

    #[test]
    fn trigger_pokes_registered_listeners() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let s = Arc::new(ShutdownSignal::new());
        s.register_waker(addr);
        let acceptor = std::thread::spawn(move || {
            // Blocks until the poke arrives.
            listener.accept().map(|_| ()).expect("poked");
        });
        s.trigger();
        acceptor.join().expect("accept loop woken");
    }
}
