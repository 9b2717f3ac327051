//! Failure accounting: every operation the benchmark attempts is recorded
//! under its request class as a success or as one kind of failure, so a
//! refused request, an error status, a timeout and a wrong answer are
//! counted apart.

use crate::http::Reply;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::sync::Mutex;

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `503`: shed by the daemon's bounded queue.
    Refused,
    /// Any other 4xx status.
    Status4xx,
    /// Any 5xx status other than 503.
    Status5xx,
    /// The socket timed out.
    Timeout,
    /// Connect, write or read failed, or the response was malformed.
    Transport,
    /// A well-formed response whose content is wrong.
    Wrong,
}

impl Kind {
    const ALL: [Kind; 6] = [
        Kind::Refused,
        Kind::Status4xx,
        Kind::Status5xx,
        Kind::Timeout,
        Kind::Transport,
        Kind::Wrong,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::Refused => "503",
            Kind::Status4xx => "4xx",
            Kind::Status5xx => "5xx",
            Kind::Timeout => "timeout",
            Kind::Transport => "transport",
            Kind::Wrong => "wrong",
        }
    }
}

/// One failed operation: its kind and a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// What went wrong.
    pub kind: Kind,
    /// Human-readable detail (first failures are printed).
    pub detail: String,
}

impl Failure {
    /// A response whose content is wrong.
    pub fn wrong(detail: impl Into<String>) -> Self {
        Self { kind: Kind::Wrong, detail: detail.into() }
    }

    /// An unexpected status code.
    pub fn status(status: u16, body: &[u8]) -> Self {
        let kind = match status {
            503 => Kind::Refused,
            500..=599 => Kind::Status5xx,
            _ => Kind::Status4xx,
        };
        let text = String::from_utf8_lossy(&body[..body.len().min(200)]).into_owned();
        Self { kind, detail: format!("status {status}: {text}") }
    }

    /// A transport error.
    pub fn io(err: &io::Error) -> Self {
        let kind = match err.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => Kind::Timeout,
            _ => Kind::Transport,
        };
        Self { kind, detail: err.to_string() }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.detail)
    }
}

/// Outcome of one checked operation.
pub type Checked<T> = Result<T, Failure>;

/// A reply with status 200, or the failure it stands for.
pub fn expect_ok(reply: io::Result<Reply>) -> Checked<Reply> {
    expect_status(reply, &[200])
}

/// A reply whose status is one of `ok`, or the failure it stands for.
pub fn expect_status(reply: io::Result<Reply>, ok: &[u16]) -> Checked<Reply> {
    match reply {
        Ok(r) if ok.contains(&r.status) => Ok(r),
        Ok(r) => Err(Failure::status(r.status, &r.body)),
        Err(e) => Err(Failure::io(&e)),
    }
}

#[derive(Debug, Default, Clone)]
struct Tally {
    ok: u64,
    failed: BTreeMap<Kind, u64>,
}

#[derive(Debug, Default)]
struct Inner {
    classes: BTreeMap<String, Tally>,
    first_failures: Vec<String>,
    invalid: Vec<String>,
}

/// Thread-safe per-class tally of attempts and failures.
#[derive(Debug, Default)]
pub struct Ledger {
    inner: Mutex<Inner>,
}

/// How many failure descriptions are kept for the report.
const KEEP_FAILURES: usize = 8;

impl Ledger {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one operation of `class`.
    pub fn record<T>(&self, class: &str, outcome: &Checked<T>) {
        let mut inner = self.lock();
        let tally = inner.classes.entry(class.to_string()).or_default();
        match outcome {
            Ok(_) => tally.ok += 1,
            Err(f) => {
                *tally.failed.entry(f.kind).or_default() += 1;
                if inner.first_failures.len() < KEEP_FAILURES {
                    inner.first_failures.push(format!("{class}: {f}"));
                }
            }
        }
    }

    /// Marks the whole run invalid (a failed validity check that is not
    /// tied to one operation, such as a growing open-loop backlog).
    pub fn invalidate(&self, reason: impl Into<String>) {
        self.lock().invalid.push(reason.into());
    }

    /// `(attempted, failed)` over every class.
    pub fn totals(&self) -> (u64, u64) {
        let inner = self.lock();
        inner.classes.values().fold((0, 0), |(a, f), t| {
            let failed: u64 = t.failed.values().sum();
            (a + t.ok + failed, f + failed)
        })
    }

    /// Reasons the run was marked invalid.
    pub fn invalid(&self) -> Vec<String> {
        self.lock().invalid.clone()
    }

    /// One line per request class, then the first failures and the
    /// invalidity reasons.
    pub fn report(&self) -> Vec<String> {
        let inner = self.lock();
        let mut lines = Vec::new();
        for (class, t) in &inner.classes {
            let failed: u64 = t.failed.values().sum();
            let kinds: Vec<String> = Kind::ALL
                .iter()
                .map(|k| format!("{}={}", k.name(), t.failed.get(k).copied().unwrap_or(0)))
                .collect();
            lines.push(format!(
                "class {class}: attempted={} succeeded={} failed={failed} ({})",
                t.ok + failed,
                t.ok,
                kinds.join(" ")
            ));
        }
        lines.extend(inner.first_failures.iter().map(|f| format!("failure {f}")));
        lines.extend(inner.invalid.iter().map(|r| format!("invalid: {r}")));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_and_kinds_are_kept_apart() {
        let ledger = Ledger::default();
        ledger.record::<()>("plan", &Ok(()));
        ledger.record::<()>("plan", &Err(Failure::status(503, b"busy")));
        ledger.record::<()>("read", &Err(Failure::wrong("bytes differ")));
        ledger.record::<()>("read", &Err(Failure::io(&io::Error::from(io::ErrorKind::TimedOut))));
        assert_eq!(ledger.totals(), (4, 3));
        let report = ledger.report();
        assert_eq!(
            report[0],
            "class plan: attempted=2 succeeded=1 failed=1 \
             (503=1 4xx=0 5xx=0 timeout=0 transport=0 wrong=0)"
        );
        assert_eq!(
            report[1],
            "class read: attempted=2 succeeded=0 failed=2 \
             (503=0 4xx=0 5xx=0 timeout=1 transport=0 wrong=1)"
        );
        assert!(ledger.invalid().is_empty());
        ledger.invalidate("backlog grew");
        assert_eq!(ledger.invalid(), vec!["backlog grew".to_string()]);
    }
}
