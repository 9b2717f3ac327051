//! Starting, probing and stopping the release `perpetuum-serve` binary.

use crate::http;
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Read as _};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Longest wait for the daemon to come up or to drain.
const PATIENCE: Duration = Duration::from_secs(60);

/// The daemon flags every workload shares — two workers on ephemeral
/// loopback ports — followed by the workload's own.
pub fn flags(own: &[&str]) -> Vec<String> {
    ["--addr", "127.0.0.1:0", "--admin-addr", "127.0.0.1:0", "--workers", "2"]
        .iter()
        .chain(own)
        .map(|s| (*s).to_string())
        .collect()
}

/// A running daemon.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Main listener.
    pub addr: SocketAddr,
    admin: SocketAddr,
}

fn address_in(line: &str) -> Option<SocketAddr> {
    line.split("http://").nth(1)?.trim().parse().ok()
}

impl Daemon {
    /// Starts `binary` with `flags` and waits until `/healthz` answers.
    pub fn start(binary: &Path, flags: &[String]) -> Result<Self, String> {
        let mut child = Command::new(binary)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".to_string());
        };
        let mut stdout = BufReader::new(out);
        let (mut addr, mut admin) = (None, None);
        let mut line = String::new();
        while addr.is_none() || admin.is_none() {
            line.clear();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before announcing its addresses".to_string());
            }
            if line.contains("listening on") {
                addr = address_in(&line);
            } else if line.contains("admin") {
                admin = address_in(&line);
            }
        }
        let (Some(addr), Some(admin)) = (addr, admin) else { unreachable!() };
        let daemon = Self { child, stdout, addr, admin };
        let since = Instant::now();
        loop {
            match http::get(daemon.addr, "/healthz", None) {
                Ok(r) if r.status == 200 => return Ok(daemon),
                _ if since.elapsed() > PATIENCE => return Err("daemon never became ready".into()),
                _ => sleep(Duration::from_millis(2)),
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Scrapes `/metrics` into `series{labels} → value`.
    pub fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let reply = http::get(self.addr, "/metrics", None).map_err(|e| e.to_string())?;
        if reply.status != 200 {
            return Err(format!("/metrics answered {}", reply.status));
        }
        Ok(parse_metrics(&String::from_utf8_lossy(&reply.body)))
    }

    /// Graceful drain through the admin listener; returns the daemon's
    /// drain summary line.
    pub fn shutdown(mut self) -> Result<String, String> {
        let reply = http::call(self.admin, "POST", "/shutdown", None, None, &[]);
        if let Err(e) = reply {
            return Err(format!("shutdown request failed: {e}"));
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let since = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if since.elapsed() < PATIENCE => sleep(Duration::from_millis(5)),
                _ => return Err("daemon did not drain in time".to_string()),
            }
        }
        Ok(rest.lines().find(|l| l.starts_with("drained")).unwrap_or("").to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached after a successful shutdown too, where both are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Parses Prometheus text exposition: comment lines are skipped, every
/// other line is `series value`.
pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_text_parses_by_series() {
        let text = "# HELP x y\nperpetuum_queue_depth 3\n\
                    perpetuum_session_replans_total{kind=\"full\"} 7\n";
        let m = parse_metrics(text);
        assert_eq!(m.get("perpetuum_queue_depth"), Some(&3.0));
        assert_eq!(m.get("perpetuum_session_replans_total{kind=\"full\"}"), Some(&7.0));
        assert_eq!(
            address_in("listening on http://127.0.0.1:4242\n"),
            "127.0.0.1:4242".parse().ok()
        );
        assert_eq!(flags(&["--cache", "8"])[6..], ["--cache".to_string(), "8".to_string()]);
    }
}
