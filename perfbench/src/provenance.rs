//! What a result was measured on: source revision, machine, toolchain,
//! date, seed and the exact daemon flags.

use crate::Ctx;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher as _;
use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Sources hashed into the digest, relative to the checkout root.
const SOURCES: [&str; 5] = ["Cargo.toml", "Cargo.lock", "crates", "src", "perfbench/src"];

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn hash_tree(path: &Path, h: &mut DefaultHasher) {
    if path.is_dir() {
        let Ok(entries) = std::fs::read_dir(path) else { return };
        let mut children: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        children.sort();
        for child in children {
            if child.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            hash_tree(&child, h);
        }
    } else if let Ok(bytes) = std::fs::read(path) {
        h.write(path.to_string_lossy().as_bytes());
        h.write(&bytes);
    }
}

/// A digest of the benchmarked sources, for checkouts without git.
fn source_digest() -> String {
    let mut h = DefaultHasher::new();
    for s in SOURCES {
        hash_tree(Path::new(s), &mut h);
    }
    format!("{:016x}", h.finish())
}

/// UTC `YYYY-MM-DDTHH:MM:SSZ` from the system clock.
fn utc_now() -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil date from days since 1970-01-01 (Howard Hinnant's algorithm).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

fn quoted(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| "\"?\"".to_string())
}

/// The provenance record of a run, as one JSON object.
pub fn json(ctx: &Ctx, daemon_flags: &[String]) -> String {
    let git = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unavailable".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let flags: Vec<String> = daemon_flags.iter().map(|f| quoted(f)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"git_sha\":{},\
         \"source_digest\":{},\"nproc\":{nproc},\"profile\":{},\"rustc\":{},\"date\":{},\
         \"daemon\":{},\"daemon_flags\":[{}]}}",
        quoted(&ctx.workload),
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        quoted(&git),
        quoted(&source_digest()),
        quoted(profile),
        quoted(&rustc),
        quoted(&utc_now()),
        quoted(&ctx.serve_bin.display().to_string()),
        flags.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_is_iso_shaped() {
        let d = utc_now();
        assert_eq!(d.len(), 20, "{d}");
        assert!(d.starts_with("20") && d.ends_with('Z') && &d[10..11] == "T", "{d}");
    }
}
