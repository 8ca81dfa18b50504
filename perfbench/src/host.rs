//! The host side of a result: the environment stamp, process CPU and memory
//! counters, and order statistics.

use std::path::Path;
use std::process::Command;

/// What every result is stamped with, so wall-clock numbers can be compared
/// across machines.
#[derive(Debug, Clone)]
pub struct EnvStamp {
    /// Online CPUs.
    pub nproc: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` in a git checkout, else a digest of the
    /// program's sources under `crates/`.
    pub commit: String,
}

impl EnvStamp {
    /// Collects the stamp; every probe falls back to `"unknown"`.
    #[must_use]
    pub fn collect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
        let commit = Path::new(".git")
            .exists()
            .then(|| command_line("git", &["rev-parse", "HEAD"]))
            .flatten()
            .or_else(|| {
                source_digest(Path::new("crates")).map(|d| format!("source-fnv1a:{d:016x}"))
            })
            .unwrap_or_else(|| "unknown".into());
        EnvStamp {
            nproc,
            cpu_model,
            rustc,
            commit,
        }
    }

    /// One JSON object, with the threads the workload ran on.
    #[must_use]
    pub fn json(&self, threads: usize) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {:?}, \"rustc\": {:?}, \"commit\": {:?}, \
             \"threads\": {threads}}}",
            self.nproc, self.cpu_model, self.rustc, self.commit
        )
    }
}

/// The first line a command prints, if it runs and succeeds. Waits for it.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_owned())
}

/// An order-independent digest of every `.rs` and `Cargo.toml` under `dir`.
fn source_digest(dir: &Path) -> Option<u64> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).ok()?.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut h = crate::check::Fnv::default();
    for f in files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(&f).ok()?);
    }
    Some(h.finish())
}

/// CPU seconds (user + system) this process has used, all threads.
#[must_use]
pub fn cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in USER_HZ (100/s on Linux); the
    // command name in field 2 may hold spaces, so count from its `)`.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// A numeric field of `/proc/self/status`.
fn status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident memory of this process, MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Threads this process runs right now.
#[must_use]
pub fn threads() -> usize {
    status_field("Threads:").map_or(1, |n| n as usize)
}

/// The median (mean of the middle two for an even count); 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile by linear interpolation between order statistics.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
