//! The environment stamp every result carries, and process memory.

use std::path::Path;
use std::process::Command;

/// What a result was measured on and with.
#[derive(Clone, Debug)]
pub struct Stamp {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a digest of the sources the benchmark was built from, so
    /// results from checkouts without git history stay attributable.
    pub source_digest: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Usable cores.
    pub nproc: usize,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed-phase length in seconds.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub traced: bool,
}

impl Stamp {
    /// Stamp a run from the current directory (the repository root).
    pub fn collect(workload: &str, seed: u64, seconds: u64, traced: bool) -> Stamp {
        Stamp {
            commit: git_head().unwrap_or_else(|| "unknown".into()),
            source_digest: format!("{:016x}", source_digest(Path::new("."))),
            rustc: env!("KOPBENCH_RUSTC"),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: env!("KOPBENCH_PROFILE"),
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\":{},\"source_digest\":{},\"rustc\":{},\"nproc\":{},\"profile\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"mode\":{}}}",
            json_str(&self.commit),
            json_str(&self.source_digest),
            json_str(self.rustc),
            self.nproc,
            json_str(self.profile),
            json_str(&self.workload),
            self.seed,
            self.seconds,
            json_str(if self.traced { "traced" } else { "untraced" }),
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn git_head() -> Option<String> {
    // Only this checkout's own history: never a repository above it.
    if !Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the relative paths and contents of every `.rs` and
/// `Cargo.toml` file under `crates/` and `kopbench/src/`, plus
/// `Cargo.lock`, visited in sorted order.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("kopbench/src"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(f.to_string_lossy().as_bytes());
            h.write(&bytes);
        }
    }
    h.finish()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// 64-bit FNV-1a, for output digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in a little-endian u64.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
