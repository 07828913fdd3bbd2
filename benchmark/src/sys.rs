//! Process and machine facts the harness reports: peak RSS, bytes on disk,
//! scratch directories inside the checkout, and the machine fingerprint.

use std::path::{Path, PathBuf};

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sum of the sizes of the regular files directly inside `dir` whose name
/// passes `keep`.
pub fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_file() && keep(&entry.file_name().to_string_lossy()) {
            total += meta.len();
        }
    }
    Ok(total)
}

/// A scratch directory under `benchmark/out/`, removed on drop. Everything
/// the benchmark writes stays inside the checkout it was started from.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Create `benchmark/out/tmp-<pid>-<label>` (relative to the package,
    /// wherever the process was started).
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let path = out_dir().join(format!("tmp-{}-{label}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

/// `benchmark/out`: traces, result sets and scratch directories.
pub fn out_dir() -> PathBuf {
    // The binary lives in <target>/release/, which may be anywhere; the
    // package directory is fixed at build time.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `nproc`, CPU model and flags, kernel and compiler: recorded with every
/// result set so numbers from a 2-vCPU container are labelled as such.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(String::new, |v| v.trim().to_string())
    };
    let flags = field("flags");
    let simd: Vec<&str> = flags
        .split_whitespace()
        .filter(|f| {
            matches!(
                *f,
                "sse4_2" | "avx" | "avx2" | "bmi1" | "bmi2" | "popcnt" | "avx512f" | "avx512bw"
            )
        })
        .collect();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model", field("model name")),
        ("cpu_flags", simd.join(" ")),
        ("kernel", kernel.trim().to_string()),
        ("rustc", env!("STACK_BENCH_RUSTC").to_string()),
    ]
}
