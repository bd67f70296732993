//! What a measurement was taken on, and how much memory it used.

use esched_obs::json::Value;

/// The host block of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Logical CPUs the process may use.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain that built the benchmark.
    pub rustc: String,
    /// Worker count of the engine pools.
    pub workers: usize,
    /// The `ESCHED_ENGINE_THREADS` override, when set.
    pub engine_threads_env: Option<String>,
    /// Short git SHA of the checkout, or `nogit` outside a repository.
    pub git_sha: String,
}

impl Host {
    /// Describe this process's host.
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        // Only ask git inside a checkout's own root, so the benchmark
        // never reads a repository above the directory it runs in.
        let git_sha = std::path::Path::new(".git")
            .exists()
            .then(esched_obs::report::git_short_sha)
            .flatten()
            .unwrap_or("nogit")
            .to_string();
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("ESCHED_PERF_RUSTC").to_string(),
            workers: esched_obs::report::engine_workers(),
            engine_threads_env: std::env::var("ESCHED_ENGINE_THREADS").ok(),
            git_sha,
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("nproc", Value::Num(self.nproc as f64)),
            ("cpu_model", Value::Str(self.cpu_model.clone())),
            ("rustc", Value::Str(self.rustc.clone())),
            ("workers", Value::Num(self.workers as f64)),
            (
                "engine_threads_env",
                self.engine_threads_env
                    .clone()
                    .map_or(Value::Null, Value::Str),
            ),
            ("git_sha", Value::Str(self.git_sha.clone())),
        ])
    }

    /// Parse [`Host::to_json`] output.
    pub fn from_json(v: &Value) -> Option<Self> {
        let text = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        let count = |k: &str| v.get(k).and_then(Value::as_u64).map(|n| n as usize);
        Some(Self {
            nproc: count("nproc")?,
            cpu_model: text("cpu_model")?,
            rustc: text("rustc")?,
            workers: count("workers")?,
            engine_threads_env: text("engine_threads_env"),
            git_sha: text("git_sha")?,
        })
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak-RSS count, so that consecutive workloads in one
/// process each report their own peak: hand the free heap the allocator
/// kept from earlier workloads back to the kernel, then reset `VmHWM` to
/// the resident size. Best effort: where either step is unavailable, later
/// workloads count memory earlier ones used.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc declares `int malloc_trim(size_t pad)`, which the
        // signature above matches. It takes each arena's lock and only
        // returns free pages to the kernel, so it is safe to call at any
        // time from any thread, with any `pad`.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
