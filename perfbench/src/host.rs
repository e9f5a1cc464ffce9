//! The host descriptor recorded with every result, and process memory.

use std::path::Path;

/// What every result file records about the machine and the inputs.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `calu_bench::perf::calibration_secs`: a fixed single-threaded
    /// kernel workload, the host-speed yardstick of the perf gates.
    pub calibration_secs: f64,
    /// The commit of the checkout, when it is a git checkout.
    pub commit: String,
}

impl Host {
    /// Probe the host. Reads only `/proc` and the checkout's own `.git`.
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            calibration_secs: calu_bench::perf::calibration_secs(),
            commit: commit(Path::new(".")),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `HEAD`'s commit read from `root/.git` without running git (which
/// would search parent directories); `"unknown"` outside a checkout.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs")).and_then(|packed| {
                packed.lines().find_map(|l| {
                    l.strip_suffix(reference)
                        .map(|h| h.trim().to_string())
                        .filter(|h| !h.is_empty())
                })
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
