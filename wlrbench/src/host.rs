//! The host side of a run: process counters from `/proc/self` and the
//! machine stamp printed beside every result.

use std::fs;

/// Nanoseconds this (single-threaded) process has spent on a CPU: the
/// first field of `/proc/self/schedstat`; 0 where it is unavailable.
pub fn on_cpu_ns() -> u64 {
    fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size so far (`VmHWM`), in MiB; 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unavailable".into())
}

/// The checked-out revision, read from `.git` in the working directory
/// (the benchmark runs from the repository root); "unavailable" outside
/// a git checkout.
fn git_revision() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let rev = read(".git/HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
        None => Some(head),
    });
    rev.unwrap_or_else(|| "unavailable".into())
}

/// One JSON line describing the machine and the run, so a run the
/// scheduler preempted (low `on_cpu_share`) is visible next to its figures.
pub fn stamp(workload: &str, seed: u64, rounds: usize, on_cpu_share: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"stamp\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"rounds\": {rounds}, \
         \"nproc\": {nproc}, \"cpu\": {:?}, \"profile\": \"{profile}\", \"git\": {:?}, \
         \"threads\": 1, \"on_cpu_share\": {on_cpu_share:.4}}}}}",
        cpu_model(),
        git_revision()
    )
}
