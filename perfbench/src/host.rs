//! The host block every result carries. Figures from different hosts
//! are never compared, so each result names the machine, toolchain and
//! build it came from.

/// One JSON object: core count, CPU model, rustc version, build profile
/// and the workload seed.
#[must_use]
pub fn block(workload: &str, seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cores\":{cores},\"cpu\":{},\"rustc\":{},\"profile\":{},\"workload\":{},\"seed\":{seed}}}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(workload),
    )
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings always serialize")
}
