//! Peak resident set size of this process, from Linux `/proc`.

/// Reset the kernel's peak-RSS watermark (`VmHWM`) to the current RSS.
/// Returns false where `/proc/self/clear_refs` is missing or read-only;
/// the peak then covers the whole process and is not reported.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak RSS since the last reset, MiB.
pub fn peak_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
