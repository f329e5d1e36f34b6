//! Process-level measurements: live heap bytes, peak resident set, and
//! the small statistics the benchmark reports.

/// `struct mallinfo2` of glibc (2.33 and later): ten `size_t` fields.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Bytes currently allocated on the heap by this process, as glibc's
/// allocator accounts them over all its arenas: chunks in use plus
/// mmapped chunks. Read from the allocator's own totals, so allocations
/// pay nothing extra for it.
pub fn live_heap_bytes() -> usize {
    // SAFETY: `mallinfo2` takes no arguments, only reads the allocator's
    // statistics under its own locks, and returns the struct by value.
    let info = unsafe { mallinfo2() };
    info.uordblks + info.hblkhd
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Nearest-rank quantile `q` of `samples` (sorted in place).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&mut samples.to_vec(), 0.5)
}
