//! Host-side measurements that use no repository code: a calibration loop
//! for host noise, and the process's peak resident set.

use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Rounds of one calibration loop (about 50 ms on a 2.1 GHz core).
const CALIB_ROUNDS: u64 = 20_000_000;

/// Time a fixed integer loop three times; the median in milliseconds.
/// Run before and after a workload, its drift flags a host whose speed
/// changed under the measurement.
pub fn calibrate() -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            let mut acc: u64 = 0;
            for i in 0..black_box(CALIB_ROUNDS) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x.wrapping_mul(i | 1));
            }
            black_box(acc);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[1]
}

/// Let the file system settle: write and `fsync` a marker file in `dir`.
/// The fsync commits the journal's running transaction, and with it the
/// deferred work earlier passes queued (block frees and their discards,
/// metadata of renamed manifests), so the next timed pass does not pay for
/// them. Called only outside timed regions. Best effort.
pub fn settle(dir: &Path) {
    let synced = std::fs::File::create(dir.join(".settle")).and_then(|mut f| {
        f.write_all(b"settle")?;
        f.sync_all()
    });
    if let Err(e) = synced {
        eprintln!(
            "benchmark: cannot settle the file system in {}: {e}",
            dir.display()
        );
    }
}

/// Reset the kernel's peak-RSS mark for this process, so the next
/// [`peak_rss_mib`] covers only what runs after this call (plus what the
/// allocator still holds from before). Best effort.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 when unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mib() > 0.0);
    }
}
