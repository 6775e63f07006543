//! What the host delivers: core count, measured two-thread parallel
//! efficiency, pinning, and the process's resident-memory high-water
//! mark.

use std::hint::black_box;
use std::time::Instant;

/// The host-calibration block printed beside every result set.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// One work unit on one thread ÷ one work unit on each of two
    /// threads at once: 1.0 means two real cores, 0.5 means one.
    pub parallel_efficiency: f64,
    /// Whether this process may run on fewer CPUs than are online.
    pub pinned: bool,
}

impl Calibration {
    /// One JSON line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"parallel_efficiency\": {:.3}, \"pinned\": {}}}",
            self.nproc, self.parallel_efficiency, self.pinned
        )
    }
}

fn spin(units: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..units {
        x = black_box(x.rotate_left(7) ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    x
}

/// Measures the host: median of three rounds of one spinning thread
/// against two spinning threads, each doing the same work unit
/// (about 30 ms a round on one core).
pub fn calibrate() -> Calibration {
    const UNIT: u64 = 20_000_000;
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        black_box(spin(UNIT));
        let one = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(|| spin(UNIT));
            let b = s.spawn(|| spin(UNIT));
            black_box(a.join().expect("calibration thread panicked"));
            black_box(b.join().expect("calibration thread panicked"));
        });
        let two = t.elapsed().as_secs_f64();
        ratios.push(one / two);
    }
    ratios.sort_by(f64::total_cmp);
    Calibration {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        parallel_efficiency: ratios[1],
        pinned: is_pinned(),
    }
}

/// Counts the CPUs of a Linux cpu-list such as `0-3,6`.
fn count_cpu_list(list: &str) -> Option<usize> {
    let mut n = 0;
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        n += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()?.checked_sub(a.parse().ok()?)? + 1,
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    Some(n)
}

fn is_pinned() -> bool {
    let allowed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .and_then(count_cpu_list)
        });
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .and_then(|s| count_cpu_list(&s));
    matches!((allowed, online), (Some(a), Some(o)) if a < o)
}

/// Resets the resident-memory high-water mark to the current resident
/// size, so memory touched before this call (the benchmark's own input
/// generation) is not counted. Returns false where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The resident-memory high-water mark in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count() {
        assert_eq!(count_cpu_list("0-3,6\n"), Some(5));
        assert_eq!(count_cpu_list("0"), Some(1));
        assert_eq!(count_cpu_list("x"), None);
    }
}
