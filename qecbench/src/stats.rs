//! Small measurement helpers: percentiles, resident memory, response
//! hashes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use qec_engine::ExpandResponse;

/// The `q`-quantile (`0..=1`) of `xs` by nearest rank; sorts `xs`.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(&mut xs.to_vec(), 0.5)
}

/// Resident memory of this process now (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Hands the allocator's free pages back to the system, so that the next
/// [`rss_mb`] counts live data only. glibc keeps freed pages resident
/// otherwise, and an engine that reused them would not show in a
/// difference of resident sizes.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: malloc_trim takes no pointers; it only returns whole
        // free pages of the heap to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Runs `f` while a second thread reads [`rss_mb`] every millisecond;
/// returns `f`'s output and the highest resident size seen, the reading
/// after `f` included.
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = rss_mb();
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
                peak = peak.max(rss_mb());
            }
            peak
        });
        let out = f();
        done.store(true, Ordering::Relaxed);
        let peak = sampler.join().expect("memory sampler panicked");
        (out, peak.max(rss_mb()))
    })
}

/// Host CPU time stolen from this machine so far (`/proc/stat` steal
/// column, in seconds at the usual 100 ticks per second); `None` where the
/// kernel does not report it.
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / 100.0)
}

/// FNV-1a over everything a response serves: per cluster its members,
/// added terms and the bits of its P/R/F. Two responses hash equal only
/// if they are bit-identical (up to a 64-bit collision).
pub fn response_hash(resp: &ExpandResponse) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(resp.stats.results as u64);
    eat(resp.clusters().len() as u64);
    for c in resp.clusters() {
        eat(c.docs.len() as u64);
        for d in &c.docs {
            eat(u64::from(d.0));
        }
        eat(c.added.len() as u64);
        for t in &c.added {
            eat(u64::from(t.0));
        }
        eat(c.quality.precision.to_bits());
        eat(c.quality.recall.to_bits());
        eat(c.quality.fmeasure.to_bits());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
    }
}
