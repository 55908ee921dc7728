//! Small measurement helpers: latency samples, digests, peak memory and
//! the JSON result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one duration.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw values, in milliseconds.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (mean of the middle two for an even count).
    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100); NaN when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The tail percentile reported as "p99": 99, or lower when fewer
    /// than 1000 samples leave fewer than ten beyond it. Returns
    /// `(percentile, value)`; `None` with fewer than 20 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.0.len();
        if n < 20 {
            return None;
        }
        let p = (100.0 * (1.0 - 10.0 / n as f64)).floor().min(99.0);
        Some((p, self.percentile(p)))
    }
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_INIT`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Resets this process's `VmHWM` to its current resident set (Linux
/// `clear_refs` value 5), so that a later [`peak_rss_mb`] covers only
/// what follows. Returns false where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A value of the catalogued metric `name`.
    pub fn new(name: &'static str, value: f64) -> Metric {
        let def = crate::catalog::def(name).expect("every reported metric is catalogued");
        Metric {
            name: def.name,
            value,
            unit: def.unit,
        }
    }
}

/// The last line of standard output: the machine-readable result.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; they only arise from a broken
        // run, which is already reported as incorrect.
        let v = if m.value.is_finite() { m.value } else { -1.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 1..=200 {
            s.push(Duration::from_millis(i));
        }
        let (p, v) = s.tail().expect("enough samples");
        assert_eq!(p, 95.0);
        assert_eq!(v, 190.0);
        let beyond = s.values().iter().filter(|&&x| x > v).count();
        assert!(beyond >= 10);
        assert_eq!(s.median(), 100.5);
    }
}
