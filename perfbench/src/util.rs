//! Seeded inputs, robust statistics and the run clock.

use std::sync::OnceLock;
use std::time::Instant;

/// SplitMix64: a small, fast, fully deterministic generator.  Every input
/// the benchmark feeds the server comes from one of these, seeded by
/// `--seed`, so the same seed always produces the same traffic.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    /// A generator for one named input stream of the run, independent of
    /// the others drawn from the same seed.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed);
        r.0 = r.0.wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// Seeded µ-law payload bytes.  µ-law `0x7F` is negative zero, which the
/// server's mix tables normalize to `0xFF` (positive zero); it is mapped
/// here so a payload mixed onto silence comes back unchanged and the
/// broadcast check can be bit-exact.
pub fn ulaw_payload(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill(&mut v);
    for b in v.iter_mut() {
        if *b == 0x7F {
            *b = 0xFF;
        }
    }
    v
}

/// Nanoseconds since the first call in this process: the time base of
/// every latency and span.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Nearest-rank percentile of a sorted slice (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

/// A latency sample summarised the way the report prints it: median, p99,
/// and the highest percentile with at least ten samples beyond it.
#[derive(Clone, Debug)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub top_label: &'static str,
    pub top: f64,
}

impl Dist {
    /// Failed operations enter as `f64::INFINITY`: they miss every limit.
    pub fn of(mut v: Vec<f64>) -> Dist {
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (top_label, p) = [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9), ("p50", 0.5)]
            .into_iter()
            .find(|(_, p)| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
            .unwrap_or(("max", 1.0));
        Dist {
            n,
            p50: percentile(&v, 0.5),
            p99: percentile(&v, 0.99),
            top_label,
            top: percentile(&v, p),
        }
    }
}

/// Formats a metric value for JSON: full precision, and never a token JSON
/// cannot carry.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn highest_supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(Dist::of(vec![1.0; 100]).top_label, "p90");
        assert_eq!(Dist::of(vec![1.0; 1000]).top_label, "p99");
        assert_eq!(Dist::of(vec![1.0; 10_000]).top_label, "p99.9");
        assert_eq!(Dist::of(vec![1.0; 25]).top_label, "p50");
        assert_eq!(Dist::of(vec![1.0; 15]).top_label, "max");
    }

    #[test]
    fn failures_count_as_missing_the_limit() {
        let mut v = vec![10.0; 98];
        v.extend([f64::INFINITY; 2]);
        assert_eq!(Dist::of(v).p99, f64::INFINITY);
    }
}
