//! Metric values, small statistics, digests and the result line.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::Outcome;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
/// On an empty slice: every caller measures at least one operation.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One `setup_s` sample: the per-call time of `block` calls `f(0..block)`.
/// Callers take their samples between operations across the whole run,
/// so that the `setup_s` median sees the machine conditions the
/// operations saw.
pub fn setup_sample<R>(block: u32, mut f: impl FnMut(u32) -> R) -> f64 {
    let t = Instant::now();
    for i in 0..block {
        black_box(f(i));
    }
    t.elapsed().as_secs_f64() / f64::from(block)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit FNV-1a digest of a deterministic output's text rendering,
/// printed so that a change can show its outputs unchanged.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, text: &str) {
        for b in text.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`. Values print with all their digits (Rust's
/// shortest round-trip form).
pub fn result_json(out: &Outcome) -> String {
    let mut s = String::new();
    write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    )
    .expect("writing to a String cannot fail");
    for (i, m) in out.metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}
