//! Timing one operation, and the order statistics the metrics report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::alloc;

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Peak live heap above the level at the operation's start, bytes.
    pub heap: usize,
    /// Whether the operation returned a verified result.
    pub ok: bool,
}

/// Times `f`, tracking its heap peak. A wrong result or a panic is
/// reported on standard error and counts as a failed sample; the caller
/// carries on.
pub fn measure<T>(f: impl FnOnce() -> Result<T, String>) -> (Sample, Option<T>) {
    alloc::reset_peak();
    let base = alloc::live();
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(f));
    let wall = t.elapsed().as_secs_f64();
    let heap = alloc::peak().saturating_sub(base);
    let value = match result {
        Ok(Ok(value)) => Some(value),
        Ok(Err(e)) => {
            eprintln!("operation failed: {e}");
            None
        }
        Err(_) => {
            eprintln!("operation panicked");
            None
        }
    };
    let ok = value.is_some();
    (Sample { wall, heap, ok }, value)
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The tail statistic: the highest order statistic with at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile: the share of samples at or below it, in percent.
    pub percentile: f64,
    /// Samples above it; fewer than [`TAIL_BEYOND`] only when the run
    /// had too few samples, in which case the value is the maximum.
    pub beyond: usize,
}

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// See [`Tail`].
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    let at = n.checked_sub(TAIL_BEYOND + 1).unwrap_or(n - 1);
    Tail {
        value: sorted[at],
        percentile: 100.0 * (at + 1) as f64 / n as f64,
        beyond: n - 1 - at,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
