//! Latency samples at nanosecond resolution.
//!
//! Every committed operation in the measured window keeps its own
//! sample, and percentiles are read off the sorted samples, so a 1 %
//! change in a percentile is visible (a bucketed histogram would round
//! it to the bucket edge).

use crate::lanes::Lanes;
use sicost_driver::{AttemptObserver, Outcome};
use std::time::{Duration, Instant};

/// The measured interval of a wall-clock run: after `ramp`, for
/// `measure`, counted from `start`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// When the run (and its ramp) began.
    pub start: Instant,
    /// Warm-up excluded from measurement.
    pub ramp: Duration,
    /// Length of the measured interval.
    pub measure: Duration,
}

impl Window {
    /// A window whose ramp starts now.
    pub fn starting_now(ramp: Duration, measure: Duration) -> Self {
        Self {
            start: Instant::now(),
            ramp,
            measure,
        }
    }

    /// True when an interval that ended at `end` after `elapsed` lies
    /// wholly inside the measured window, as the driver counts operations.
    pub fn contains(&self, end: Instant, elapsed: Duration) -> bool {
        let Some(begin) = end.checked_sub(elapsed) else {
            return false;
        };
        begin >= self.start + self.ramp && end <= self.start + self.ramp + self.measure
    }
}

/// Sorted latency samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
    /// Resolution of the samples: each one stands for the interval of
    /// this width centred on its value. 1 for wall-clock samples.
    width: u64,
}

impl Samples {
    /// Sorts `values`, each exact to `width` nanoseconds.
    pub fn new(mut values: Vec<u64>, width: u64) -> Self {
        values.sort_unstable();
        Self {
            sorted: values,
            width: width.max(1),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile in nanoseconds (0 when empty). Samples that share
    /// a value are spread evenly over their resolution interval, the
    /// usual estimate for grouped data; at 1 ns resolution this is the
    /// nearest-rank percentile.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let rank = (q * n as f64).clamp(0.0, (n - 1) as f64);
        let value = self.sorted[rank as usize];
        if self.width == 1 {
            return value as f64;
        }
        let below = self.sorted.partition_point(|&v| v < value);
        let equal = self.sorted.partition_point(|&v| v <= value) - below;
        let w = self.width as f64;
        value as f64 - w / 2.0 + w * (rank - below as f64 + 0.5) / equal as f64
    }

    /// The `q`-quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }
}

/// The median (upper median for an even count; 0 when empty).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Collects the wall-clock latency of every committed attempt that lies
/// inside the window. With retry disabled an attempt is the whole
/// operation, so this is the operation latency the driver measures.
pub struct LatencyRecorder {
    window: Window,
    lanes: Lanes<Vec<u64>>,
}

impl LatencyRecorder {
    /// A recorder for `window`.
    pub fn new(window: Window) -> Self {
        Self {
            window,
            lanes: Lanes::default(),
        }
    }

    /// The recorded samples.
    pub fn samples(&self) -> Samples {
        Samples::new(self.lanes.drain().concat(), 1)
    }
}

impl AttemptObserver for LatencyRecorder {
    fn attempt_begin(&self, _kind: usize, _kind_name: &'static str, _attempt: u32) {}

    fn attempt_end(&self, outcome: Outcome, latency: Duration) {
        if outcome == Outcome::Committed && self.window.contains(Instant::now(), latency) {
            self.lanes.with(|v| v.push(latency.as_nanos() as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_at_nanosecond_resolution() {
        let s = Samples::new((1..=100).rev().collect(), 1);
        assert_eq!(s.len(), 100);
        assert_eq!(s.quantile_ns(0.5), 51.0);
        assert_eq!(s.quantile_ns(0.99), 100.0);
    }

    #[test]
    fn grouped_samples_spread_over_their_interval() {
        // Four samples standing for [95, 105): the quartiles split the
        // interval evenly.
        let s = Samples::new(vec![100; 4], 10);
        assert!((s.quantile_ns(0.5) - 101.25).abs() < 1e-9);
        assert!(s.quantile_ns(0.0) >= 95.0 && s.quantile_ns(0.99) < 105.0);
    }

    #[test]
    fn window_excludes_ramp_and_tail() {
        let w = Window::starting_now(Duration::from_millis(10), Duration::from_millis(10));
        let inside = w.start + Duration::from_millis(15);
        assert!(w.contains(inside, Duration::from_millis(2)));
        assert!(
            !w.contains(inside, Duration::from_millis(8)),
            "began in ramp"
        );
        assert!(!w.contains(w.start + Duration::from_millis(25), Duration::ZERO));
    }
}
