//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Every client thread owns one [`Spans`] (no locking on the hot
//! path); the workloads merge them after the timed phase, derive the
//! per-layer metrics from the merged list, and print a per-span summary.

use crate::common::Method;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span duration or count.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Per-layer metric this sample feeds (without the method suffix).
    key: &'static str,
    /// Method the call served, when the metric is split by method.
    method: Option<Method>,
    /// The sample's value in the metric's unit.
    value: f64,
}

/// A thread's span recorder; with tracing off every call is a no-op.
#[derive(Debug, Clone)]
pub struct Spans {
    on: bool,
    samples: Vec<Sample>,
}

impl Spans {
    /// An empty recorder, recording only if `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            samples: Vec::new(),
        }
    }

    /// Records the span `a..b`, in milliseconds divided by `per` (the
    /// number of queries the call served, for per-query metrics).
    pub fn ms(
        &mut self,
        key: &'static str,
        method: Option<Method>,
        a: Instant,
        b: Instant,
        per: f64,
    ) {
        self.count(key, method, (b - a).as_secs_f64() * 1e3 / per);
    }

    /// Records the span `a..b` in seconds.
    pub fn secs(&mut self, key: &'static str, method: Option<Method>, a: Instant, b: Instant) {
        self.count(key, method, (b - a).as_secs_f64());
    }

    /// Records a count (or any other value).
    pub fn count(&mut self, key: &'static str, method: Option<Method>, value: f64) {
        if self.on {
            self.samples.push(Sample { key, method, value });
        }
    }

    /// Moves `other`'s samples into this recorder.
    pub fn merge(&mut self, other: Spans) {
        self.samples.extend(other.samples);
    }

    /// Mean value of the samples under `key` for `method` (`None`
    /// matches every method), and the sample count. 0 without samples.
    pub fn mean(&self, key: &str, method: Option<Method>) -> (f64, usize) {
        let (sum, n) = self
            .samples
            .iter()
            .filter(|s| s.key == key && (method.is_none() || s.method == method))
            .fold((0.0, 0usize), |(sum, n), s| (sum + s.value, n + 1));
        (if n == 0 { 0.0 } else { sum / n as f64 }, n)
    }

    /// Per-name sample counts and total values, sorted by name.
    pub fn summary(&self) -> Vec<(String, usize, f64)> {
        let mut map = BTreeMap::<String, (usize, f64)>::new();
        for s in &self.samples {
            let name = match s.method {
                Some(m) => format!("{}.{}", s.key, m.name()),
                None => s.key.to_string(),
            };
            let e = map.entry(name).or_default();
            e.0 += 1;
            e.1 += s.value;
        }
        map.into_iter().map(|(k, (n, v))| (k, n, v)).collect()
    }
}
