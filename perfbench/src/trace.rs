//! Benchmark-side tracing: spans recorded around the benchmark's own
//! calls into each layer's public functions, kept in memory and reduced
//! to per-layer metrics when the run ends. No tracing is added inside
//! the program; its own counters and zones are read separately through
//! `gnr_telemetry::snapshot()`.

use std::collections::BTreeMap;
use std::time::Instant;

use gnr_flash::engine::cache::{self, EngineCacheStats};
use gnr_telemetry::TelemetrySnapshot;

/// The program's own telemetry over one measured phase.
#[derive(Debug)]
pub struct Program {
    pub telemetry: TelemetrySnapshot,
    pub cache: EngineCacheStats,
}

/// An in-memory span recorder that also scopes the program's telemetry
/// to each measured phase. A disabled tracer records nothing, so the
/// traced and untraced runs execute the same benchmark code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    /// Open spans, innermost last.
    open: Vec<(&'static str, Instant)>,
    /// Durations of the closed spans, µs, by name.
    durations: BTreeMap<&'static str, Vec<f64>>,
    /// Nanoseconds covered by closed top-level spans.
    covered_ns: u64,
    /// Telemetry of the latest measured phase.
    program: Option<Program>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            open: Vec::new(),
            durations: BTreeMap::new(),
            covered_ns: 0,
            program: None,
        }
    }

    /// Turns the program's telemetry and profiling on, zeroed, for one
    /// measured phase.
    pub fn begin_phase(&mut self) {
        if self.enabled {
            gnr_telemetry::set_enabled(true);
            gnr_telemetry::set_profiling(true);
            gnr_telemetry::reset();
            cache::reset();
        }
    }

    /// Captures the phase's telemetry and turns it off again.
    pub fn end_phase(&mut self) {
        if self.enabled {
            self.program = Some(Program {
                telemetry: gnr_telemetry::snapshot(),
                cache: cache::stats(),
            });
            gnr_telemetry::set_profiling(false);
            gnr_telemetry::set_enabled(false);
        }
    }

    /// Telemetry of the latest measured phase (traced runs only).
    pub fn program(&self) -> Option<&Program> {
        self.program.as_ref()
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            self.open.push((name, Instant::now()));
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let (name, start) = self.open.pop().expect("exit matches an enter");
        let elapsed = start.elapsed();
        self.durations
            .entry(name)
            .or_default()
            .push(elapsed.as_secs_f64() * 1e6);
        if self.open.is_empty() {
            self.covered_ns += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// Nanoseconds covered by top-level spans (children lie inside
    /// their parents, so top-level spans alone give the covered time).
    pub fn covered_ns(&self) -> u64 {
        self.covered_ns
    }
}

/// A timing distribution reduced the way every per-layer timing is
/// reported: the median, the highest percentile that still has at
/// least ten samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub p50: f64,
    pub tail: f64,
    /// The percentile `tail` sits at. With ten samples or fewer no
    /// percentile has ten beyond it; `tail` is then the maximum and
    /// this reads 100.
    pub tail_pct: f64,
    pub n: usize,
}

impl Timing {
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Self {
                p50: 0.0,
                tail: 0.0,
                tail_pct: 0.0,
                n,
            };
        }
        let (tail_idx, tail_pct) = if n > 10 {
            (n - 11, 100.0 * (n - 10) as f64 / n as f64)
        } else {
            (n - 1, 100.0)
        };
        Self {
            p50: quantile(&sorted, 0.5),
            tail: sorted[tail_idx],
            tail_pct,
            n,
        }
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}
