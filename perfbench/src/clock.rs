//! Host time normalised to a reference host speed.
//!
//! The speed of identical work on a shared host drifts with other
//! tenants' load: on a 2-core Xeon host (2.0 GHz) a fixed loop took
//! 262–467 ms from one second to the next, and sets of runs minutes
//! apart differed by about 20%. A fixed calibration kernel, owned by the
//! benchmark and independent of the library, is timed between units of
//! measured work; each unit's host time is divided by the host's
//! slowness around it (the kernel's time over `REFERENCE_KERNEL_S`).
//! The result reads as seconds on the reference host; a change in the
//! library moves it while a change in host speed largely does not.
//!
//! The kernel mixes what the simulator spends its time on: table
//! interpolation, `exp`, and a streaming `f64` update over an array
//! larger than the L2 cache. On that host, over five seeds of each
//! workload, it cut the spread (IQR over median) of `ops_per_s` from
//! 0.26 in host seconds to 0.022 for `read_mix`, from 0.088 to 0.049
//! for `churn` and from 0.10 to 0.029 for `campaign`.

use std::cell::RefCell;
use std::time::Instant;

/// The kernel pass's median host time on the reference host, a 2-core
/// Xeon at 2.0 GHz, so reference seconds read close to that host's.
const REFERENCE_KERNEL_S: f64 = 1.4e-3;
/// Elements one kernel pass updates.
const PASS_LEN: usize = 1 << 16;
/// The array the passes stream over (2 MiB): four passes cover it.
const ARRAY_LEN: usize = 4 * PASS_LEN;
/// Entries of the interpolation table (256 KiB).
const TABLE_LEN: usize = 1 << 15;
/// Measured seconds between two calibrations inside a phase.
const SLICE_S: f64 = 0.02;
/// Most passes whose median makes one calibration inside a phase.
const MAX_SLICE_PASSES: usize = 5;
/// Passes whose median brackets a set-up.
const BRACKET_PASSES: usize = 9;

/// The calibration kernel's working set, allocated once per process.
struct Kernel {
    table: Vec<f64>,
    data: Vec<f64>,
    cursor: usize,
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel {
        table: (0..=TABLE_LEN).map(|i| (i as f64 * 1e-4).sin()).collect(),
        data: (0..ARRAY_LEN).map(|i| (i as f64 * 0.37).fract()).collect(),
        cursor: 0,
    });
}

/// Runs one kernel pass; returns its host seconds.
fn pass() -> f64 {
    KERNEL.with_borrow_mut(|k| {
        let t0 = Instant::now();
        let n = TABLE_LEN as f64;
        let mut acc = 0.0;
        for (i, v) in k.data[k.cursor..k.cursor + PASS_LEN].iter_mut().enumerate() {
            let x = (*v * 0.999 + (i & 1023) as f64 * 1e-3).fract().abs() * n;
            let j = x as usize;
            let f = x - j as f64;
            let y = k.table[j] + f * (k.table[j + 1] - k.table[j]);
            *v = (y * 0.1).exp() - 1.0 + *v * 0.5;
            acc += *v;
        }
        std::hint::black_box(acc);
        k.cursor = (k.cursor + PASS_LEN) % ARRAY_LEN;
        t0.elapsed().as_secs_f64()
    })
}

/// The median host seconds of `n` passes, and their total.
fn median_pass(n: usize) -> (f64, f64) {
    let mut s: Vec<f64> = (0..n).map(|_| pass()).collect();
    s.sort_by(f64::total_cmp);
    (s[n / 2], s.iter().sum())
}

/// The host slowness now, steadied over several passes: 1 on the
/// reference host.
fn steady_slowness() -> f64 {
    median_pass(BRACKET_PASSES).0 / REFERENCE_KERNEL_S
}

/// Runs `f` once and returns its result and its reference seconds, the
/// host slowness taken from calibrations just before and after.
pub fn bracket<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = steady_slowness();
    let t0 = Instant::now();
    let out = f();
    let host_s = t0.elapsed().as_secs_f64();
    let after = steady_slowness();
    (out, host_s / ((before + after) / 2.0))
}

/// Times a sequence of units of work in reference seconds. The units
/// are grouped into slices of at least `SLICE_S` host seconds with a
/// calibration between slices; a slice's units are divided by the mean
/// slowness of the calibrations on either side. A calibration after a
/// long slice (long units) takes the median of more passes, up to
/// `MAX_SLICE_PASSES`, which keeps its cost near one pass per `SLICE_S`.
#[derive(Debug, Default)]
pub struct Stopwatch {
    /// Host seconds spent calibrating.
    calibration_s: f64,
    /// Host seconds of each unit.
    host_s: Vec<f64>,
    /// Reference seconds of each unit of a closed slice.
    reference_s: Vec<f64>,
    /// Slowness at the start of the open slice; `None` before the
    /// first calibration.
    opened: Option<f64>,
    /// Host seconds of the open slice.
    open_s: f64,
}

impl Stopwatch {
    /// Calibrates when the open slice is full, and before the first
    /// unit. Called between units, outside any span, so calibration
    /// time falls into no unit.
    pub fn calibrate_if_due(&mut self) {
        if self.opened.is_none() {
            self.opened = Some(self.slowness(1));
        } else if self.open_s >= SLICE_S {
            self.close_slice();
        }
    }

    /// Runs and times one unit; returns its result and its index.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, usize) {
        let t0 = Instant::now();
        let out = f();
        let s = t0.elapsed().as_secs_f64();
        self.host_s.push(s);
        self.open_s += s;
        (out, self.host_s.len() - 1)
    }

    /// Host slowness now, the median of `passes` kernel passes.
    fn slowness(&mut self, passes: usize) -> f64 {
        let (median, total) = median_pass(passes);
        self.calibration_s += total;
        median / REFERENCE_KERNEL_S
    }

    fn close_slice(&mut self) {
        let passes = ((self.open_s / SLICE_S) as usize).clamp(1, MAX_SLICE_PASSES);
        let before = match self.opened {
            Some(s) => s,
            None => self.slowness(passes),
        };
        let after = self.slowness(passes);
        let slowness = (before + after) / 2.0;
        let from = self.reference_s.len();
        self.reference_s
            .extend(self.host_s[from..].iter().map(|s| s / slowness));
        self.opened = Some(after);
        self.open_s = 0.0;
    }

    /// Closes the last slice. Returns each unit's reference seconds,
    /// the units' host seconds in total, and the host seconds spent
    /// calibrating.
    pub fn finish(mut self) -> (Vec<f64>, f64, f64) {
        if self.reference_s.len() < self.host_s.len() {
            self.close_slice();
        }
        let host = self.host_s.iter().sum();
        (self.reference_s, host, self.calibration_s)
    }
}
