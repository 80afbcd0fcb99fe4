//! End-to-end benchmark of the gnr-flash stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <churn|read_mix|campaign> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics of
//! a separate traced run. See `perfbench/README.md`.

mod clock;
mod layers;
mod reference;
mod trace;
mod workloads;

use std::process::ExitCode;

use trace::{median, quantile, Tracer};
use workloads::{Measured, State, Workload, REPS, SHAPE};

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::from_name(&workload_name).ok_or_else(|| {
            format!("unknown workload `{workload_name}` (churn, read_mix, campaign)")
        })?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Correctness bookkeeping of one run.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    check_failures: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    fn absorb(&mut self, m: &Measured) {
        self.attempted += m.attempted;
        self.failed += m.failed;
        self.check_failures.extend(m.check_failures.iter().cloned());
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times one set-up in reference seconds and checks that its fill
/// succeeded.
fn timed_setup(args: &Args, seed: u64, times: &mut Vec<f64>, outcome: &mut Outcome) -> State {
    let ((state, failed), seconds) = clock::bracket(|| workloads::setup(args.workload, seed));
    times.push(seconds);
    outcome.check(failed == 0, || format!("{failed} set-up writes failed"));
    state
}

/// The repetitions of one run reduced to one record: the median over
/// the repetitions, which all execute the same work from same-seed
/// set-ups. Times are reference times (see `clock`).
pub struct Reduced {
    /// Median set-up time.
    pub setup_s: f64,
    pub ops_per_s: f64,
    /// `ops_per_s` in host seconds, not normalised.
    pub host_ops_per_s: f64,
    pub read_p50_us: f64,
    pub read_p99_us: f64,
    /// Host seconds of every repetition's whole phase, summed.
    pub wall_s: f64,
    /// The last repetition.
    pub last: Measured,
}

/// Median over the repetitions of `f`.
fn median_of(reps: &[Measured], f: impl Fn(&Measured) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Nearest-rank quantile `q` of one repetition's read latencies.
fn read_quantile(m: &Measured, q: f64) -> f64 {
    let mut reads = m.read_us.clone();
    reads.sort_by(f64::total_cmp);
    quantile(&reads, q)
}

/// Sets up and runs the measured phase `REPS` times, checks that every
/// repetition did exactly the same, and reduces them. Returns the last
/// repetition's final state too. Each repetition has its own set-up from
/// the seed, so set-up times are sampled across the whole run; one more
/// set-up from another seed must reach a different state.
fn measure(args: &Args, tracer: &mut Tracer, outcome: &mut Outcome) -> (Reduced, State) {
    let mut setup_times = Vec::new();
    let other_seed = args.seed ^ 0x9e37_79b9_7f4a_7c15;
    let other = timed_setup(args, other_seed, &mut setup_times, outcome);
    let other_digest = workloads::early_digest(args.workload, other, args.seconds);
    let mut setup_digests = Vec::new();
    let mut reps = Vec::new();
    let mut last_state = None;
    for _ in 0..REPS {
        drop(last_state.take());
        let start = timed_setup(args, args.seed, &mut setup_times, outcome);
        setup_digests.push(start.controller.state_digest());
        let (m, state) = workloads::run_rep(args.workload, start, args.seconds, tracer);
        outcome.absorb(&m);
        last_state = Some(state);
        reps.push(m);
    }
    outcome.check(setup_digests.iter().all(|&d| d == setup_digests[0]), || {
        format!("same-seed set-ups differ: {setup_digests:x?}")
    });
    let first = &reps[0];
    let own_digest = first.early_digest.unwrap_or(setup_digests[0]);
    match other_digest {
        Ok(d) => outcome.check(d != own_digest, || {
            "a different seed reached the same state digest".to_string()
        }),
        Err(e) => outcome.check(false, || e),
    }
    for m in &reps[1..] {
        outcome.check(
            m.digest == first.digest
                && m.early_digest == first.early_digest
                && m.gc_relocations == first.gc_relocations
                && m.trajectory == first.trajectory
                && m.read_us.len() == first.read_us.len(),
            || {
                format!(
                    "repetitions of one seed diverged: digest {:016x} vs {:016x}",
                    first.digest, m.digest
                )
            },
        );
    }
    let reduced = Reduced {
        setup_s: median(&setup_times),
        ops_per_s: median_of(&reps, |m| m.ops as f64 / m.seconds),
        host_ops_per_s: median_of(&reps, |m| m.ops as f64 / m.host_s),
        read_p50_us: median_of(&reps, |m| read_quantile(m, 0.5)),
        read_p99_us: median_of(&reps, |m| read_quantile(m, 0.99)),
        wall_s: reps.iter().map(|m| m.wall_s).sum(),
        last: reps.pop().expect("at least one repetition"),
    };
    (reduced, last_state.expect("at least one repetition"))
}

/// The determinism record a run prints: two runs with the same seed
/// must print identical lines.
fn print_determinism(m: &Measured) {
    let traj: Vec<String> = m
        .trajectory
        .iter()
        .map(|(rber, uber)| format!("[{rber:e},{uber:e}]"))
        .collect();
    let early = m
        .early_digest
        .map_or_else(|| "null".to_string(), |d| format!("\"{d:016x}\""));
    println!(
        "{{\"determinism\": {{\"digest\": \"{:016x}\", \"early_digest\": {early}, \
         \"gc_relocations\": {}, \"rber_uber\": [{}]}}}}",
        m.digest,
        m.gc_relocations,
        traj.join(",")
    );
}

/// The host-time view of a run, for reading beside the reference-time
/// metrics: `ops_per_s` in host seconds and the host's slowness.
fn print_host(r: &Reduced) {
    println!(
        "{{\"host\": {{\"ops_per_s\": {}, \"slowness\": {}}}}}",
        r.host_ops_per_s,
        r.ops_per_s / r.host_ops_per_s
    );
}

fn run_untraced(args: &Args, outcome: &mut Outcome) -> Vec<Metric> {
    let (r, _) = measure(args, &mut Tracer::new(false), outcome);
    print_determinism(&r.last);
    print_host(&r);
    let m = &r.last;
    vec![
        metric("ops_per_s", r.ops_per_s, "1/s"),
        metric("setup_s", r.setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric(
            "write_amp",
            (m.host_writes + m.gc_relocations) as f64 / m.host_writes.max(1) as f64,
            "ratio",
        ),
        metric("read_p50_us", r.read_p50_us, "us"),
        metric("read_p99_us", r.read_p99_us, "us"),
    ]
}

/// The traced run: the measured phase untraced, then traced, from the
/// same seed. Both must end digest-identical; the ratio of their
/// `ops_per_s` is the tracing overhead.
fn run_traced(args: &Args, outcome: &mut Outcome) -> Vec<Metric> {
    let (untraced, _) = measure(args, &mut Tracer::new(false), outcome);
    let mut tracer = Tracer::new(true);
    let (traced, state) = measure(args, &mut tracer, outcome);
    print_determinism(&traced.last);
    print_host(&traced);
    outcome.check(
        traced.last.digest == untraced.last.digest
            && traced.last.gc_relocations == untraced.last.gc_relocations
            && traced.last.trajectory == untraced.last.trajectory,
        || "traced and untraced runs of one seed diverged".to_string(),
    );
    let nand = layers::nand_timings(&state.controller);
    layers::metrics(&tracer, &nand, &traced, &untraced)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .expect("the global pool is sized before first use");
    let threads = rayon::current_num_threads();
    if threads != 1 {
        eprintln!("perfbench: the rayon pool has {threads} workers, not 1");
        return ExitCode::from(1);
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"threads\": {threads}, \"cores\": {cores}, \"backend\": \"gnr-floating-gate\", \
         \"shape\": \"{}x{}x{}\", \"clients\": 1, \"loop\": \"closed\"}}}}",
        args.workload_name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        SHAPE.blocks,
        SHAPE.pages_per_block,
        SHAPE.page_width,
    );

    let mut outcome = Outcome::default();
    let metrics = if args.trace {
        run_traced(&args, &mut outcome)
    } else {
        run_untraced(&args, &mut outcome)
    };
    for failure in &outcome.check_failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    outcome.check(finite, || "a metric is not a finite number".to_string());
    let correct = outcome.failed == 0 && outcome.check_failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
