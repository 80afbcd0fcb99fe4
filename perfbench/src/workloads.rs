//! The three workloads. Each has a set-up that builds its starting
//! state, a measured phase that drives the library through public
//! functions only, and a timed read-back of the acknowledged pages,
//! checked against the benchmark's own reference model.

use std::time::Instant;

use gnr_flash::device::FloatingGateTransistor;
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::ispp::nominal_cycle_recipe;
use gnr_flash_array::nand::NandConfig;
use gnr_flash_array::workload::{
    CampaignCheckpoint, CampaignPhase, CampaignRunner, EnduranceCampaign, PagePattern,
    ReplayObserver, TraceSource, WorkloadOp,
};
use gnr_reliability::ber::BerModel;
use gnr_reliability::codec::EccConfig;
use gnr_reliability::uber::ReliabilityObserver;

use crate::clock::Stopwatch;
use crate::reference::{mix, page_bits, Reference, Rng};
use crate::trace::Tracer;

/// The judged shape: 64 blocks × 64 pages × 256 cells (1M cells).
pub const SHAPE: NandConfig = NandConfig {
    blocks: 64,
    pages_per_block: 64,
    page_width: 256,
};

/// Repetitions of the measured phase per run. Each starts from its own
/// set-up from the same seed and executes identical work; the run
/// reports the median over the repetitions (see `README.md`).
pub const REPS: u64 = 6;

/// Host overwrites per `churn` batch.
const CHURN_BATCH: usize = 64;
/// `churn` batches per ten requested seconds, over all repetitions.
const CHURN_BATCHES_PER_10S: u64 = 16;
/// `read_mix` requests per requested second, over all repetitions.
const READ_MIX_REQUESTS_PER_S: u64 = 3600;
/// Share of `read_mix` requests that are writes.
const READ_MIX_WRITE_SHARE: f64 = 0.02;
/// `read_mix`: the hot set is this share of the filled pages …
const HOT_SHARE: usize = 10;
/// … and receives this share of the requests.
const HOT_HITS: f64 = 0.9;
/// Requested seconds per `campaign` round, over all repetitions.
const CAMPAIGN_SECONDS_PER_ROUND: u64 = 4;

/// `total` units of work spread over the repetitions (at least one per
/// repetition).
fn per_rep(total: u64) -> u64 {
    total.div_ceil(REPS).max(1)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Churn,
    ReadMix,
    Campaign,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "churn" => Some(Self::Churn),
            "read_mix" => Some(Self::ReadMix),
            "campaign" => Some(Self::Campaign),
            _ => None,
        }
    }
}

/// A workload's state between phases.
#[derive(Debug)]
pub struct State {
    pub controller: FlashController,
    pub reference: Reference,
    /// The seed the measured phase draws its inputs from.
    pub seed: u64,
}

/// What one repetition of the measured phase did.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations as `ops_per_s` counts them.
    pub ops: u64,
    /// Times the phase's units of work.
    watch: Stopwatch,
    /// Units that were single-page reads.
    read_units: Vec<usize>,
    /// Reference seconds of the phase's units (see `clock`).
    pub seconds: f64,
    /// Host seconds of the phase's units.
    pub host_s: f64,
    /// Host seconds of the whole phase, untimed bookkeeping included and
    /// calibration left out.
    pub wall_s: f64,
    pub host_writes: u64,
    pub gc_relocations: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Single-page read latencies, reference µs: the phase's own reads,
    /// or the read-back's when the phase issues none.
    pub read_us: Vec<f64>,
    /// Campaign RBER/UBER per observation.
    pub trajectory: Vec<(f64, f64)>,
    /// Pages the reliability scans could not decode.
    pub uncorrectable_pages: usize,
    /// Serialized size of each campaign checkpoint.
    pub checkpoint_bytes: Vec<usize>,
    /// Failed checks, described.
    pub check_failures: Vec<String>,
    /// `state_digest()` after the phase and its read-back.
    pub digest: u64,
    /// `campaign`: `state_digest()` after the first window segment, the
    /// first state the seed reaches.
    pub early_digest: Option<u64>,
}

impl Measured {
    /// Runs and times one unit of measured work inside a span. Returns
    /// its result and its index among the phase's units.
    fn unit<R>(
        &mut self,
        tracer: &mut Tracer,
        span: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        self.watch.calibrate_if_due();
        tracer.enter(span);
        let out = self.watch.time(f);
        tracer.exit();
        out
    }
}

/// Fills `lpns` with seeded contents through `write_batch`, recording
/// acknowledged writes. Returns the number of failed writes.
fn fill(state: &mut State, lpns: &[usize], rng: &mut Rng) -> u64 {
    let mut failed = 0;
    for chunk in lpns.chunks(CHURN_BATCH) {
        let seeds: Vec<u64> = chunk.iter().map(|_| rng.next_u64()).collect();
        let jobs = chunk
            .iter()
            .zip(&seeds)
            .map(|(&lpn, &s)| (Some(lpn), page_bits(s, SHAPE.page_width)))
            .collect();
        for ((&lpn, &s), result) in chunk
            .iter()
            .zip(&seeds)
            .zip(state.controller.write_batch(jobs))
        {
            match result {
                Ok(_) => state.reference.acknowledge(lpn, s),
                Err(_) => failed += 1,
            }
        }
    }
    failed
}

/// The campaign every `campaign` run executes: `rounds` of a
/// 1000-cycle epoch jump in four chunks, then an observation window
/// (refill plus 128 random overwrites) scanned at each of four segments.
fn campaign_for(rounds: usize, seed: u64) -> EnduranceCampaign {
    EnduranceCampaign {
        rounds,
        cycles_per_round: 1000,
        epoch_chunk: 250,
        recipe: nominal_cycle_recipe().expect("nominal recipe freezes"),
        window_overwrites: 128,
        window_segment: 1040,
        window_seed: mix(seed),
    }
}

fn observer() -> ReliabilityObserver {
    let ecc = EccConfig::bch_for_width(SHAPE.page_width, 4).expect("codec fits the page");
    ReliabilityObserver::new(&ecc, BerModel::default(), None).expect("observer builds")
}

/// Runs every engine path the workload's measured phase takes on a
/// small throwaway controller, so the process-wide flow-map and
/// cycle-map caches are built during set-up. Cache keys depend on the
/// device and the pulse, not on the array shape.
fn warm_engine_caches(workload: Workload) {
    let small = NandConfig {
        blocks: 4,
        pages_per_block: 4,
        page_width: SHAPE.page_width,
    };
    let mut controller = FlashController::new(small);
    if workload == Workload::Campaign {
        let campaign = EnduranceCampaign {
            window_overwrites: 8,
            window_segment: 4,
            ..campaign_for(2, 0)
        };
        CampaignRunner::new(&campaign)
            .run_to_end(&mut controller, &mut ())
            .expect("warm-up campaign runs");
        return;
    }
    let capacity = controller.logical_capacity();
    let mut rng = Rng::new(0);
    for _ in 0..4 {
        let jobs = (0..capacity)
            .map(|_| {
                (
                    Some(rng.below(capacity)),
                    page_bits(rng.next_u64(), small.page_width),
                )
            })
            .collect();
        for result in controller.write_batch(jobs) {
            result.expect("warm-up write succeeds");
        }
        for result in controller.read_batch(&(0..capacity).collect::<Vec<_>>()) {
            let _ = result;
        }
    }
}

/// Builds the workload's starting state from `seed`: a fresh
/// controller, filled to the starting state, with warm engine caches.
/// Returns the state and the number of fill writes that failed.
pub fn setup(workload: Workload, seed: u64) -> (State, u64) {
    gnr_flash::engine::cache::clear_entries();
    warm_engine_caches(workload);
    let controller = FlashController::new(SHAPE);
    let capacity = controller.logical_capacity();
    let mut state = State {
        controller,
        reference: Reference::new(capacity, SHAPE.page_width, page_bits),
        seed,
    };
    let mut rng = Rng::new(seed ^ 0x5e7u64);
    let filled = match workload {
        Workload::Churn => capacity,
        Workload::ReadMix => capacity / 2,
        Workload::Campaign => 0,
    };
    let lpns: Vec<usize> = (0..filled).collect();
    let failed = fill(&mut state, &lpns, &mut rng);
    (state, failed)
}

/// Runs one repetition of the measured phase, sized by `seconds`, on
/// `state`, then reads every acknowledged page back. Returns the
/// repetition's record and its final state.
pub fn run_rep(
    workload: Workload,
    mut state: State,
    seconds: u64,
    tracer: &mut Tracer,
) -> (Measured, State) {
    let relocations_before = gc_relocations(&state.controller);
    tracer.begin_phase();
    let t0 = Instant::now();
    let mut m = match workload {
        Workload::Churn => churn(&mut state, seconds, tracer),
        Workload::ReadMix => read_mix(&mut state, seconds, tracer),
        Workload::Campaign => campaign(&mut state, seconds, tracer),
    };
    let (unit_s, host_s, calibration_s) = std::mem::take(&mut m.watch).finish();
    m.wall_s = t0.elapsed().as_secs_f64() - calibration_s;
    tracer.end_phase();
    m.seconds = unit_s.iter().sum();
    m.host_s = host_s;
    m.read_us = m.read_units.iter().map(|&i| unit_s[i] * 1e6).collect();
    m.gc_relocations = gc_relocations(&state.controller) - relocations_before;
    let written = state.reference.written();
    let latencies = read_back(&mut state, &written, &mut m);
    if m.read_us.is_empty() {
        m.read_us = latencies;
    }
    m.digest = state.controller.state_digest();
    (m, state)
}

fn gc_relocations(controller: &FlashController) -> u64 {
    controller
        .wear_stats()
        .expect("wear stats are readable")
        .gc_relocations
}

/// `churn`: uniform-random overwrites in fixed-size batches.
fn churn(state: &mut State, seconds: u64, tracer: &mut Tracer) -> Measured {
    let capacity = state.controller.logical_capacity();
    let mut rng = Rng::new(state.seed);
    let mut m = Measured::default();
    for _ in 0..per_rep(seconds * CHURN_BATCHES_PER_10S / 10) {
        let ops: Vec<(usize, u64)> = (0..CHURN_BATCH)
            .map(|_| (rng.below(capacity), rng.next_u64()))
            .collect();
        let jobs = ops
            .iter()
            .map(|&(lpn, s)| (Some(lpn), page_bits(s, SHAPE.page_width)))
            .collect();
        let (results, _) = m.unit(tracer, "controller.write_batch", || {
            state.controller.write_batch(jobs)
        });
        for (&(lpn, s), result) in ops.iter().zip(results) {
            m.attempted += 1;
            match result {
                Ok(_) => state.reference.acknowledge(lpn, s),
                Err(_) => m.failed += 1,
            }
        }
    }
    m.ops = m.attempted;
    m.host_writes = m.attempted;
    m
}

/// `read_mix`: single-page requests, mostly skewed reads with
/// occasional writes, each checked or recorded against the reference.
fn read_mix(state: &mut State, seconds: u64, tracer: &mut Tracer) -> Measured {
    let filled = state.reference.written();
    let hot = &filled[..(filled.len() / HOT_SHARE).max(1)];
    let mut rng = Rng::new(state.seed);
    let mut m = Measured::default();
    for _ in 0..per_rep(seconds * READ_MIX_REQUESTS_PER_S) {
        let write = rng.chance(READ_MIX_WRITE_SHARE);
        let lpn = if rng.chance(HOT_HITS) {
            hot[rng.below(hot.len())]
        } else {
            filled[rng.below(filled.len())]
        };
        m.attempted += 1;
        if write {
            let s = rng.next_u64();
            let jobs = vec![(Some(lpn), page_bits(s, SHAPE.page_width))];
            let (result, _) = m.unit(tracer, "controller.write_batch", || {
                state.controller.write_batch(jobs)
            });
            match result.into_iter().next().expect("one result per job") {
                Ok(_) => state.reference.acknowledge(lpn, s),
                Err(_) => m.failed += 1,
            }
            m.host_writes += 1;
        } else {
            let (result, unit) = m.unit(tracer, "controller.read_batch", || {
                state.controller.read_batch(&[lpn])
            });
            m.read_units.push(unit);
            let ok = matches!(result.first(), Some(Ok(bits)) if state.reference.matches(lpn, bits));
            m.failed += u64::from(!ok);
        }
    }
    m.ops = m.attempted;
    m
}

/// `campaign` rounds per repetition.
fn campaign_rounds(seconds: u64) -> usize {
    per_rep(seconds / CAMPAIGN_SECONDS_PER_ROUND) as usize
}

/// An observer wrapper that records a span around every reliability
/// scan.
struct TimedScan<'a> {
    inner: &'a mut ReliabilityObserver,
    tracer: &'a mut Tracer,
}

impl ReplayObserver for TimedScan<'_> {
    fn observe(
        &mut self,
        controller: &FlashController,
        op_index: usize,
    ) -> gnr_flash_array::Result<()> {
        let inner = &mut *self.inner;
        self.tracer
            .span("reliability.scan", || inner.observe(controller, op_index))
    }
}

/// `campaign`: epoch jumps, scanned observation windows, and one
/// checkpoint round trip per round.
fn campaign(state: &mut State, seconds: u64, tracer: &mut Tracer) -> Measured {
    let rounds = campaign_rounds(seconds);
    let campaign = campaign_for(rounds, state.seed);
    let mut observer = observer();
    let mut runner = CampaignRunner::new(&campaign);
    let mut m = Measured::default();
    while !runner.is_done() {
        let window = matches!(runner.state().phase, CampaignPhase::Window { .. });
        m.watch.calibrate_if_due();
        tracer.enter(if window {
            "workload.window_step"
        } else {
            "workload.epoch_step"
        });
        let (report, _) = m.watch.time(|| {
            runner.step(
                &mut state.controller,
                &mut TimedScan {
                    inner: &mut observer,
                    tracer,
                },
            )
        });
        tracer.exit();
        let report = match report {
            Ok(Some(report)) => report,
            Ok(None) => break,
            Err(e) => {
                m.check_failures.push(format!("campaign step failed: {e}"));
                m.failed += 1;
                break;
            }
        };
        m.ops += report.cycles;
        m.host_writes += report.ops as u64;
        if window && m.early_digest.is_none() {
            m.early_digest = Some(state.controller.state_digest());
        }
        // Checkpoint mid-window, once per round.
        if runner.state().phase
            == (CampaignPhase::Window {
                ops_done: 2 * campaign.window_segment,
            })
        {
            match checkpoint_round_trip(state, &mut runner, &campaign, &mut m, tracer) {
                Ok(bytes) => m.checkpoint_bytes.push(bytes),
                Err(e) => m.check_failures.push(e),
            }
        }
    }
    m.attempted = m.ops;
    m.trajectory = observer
        .trajectory
        .iter()
        .map(|p| (p.rber, p.uber))
        .collect();
    m.uncorrectable_pages = observer
        .trajectory
        .iter()
        .map(|p| p.decode.uncorrectable_pages)
        .sum();
    // The last window's writes are the acknowledged contents to read back.
    let source = campaign.window_source(state.controller.logical_capacity(), rounds - 1);
    state.reference = Reference::new(
        state.controller.logical_capacity(),
        SHAPE.page_width,
        |seed, width| PagePattern::Seeded { seed }.expand(width),
    );
    for i in 0..source.len() {
        if let WorkloadOp::Write {
            lpn: Some(lpn),
            pattern: PagePattern::Seeded { seed },
        } = source.op(i)
        {
            state.reference.acknowledge(lpn, seed);
        }
    }
    m
}

/// snapshot → JSON → decode → restore → resume, checking that the
/// restored controller and position equal the ones checkpointed.
/// Returns the checkpoint's JSON size in bytes.
fn checkpoint_round_trip<'a>(
    state: &mut State,
    runner: &mut CampaignRunner<'a>,
    campaign: &'a EnduranceCampaign,
    m: &mut Measured,
    tracer: &mut Tracer,
) -> Result<usize, String> {
    let before = tracer.span("check.digest", || state.controller.state_digest());
    let (snapshot, _) = m.unit(tracer, "checkpoint.snapshot", || {
        state.controller.snapshot()
    });
    let checkpoint = CampaignCheckpoint {
        controller: snapshot,
        state: runner.state(),
    };
    let json = m
        .unit(tracer, "checkpoint.to_json", || {
            serde_json::to_string(&checkpoint)
        })
        .0
        .map_err(|e| format!("checkpoint serializes: {e}"))?;
    drop(checkpoint);
    let json_bytes = json.len();
    let decoded = m
        .unit(tracer, "checkpoint.from_json", || {
            CampaignCheckpoint::from_json(&json)
        })
        .0
        .map_err(|e| format!("checkpoint decodes: {e}"))?;
    drop(json);
    let restored = m
        .unit(tracer, "checkpoint.restore", || {
            FlashController::restore(
                FloatingGateTransistor::mlgnr_cnt_paper(),
                decoded.controller,
            )
        })
        .0
        .map_err(|e| format!("checkpoint restores: {e}"))?;
    let after = tracer.span("check.digest", || restored.state_digest());
    if after != before || decoded.state != runner.state() {
        return Err(format!(
            "checkpoint round trip changed the state: digest {before:016x} -> {after:016x}"
        ));
    }
    state.controller = restored;
    *runner = CampaignRunner::resume(campaign, decoded.state);
    Ok(json_bytes)
}

/// Reads `lpns` back one request at a time, comparing each with the
/// reference; mismatches and errors count as failed operations. Returns
/// the read latencies, reference µs.
pub fn read_back(state: &mut State, lpns: &[usize], m: &mut Measured) -> Vec<f64> {
    let mut watch = Stopwatch::default();
    for &lpn in lpns {
        watch.calibrate_if_due();
        let (result, _) = watch.time(|| state.controller.read_batch(&[lpn]));
        let ok = matches!(result.first(), Some(Ok(bits)) if state.reference.matches(lpn, bits));
        m.attempted += 1;
        m.failed += u64::from(!ok);
    }
    let (latencies, ..) = watch.finish();
    latencies.iter().map(|s| s * 1e6).collect()
}

/// `state_digest()` of the first state the seed reaches: the set-up for
/// `churn` and `read_mix`, the end of the first window segment for
/// `campaign` (its set-up takes no seeded input).
pub fn early_digest(workload: Workload, mut state: State, seconds: u64) -> Result<u64, String> {
    if workload == Workload::Campaign {
        let campaign = campaign_for(campaign_rounds(seconds), state.seed);
        let mut runner = CampaignRunner::new(&campaign);
        loop {
            let window = matches!(runner.state().phase, CampaignPhase::Window { .. });
            runner
                .step(&mut state.controller, &mut ())
                .map_err(|e| format!("campaign step failed: {e}"))?;
            if window {
                break;
            }
        }
    }
    Ok(state.controller.state_digest())
}
