//! Per-layer metrics of the traced run: the benchmark's own spans, the
//! program's counters and zones read through `gnr_telemetry::snapshot()`,
//! and direct timings of the NAND layer's public calls.

use std::time::Instant;

use gnr_flash_array::controller::FlashController;

use crate::reference::{page_bits, Rng};
use crate::trace::{Program, Timing, Tracer};
use crate::{metric, Metric, Reduced};

/// NAND single-page reads timed per traced run.
const NAND_READS: usize = 1100;
/// Blocks erased and then programmed page by page per traced run.
const NAND_BLOCKS: usize = 30;

impl Program {
    fn counter(&self, name: &str) -> f64 {
        self.telemetry.counter(name).unwrap_or(0) as f64
    }

    fn zone_self_ms(&self, name: &str) -> f64 {
        self.telemetry
            .zone(name)
            .map_or(0.0, |z| z.self_ns as f64 / 1e6)
    }
}

/// Per-call timings of the NAND layer's public calls, µs.
pub struct NandTimings {
    read: Vec<f64>,
    program: Vec<f64>,
    erase: Vec<f64>,
}

/// Times `read_page`, `erase_block` and `program_page` directly on a copy
/// of the workload's final array (the NAND layer has no zones).
pub fn nand_timings(controller: &FlashController) -> NandTimings {
    let mut array = controller.array().clone();
    let cfg = array.config();
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e6
    };
    let mut t = NandTimings {
        read: Vec::new(),
        program: Vec::new(),
        erase: Vec::new(),
    };
    for i in 0..NAND_READS {
        let (block, page) = (i % cfg.blocks, (i / cfg.blocks * 7) % cfg.pages_per_block);
        t.read.push(time(&mut || {
            array.read_page(block, page).expect("NAND read succeeds");
        }));
    }
    let mut rng = Rng::new(0x4a4d);
    for block in 0..NAND_BLOCKS.min(cfg.blocks) {
        t.erase.push(time(&mut || {
            array.erase_block(block).expect("NAND erase succeeds")
        }));
        for page in 0..cfg.pages_per_block {
            let bits = page_bits(rng.next_u64(), cfg.page_width);
            t.program.push(time(&mut || {
                array
                    .program_page(block, page, &bits)
                    .expect("NAND program succeeds");
            }));
        }
    }
    t
}

/// `prefix_p50_<unit>`, `prefix_tail_<unit>`, `prefix_tail_pct`,
/// `prefix_n` of one timing (samples in µs, reported in `unit`).
fn timing(out: &mut Vec<Metric>, prefix: &str, samples_us: &[f64], unit: &'static str) {
    let scale = if unit == "ms" { 1e-3 } else { 1.0 };
    let t = Timing::of(samples_us);
    out.push(metric(format!("{prefix}_p50_{unit}"), t.p50 * scale, unit));
    out.push(metric(
        format!("{prefix}_tail_{unit}"),
        t.tail * scale,
        unit,
    ));
    out.push(metric(format!("{prefix}_tail_pct"), t.tail_pct, "%"));
    out.push(metric(format!("{prefix}_n"), t.n as f64, "count"));
}

fn ratio(num: f64, base: f64) -> f64 {
    if base > 0.0 {
        num / base
    } else {
        0.0
    }
}

/// Every per-layer metric, in one fixed order and set for all
/// workloads (a layer a workload does not exercise reports zeros).
pub fn metrics(
    tracer: &Tracer,
    nand: &NandTimings,
    traced: &Reduced,
    untraced: &Reduced,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let p = tracer
        .program()
        .expect("a traced run captures the program's telemetry");

    // controller (FTL)
    timing(
        &mut out,
        "controller.write_batch",
        tracer.durations_us("controller.write_batch"),
        "us",
    );
    timing(
        &mut out,
        "controller.read_batch",
        tracer.durations_us("controller.read_batch"),
        "us",
    );
    out.push(metric(
        "controller.host_pages",
        p.counter("ftl.host_pages_written"),
        "count",
    ));
    out.push(metric(
        "controller.gc_relocations",
        p.counter("ftl.gc.relocations"),
        "count",
    ));
    out.push(metric(
        "controller.gc_erases",
        p.counter("ftl.gc.erases"),
        "count",
    ));
    out.push(metric(
        "controller.reclaims",
        p.counter("ftl.reclaims"),
        "count",
    ));
    out.push(metric(
        "controller.gc_self_ms",
        p.zone_self_ms("ftl.gc"),
        "ms",
    ));

    // pe (plane scheduler)
    let rounds = p.counter("scheduler.rounds");
    let commands = p.counter("scheduler.commands");
    out.push(metric("pe.rounds", rounds, "count"));
    out.push(metric("pe.commands", commands, "count"));
    out.push(metric(
        "pe.commands_per_round",
        ratio(commands, rounds),
        "ratio",
    ));
    out.push(metric(
        "pe.execute_self_ms",
        p.zone_self_ms("scheduler.execute"),
        "ms",
    ));

    // nand
    timing(&mut out, "nand.read_page", &nand.read, "us");
    timing(&mut out, "nand.program_page", &nand.program, "us");
    timing(&mut out, "nand.erase_block", &nand.erase, "us");

    // engine
    let queries = p.counter("engine.flowmap.queries");
    let escapes = p.counter("engine.flowmap.escapes");
    let misses = p.cache.j_tables.misses + p.cache.flow_maps.misses + p.cache.cycle_maps.misses;
    out.push(metric(
        "engine.pulse_batch_self_ms",
        p.zone_self_ms("engine.pulse_batch"),
        "ms",
    ));
    out.push(metric("engine.flowmap_queries", queries, "count"));
    out.push(metric("engine.flowmap_escapes", escapes, "count"));
    out.push(metric(
        "engine.flowmap_escape_ratio",
        ratio(escapes, queries),
        "ratio",
    ));
    out.push(metric(
        "engine.ode_integrations",
        p.counter("engine.ode.integrations"),
        "count",
    ));
    out.push(metric("engine.cache_misses", misses as f64, "count"));

    // population
    let pop_ops = p.counter("population.ops");
    let groups = p.counter("population.groups");
    out.push(metric("population.ops", pop_ops, "count"));
    out.push(metric("population.groups", groups, "count"));
    out.push(metric(
        "population.groups_per_op",
        ratio(groups, pop_ops),
        "ratio",
    ));
    out.push(metric(
        "population.group_self_ms",
        p.zone_self_ms("population.group"),
        "ms",
    ));
    out.push(metric(
        "population.epoch_probes",
        p.counter("population.epoch.probes"),
        "count",
    ));
    out.push(metric(
        "population.epoch_fallbacks",
        p.counter("population.epoch.fallbacks"),
        "count",
    ));

    // reliability
    timing(
        &mut out,
        "reliability.scan",
        tracer.durations_us("reliability.scan"),
        "ms",
    );
    out.push(metric(
        "reliability.decoded_pages",
        p.counter("reliability.decode.pages"),
        "count",
    ));
    out.push(metric(
        "reliability.uncorrectable_pages",
        traced.last.uncorrectable_pages as f64,
        "count",
    ));

    // checkpoint
    for stage in ["snapshot", "to_json", "from_json", "restore"] {
        let name = format!("checkpoint.{stage}");
        let samples = tracer.durations_us(&name);
        timing(&mut out, &name, samples, "ms");
    }
    let json_mb = traced
        .last
        .checkpoint_bytes
        .iter()
        .copied()
        .max()
        .unwrap_or(0) as f64
        / 1e6;
    out.push(metric("checkpoint.json_mb", json_mb, "MB"));

    // workload (campaign steps)
    timing(
        &mut out,
        "workload.epoch_step",
        tracer.durations_us("workload.epoch_step"),
        "ms",
    );
    timing(
        &mut out,
        "workload.window_step",
        tracer.durations_us("workload.window_step"),
        "ms",
    );

    // tracing itself
    let untraced_rate = untraced.ops_per_s;
    let traced_rate = traced.ops_per_s;
    let wall_ns = traced.wall_s * 1e9;
    let covered = tracer.covered_ns() as f64;
    out.push(metric("trace.untraced_ops_per_s", untraced_rate, "1/s"));
    out.push(metric("trace.traced_ops_per_s", traced_rate, "1/s"));
    out.push(metric(
        "trace.traced_over_untraced",
        ratio(traced_rate, untraced_rate),
        "ratio",
    ));
    out.push(metric("trace.wall_s", traced.wall_s, "s"));
    out.push(metric(
        "trace.uncovered_share",
        1.0 - ratio(covered, wall_ns),
        "ratio",
    ));
    out
}
