//! PolyFlow's layered benchmark.
//!
//! Three seeded workloads measure the system end to end, each through
//! the public entry points a real caller uses:
//!
//! * [`grid`] — the figure sweep, in process: 12 bundled workloads ×
//!   (Figure 9 cells + the reconvergence predictor) on
//!   [`polyflow_bench::sweep`].
//! * [`served`] `hot` — cache hits through the real `serve` + `router`
//!   binaries (the read path).
//! * [`served`] `upload` — freshly generated programs uploaded through
//!   the same topology (the write path).
//!
//! A traced run ([`trace`]) times the calls into each layer from the
//! benchmark's side and reports the per-layer breakdown; the untraced
//! run reports only end-to-end metrics. See `README.md` for the metric
//! catalogue and how layer metrics map onto end-to-end ones.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod grid;
pub mod measure;
pub mod served;
pub mod stream;
pub mod trace;

use std::path::PathBuf;

/// Worker threads and client connections: the benchmark host has two
/// cores, so no workload runs more callers than this.
pub const JOBS: usize = 2;

/// Least number of times each workload's set-up is repeated; `setup_s`
/// is the median of the repetitions.
pub const SETUP_REPS: usize = 3;

/// A quick set-up keeps repeating until it has taken this long in
/// total (at most [`SETUP_MAX_REPS`] times), so its median is as steady
/// as a slow one's.
const SETUP_BUDGET_S: f64 = 2.0;

/// Upper bound on set-up repetitions.
const SETUP_MAX_REPS: usize = 40;

/// True while another set-up repetition is due, given the durations in
/// seconds of those done so far.
pub fn more_setup(done: &[f64]) -> bool {
    done.len() < SETUP_REPS
        || (done.iter().sum::<f64>() < SETUP_BUDGET_S && done.len() < SETUP_MAX_REPS)
}

/// What one benchmark invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// True for the traced (per-layer) run.
    pub trace: bool,
    /// Where reports, traces and the servers' scratch directories go.
    pub out_dir: PathBuf,
    /// The `serve` binary (served workloads only).
    pub serve_bin: PathBuf,
    /// The `router` binary (served workloads only).
    pub router_bin: PathBuf,
}

/// Writes the traced run's spans to `<out>/trace-<workload>-seed<seed>.jsonl`.
pub fn write_trace(
    opts: &RunOptions,
    workload: &str,
    tracer: &trace::Tracer,
) -> Result<(), String> {
    let path = opts
        .out_dir
        .join(format!("trace-{workload}-seed{}.jsonl", opts.seed));
    measure::write_file(&path, &trace::Tracer::to_jsonl(&tracer.spans()))
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_op", "ms"),
    ("reply_kb_per_op", "KB"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// a workload never calls reports 0 there (e.g. `router.hop_ms_p50` on
/// `grid`); README.md lists which workload measures which.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("isa.interp_ms", "ms"),
    ("isa.interp_minst_per_s", "Minst/s"),
    ("core.analyze_ms", "ms"),
    ("isa.oracles_ms", "ms"),
    ("sim.prepare_ms", "ms"),
    ("sim.cell_ms_p50", "ms"),
    ("sim.cell_ms_max", "ms"),
    ("reconv.cell_ms_p50", "ms"),
    ("sim.ns_per_executed_cycle", "ns"),
    ("sweep.worker_idle_ratio", "ratio"),
    ("sim.executed_cycles", "count"),
    ("sim.skipped_cycles", "count"),
    ("sim.skip_ratio", "ratio"),
    ("sim.retired_minst", "Minst"),
    ("router.hop_ms_p50", "ms"),
    ("reactor.wire_ms_p50", "ms"),
    ("service.hit_us_p50", "us"),
    ("protocol.parse_us_p50", "us"),
    ("cache.hit_ratio", "ratio"),
    ("wire.reply_bytes", "bytes"),
    ("json.render_ms", "ms"),
    ("protocol.parse_upload_us_p50", "us"),
    ("verify.fingerprint_us_p50", "us"),
    ("bench.prepare_us_p50", "us"),
    ("sim.upload_cell_us_p50", "us"),
    ("json.render_us_p50", "us"),
    ("cache.insert_us_p50", "us"),
    ("journal.append_us_p50", "us"),
    ("service.submit_ms_p50", "ms"),
    ("service.wait_ms_p50", "ms"),
    ("service.cells_per_batch", "cells"),
    ("journal.bytes_per_op", "bytes"),
    ("serve.rss_kb_per_op", "KB"),
    ("trace.overhead_pct", "%"),
    ("error_rate", "ratio"),
];

/// Puts a run's metrics in catalogue order ([`END_TO_END`] untraced,
/// [`PER_LAYER`] traced). Untraced, a missing metric is a failed check;
/// traced, a layer the workload does not call is reported as 0.
pub fn complete(report: &mut measure::Report, trace: bool) {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let mut measured = std::mem::take(&mut report.metrics);
    for &(name, unit) in catalogue {
        match measured.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = measured.remove(i);
                if m.unit != unit {
                    report.problem(format!("{name} measured in {} not {unit}", m.unit));
                }
                report.metrics.push(m);
            }
            None if trace => report.push(name, 0.0, unit),
            None => report.problem(format!("{name} was not measured")),
        }
    }
    for m in measured {
        report.problem(format!("{} is not in the catalogue", m.name));
    }
}
