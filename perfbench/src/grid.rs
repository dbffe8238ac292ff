//! The `grid` workload: the figure sweep in process.
//!
//! All 12 bundled workloads × (Figure 9 cells + the reconvergence
//! predictor) — 96 cells per pass — run on [`sweep::sweep_with_jobs`]
//! at [`JOBS`] workers, pass after pass, for the measured window.
//! Preparation (interpreter, static analysis, trace oracles, prepared
//! traces) happens in set-up. No serve layer runs.

use crate::measure::{median, percentile, reset_peak, sample, Report};
use crate::trace::Tracer;
use crate::{more_setup, RunOptions, JOBS, SETUP_REPS};
use polyflow_bench::sweep::{self, figure9_cells, run_cell_with_config_opts, Cell, CellOutcome};
use polyflow_bench::{polyflow_config, pool, prepare_all_jobs, PreparedWorkload};
use polyflow_core::{Policy, ProgramAnalysis};
use polyflow_isa::execute_window;
use polyflow_serve::journal::fnv1a;
use polyflow_serve::{json, protocol};
use polyflow_sim::{MachineConfig, PreparedTrace, SimOptions, SimResult};
use std::collections::HashMap;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The golden-identity snapshot, read (never written) by the output
/// check: baseline and postdoms cells must hash to these lines.
pub const GOLDEN: &str = "crates/bench/tests/golden_identity.snap";

/// The cells of one grid row.
pub fn cells() -> Vec<Cell> {
    let mut cells = figure9_cells();
    cells.push(Cell::Reconv);
    cells
}

/// Set-up: prepares every bundled workload, including the prepared
/// trace all its cells share (the baseline and PolyFlow configurations
/// have the same predictor key, so one per workload).
fn prepare() -> Vec<PreparedWorkload> {
    let workloads = prepare_all_jobs(&[], JOBS);
    let cfg = polyflow_config();
    pool::parallel_map(
        workloads.iter().collect(),
        JOBS,
        |_, w: &PreparedWorkload| {
            w.prepared(&cfg);
        },
    );
    workloads
}

/// The configuration the sweep runs `cell` under.
fn config_of(cell: Cell) -> MachineConfig {
    match cell {
        Cell::Baseline => MachineConfig {
            max_cycles: polyflow_bench::resolve_max_cycles(),
            ..MachineConfig::superscalar()
        },
        _ => polyflow_config(),
    }
}

/// What must repeat exactly from pass to pass, per cell.
type CellSummary = Option<(u64, u64, u64, u64)>;

fn summarize(grid: &[Vec<CellOutcome>]) -> Vec<CellSummary> {
    grid.iter()
        .flatten()
        .map(|o| {
            o.result()
                .map(|r| (r.cycles, r.instructions, r.squashes, r.total_spawns()))
        })
        .collect()
}

/// Output checks over one finished pass: every cell succeeded, balances
/// its cycle ledger, and repeats the first pass exactly.
fn check_pass(
    workloads: &[PreparedWorkload],
    grid: &[Vec<CellOutcome>],
    first: Option<&[CellSummary]>,
    report: &mut Report,
) {
    let cells = cells();
    let summary = summarize(grid);
    for (wi, row) in grid.iter().enumerate() {
        for (ci, outcome) in row.iter().enumerate() {
            let at = format!("{}/{}", workloads[wi].name, cells[ci].label());
            let Some(r) = outcome.result() else {
                report.problem(format!("{at}: cell failed"));
                continue;
            };
            if let Err(e) = r.account.check() {
                report.problem(format!("{at}: {e}"));
            }
            if r.account.cycles != r.cycles
                || r.account.contexts != config_of(cells[ci]).contexts()
                || r.account.total_slots() != r.cycles * r.account.contexts
            {
                report.problem(format!("{at}: sum(buckets) != cycles × contexts"));
            }
            let i = wi * cells.len() + ci;
            if first.is_some_and(|f| f[i] != summary[i]) {
                report.problem(format!("{at}: differs from the first pass"));
            }
        }
    }
}

/// Compares the baseline and postdoms cells with the golden snapshot.
fn check_golden(workloads: &[PreparedWorkload], grid: &[Vec<CellOutcome>], report: &mut Report) {
    let text = match std::fs::read_to_string(GOLDEN) {
        Ok(t) => t,
        Err(e) => return report.problem(format!("cannot read {GOLDEN}: {e}")),
    };
    let expected: HashMap<&str, &str> = text
        .lines()
        .filter_map(|l| {
            let (key, rest) = l.split_once(' ')?;
            Some((key, rest.strip_prefix("fnv64:")?.split(' ').next()?))
        })
        .collect();
    let cells = cells();
    let postdoms = cells
        .iter()
        .position(|c| *c == Cell::Static(Policy::Postdoms))
        .expect("postdoms is a Figure 9 cell");
    let mut matched = 0;
    for (w, row) in workloads.iter().zip(grid) {
        for (ci, label) in [(0, "baseline"), (postdoms, "postdoms")] {
            let key = format!("{}/{label}", w.name);
            let got = row[ci]
                .result()
                .map(|r| format!("{:016x}", fnv1a(r.to_json().as_bytes())));
            match (got, expected.get(key.as_str())) {
                (Some(g), Some(e)) if g == *e => matched += 1,
                (g, e) => report.problem(format!("{key}: golden hash {e:?}, got {g:?}")),
            }
        }
    }
    if matched != expected.len() {
        report.problem(format!(
            "matched {matched} of {} golden cells",
            expected.len()
        ));
    }
}

/// Mean size in KiB of the reply line each cell of `grid` renders to
/// when served.
fn reply_kb(workloads: &[PreparedWorkload], grid: &[Vec<CellOutcome>]) -> f64 {
    let cells = cells();
    let sizes: Vec<usize> = workloads
        .iter()
        .zip(grid)
        .flat_map(|(w, row)| row.iter().zip(&cells).map(move |(o, c)| (w, o, c)))
        .filter_map(|(w, o, c)| {
            let r = o.result()?;
            Some(protocol::ok_response(&w.name, &c.label(), &json::compact(&r.to_json())).len())
        })
        .collect();
    sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64 / 1024.0
}

/// One timed set-up, as a fresh process would do it: prepares every
/// workload and returns the seconds it took.
pub fn setup_once() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(prepare());
    t0.elapsed().as_secs_f64()
}

/// Times the set-up in fresh child processes (`--setup-only`), as the
/// figure binaries pay it. Repeating it in this process instead would
/// leave the allocator's history, and so the measured peak RSS, to
/// chance.
fn timed_setups() -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut setup = Vec::new();
    while more_setup(&setup) {
        let out = Command::new(&exe)
            .args(["--workload", "grid", "--setup-only", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run a set-up child: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text
            .lines()
            .find_map(|l| l.strip_prefix("SETUP_S="))
            .and_then(|v| v.trim().parse().ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("set-up child failed ({}): {text}", out.status))?;
        setup.push(secs);
    }
    Ok(setup)
}

/// Runs the `grid` workload.
pub fn run(opts: &RunOptions) -> Result<Report, String> {
    if opts.trace {
        return run_traced(opts);
    }
    let mut setup = timed_setups()?;
    let workloads = prepare();

    let mut report = Report::default();
    let cells = cells();
    let window = Duration::from_secs_f64(opts.seconds);
    let mut first: Option<Vec<CellSummary>> = None;
    let mut reply_kb_per_op = 0.0;
    let mut busy = Duration::ZERO;
    // Per pass: cells/s, p50, p90, CPU ms per cell, peak RSS. Each
    // end-to-end figure is the median over passes, so a burst of host
    // noise moves one pass, not the run.
    let mut per_pass: [Vec<f64>; 5] = Default::default();
    // The window counts pass time only; the checks between passes are
    // the benchmark's own work.
    while first.is_none() || busy < window {
        reset_peak("self")?;
        let before = sample("self")?;
        let (grid, timing) = sweep::sweep_with_jobs("perfbench-grid", &workloads, &cells, JOBS);
        let after = sample("self")?;
        busy += timing.wall;
        let mut latencies = Vec::new();
        for (outcome, (_, d)) in grid.iter().flatten().zip(&timing.cells) {
            report.attempted += 1;
            if outcome.is_failed() {
                report.failed += 1;
                latencies.push(f64::INFINITY);
            } else {
                latencies.push(d.as_secs_f64() * 1e3);
            }
        }
        let ok = latencies.iter().filter(|l| l.is_finite()).count().max(1) as f64;
        per_pass[0].push(ok / timing.wall.as_secs_f64());
        per_pass[1].push(percentile(&mut latencies, 50.0));
        per_pass[2].push(percentile(&mut latencies, 90.0));
        per_pass[3].push((after.cpu_ms - before.cpu_ms) / ok);
        per_pass[4].push(after.hwm_kb as f64 / 1024.0);
        check_pass(&workloads, &grid, first.as_deref(), &mut report);
        if first.is_none() {
            check_golden(&workloads, &grid, &mut report);
            reply_kb_per_op = reply_kb(&workloads, &grid);
            first = Some(summarize(&grid));
        }
    }
    for (what, v) in ["cells/s", "p50 ms", "p90 ms", "cpu ms/cell", "peak MB"]
        .iter()
        .zip(&per_pass)
    {
        let v: Vec<String> = v.iter().map(|x| format!("{x:.1}")).collect();
        eprintln!("[perfbench] {what} per pass: {}", v.join(" "));
    }
    let [rate, p50, p90, cpu, peak] = per_pass.map(|mut v| median(&mut v));
    report.push("ops_per_s", rate, "1/s");
    report.push("latency_p50_ms", p50, "ms");
    report.push("latency_p90_ms", p90, "ms");
    report.push("setup_s", median(&mut setup), "s");
    report.push("peak_rss_mb", peak, "MB");
    report.push("cpu_ms_per_op", cpu, "ms");
    report.push("reply_kb_per_op", reply_kb_per_op, "KB");
    Ok(report)
}

/// Per-layer totals of one timed preparation of every workload.
#[derive(Debug, Default, Clone, Copy)]
struct PrepTimes {
    interp: f64,
    analyze: f64,
    oracles: f64,
    prepare: f64,
    steps: u64,
}

/// Runs each preparation layer over every bundled workload in turn,
/// timing the calls `PreparedWorkload::try_prepare` and
/// `PreparedWorkload::prepared` make, one span per call.
fn timed_preparation(tracer: &Tracer, request: u64) -> Result<PrepTimes, String> {
    let cfg = polyflow_config();
    let mut t = PrepTimes::default();
    let root = tracer.reserve();
    let begin = Instant::now();
    let span = |name, t0: Instant| {
        let now = Instant::now();
        tracer.record(name, Some(root), request, t0, now);
        (now - t0).as_secs_f64() * 1e3
    };
    for w in polyflow_workloads::all() {
        let t0 = Instant::now();
        let exec = execute_window(&w.program, w.window).map_err(|e| format!("{}: {e}", w.name))?;
        t.interp += span("isa.interp", t0);
        t.steps += exec.steps;
        let t0 = Instant::now();
        let analysis = ProgramAnalysis::analyze(&w.program);
        t.analyze += span("core.analyze", t0);
        std::hint::black_box(&analysis);
        let trace = Arc::new(exec.trace);
        let t0 = Instant::now();
        let dataflow = Arc::new(trace.dataflow());
        let pc_index = Arc::new(trace.pc_index());
        t.oracles += span("isa.oracles", t0);
        let t0 = Instant::now();
        let prepared = PreparedTrace::with_oracles(trace, dataflow, pc_index, &cfg);
        t.prepare += span("sim.prepare", t0);
        std::hint::black_box(&prepared);
    }
    tracer.record_as(root, "setup.prepare", None, request, begin, Instant::now());
    Ok(t)
}

/// Median over repetitions of each preparation layer, as metrics.
pub fn push_prep_metrics(report: &mut Report, tracer: &Tracer) -> Result<(), String> {
    let reps: Vec<PrepTimes> = (0..SETUP_REPS as u64)
        .map(|rep| timed_preparation(tracer, rep))
        .collect::<Result<_, _>>()?;
    let med = |f: fn(&PrepTimes) -> f64| median(&mut reps.iter().map(f).collect::<Vec<_>>());
    report.push("isa.interp_ms", med(|t| t.interp), "ms");
    report.push(
        "isa.interp_minst_per_s",
        med(|t| t.steps as f64 / 1e6 / (t.interp / 1e3)),
        "Minst/s",
    );
    report.push("core.analyze_ms", med(|t| t.analyze), "ms");
    report.push("isa.oracles_ms", med(|t| t.oracles), "ms");
    report.push("sim.prepare_ms", med(|t| t.prepare), "ms");
    Ok(())
}

/// What one traced cell recorded.
struct CellTrace {
    reconv: bool,
    ms: f64,
    executed: u64,
    skipped: u64,
    instructions: u64,
}

/// The traced run: per-layer preparation times, then untraced and
/// traced passes alternating for the window (the traced passes run the
/// same cells through [`sweep::run_grid_with`], timing each and
/// collecting the simulator's stepped/skipped cycle split).
fn run_traced(opts: &RunOptions) -> Result<Report, String> {
    let tracer = Tracer::new();
    let mut report = Report::default();
    push_prep_metrics(&mut report, &tracer)?;

    let workloads = prepare();
    let cells = cells();
    let window = Duration::from_secs_f64(opts.seconds);
    let mut busy = Duration::ZERO;
    let mut first: Option<Vec<CellSummary>> = None;
    let (mut plain_cells, mut plain_wall) = (0usize, Duration::ZERO);
    let (mut traced_cells, mut traced_wall) = (0usize, Duration::ZERO);
    let mut traced: Vec<CellTrace> = Vec::new();
    let mut pass_counts: Option<(u64, u64, u64)> = None;
    let mut pass = 0u64;
    while pass < 2 || busy < window {
        let grid = if pass.is_multiple_of(2) {
            let (grid, timing) = sweep::sweep_with_jobs("perfbench-grid", &workloads, &cells, JOBS);
            plain_cells += grid.iter().flatten().filter(|o| !o.is_failed()).count();
            plain_wall += timing.wall;
            grid
        } else {
            let root = tracer.reserve();
            let records = Mutex::new(Vec::new());
            let t0 = Instant::now();
            let (grid, timing) = sweep::run_grid_with(
                "perfbench-grid-traced",
                &workloads,
                &cells,
                JOBS,
                |w, cell, scratch| {
                    let t0 = Instant::now();
                    let out = run_cell_with_config_opts(
                        w,
                        *cell,
                        &config_of(*cell),
                        scratch,
                        SimOptions::default(),
                    );
                    let t1 = Instant::now();
                    let reconv = *cell == Cell::Reconv;
                    let name = if reconv { "reconv.cell" } else { "sim.cell" };
                    tracer.record(name, Some(root), pass, t0, t1);
                    let (r, tel): (SimResult, _) = out?;
                    records
                        .lock()
                        .expect("trace records poisoned")
                        .push(CellTrace {
                            reconv,
                            ms: (t1 - t0).as_secs_f64() * 1e3,
                            executed: tel.executed_cycles,
                            skipped: tel.skipped_cycles,
                            instructions: r.instructions,
                        });
                    Ok(r)
                },
                Cell::label,
            );
            tracer.record_as(root, "sweep.pass", None, pass, t0, Instant::now());
            let records = records.into_inner().expect("trace records poisoned");
            let counts = records.iter().fold((0, 0, 0), |(e, s, i), c| {
                (e + c.executed, s + c.skipped, i + c.instructions)
            });
            if *pass_counts.get_or_insert(counts) != counts {
                report.problem("simulator work counts differ between traced passes");
            }
            traced_cells += grid.iter().flatten().filter(|o| !o.is_failed()).count();
            traced_wall += timing.wall;
            traced.extend(records);
            grid
        };
        for o in grid.iter().flatten() {
            report.attempted += 1;
            report.failed += u64::from(o.is_failed());
        }
        check_pass(&workloads, &grid, first.as_deref(), &mut report);
        if first.is_none() {
            check_golden(&workloads, &grid, &mut report);
            first = Some(summarize(&grid));
        }
        busy = plain_wall + traced_wall;
        pass += 1;
    }

    let mut sim_ms: Vec<f64> = traced.iter().filter(|c| !c.reconv).map(|c| c.ms).collect();
    let mut reconv_ms: Vec<f64> = traced.iter().filter(|c| c.reconv).map(|c| c.ms).collect();
    let all_ms: f64 = traced.iter().map(|c| c.ms).sum();
    let executed: u64 = traced.iter().map(|c| c.executed).sum();
    let (pass_exec, pass_skip, pass_inst) = pass_counts.unwrap_or_default();
    report.push("sim.cell_ms_p50", percentile(&mut sim_ms, 50.0), "ms");
    report.push(
        "sim.cell_ms_max",
        traced.iter().map(|c| c.ms).fold(0.0, f64::max),
        "ms",
    );
    report.push("reconv.cell_ms_p50", percentile(&mut reconv_ms, 50.0), "ms");
    report.push(
        "sim.ns_per_executed_cycle",
        all_ms * 1e6 / executed.max(1) as f64,
        "ns",
    );
    report.push(
        "sweep.worker_idle_ratio",
        1.0 - all_ms / 1e3 / (traced_wall.as_secs_f64() * JOBS as f64),
        "ratio",
    );
    report.push("sim.executed_cycles", pass_exec as f64, "count");
    report.push("sim.skipped_cycles", pass_skip as f64, "count");
    report.push(
        "sim.skip_ratio",
        pass_skip as f64 / (pass_exec + pass_skip).max(1) as f64,
        "ratio",
    );
    report.push("sim.retired_minst", pass_inst as f64 / 1e6, "Minst");
    let plain = plain_cells as f64 / plain_wall.as_secs_f64();
    let with_trace = traced_cells as f64 / traced_wall.as_secs_f64();
    report.push(
        "trace.overhead_pct",
        (plain - with_trace) / plain * 100.0,
        "%",
    );
    report.push(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    crate::write_trace(opts, "grid", &tracer)?;
    Ok(report)
}
