//! The parallel (workload × policy) sweep engine, and the one place a
//! grid cell becomes a simulator run.
//!
//! # Cells
//!
//! Every number in Figures 9–12 is one [`Cell`]: the superscalar
//! baseline, a static spawn policy on the PolyFlow machine, or the §4.4
//! reconvergence predictor. [`Cell::parse`] reads a cell from its
//! [`label`](Cell::label), [`Cell::base_config`] picks its machine, and
//! [`run_cell`] builds its spawn source and calls the simulator. The
//! figure binaries run cells under [`Cell::figure_config`] (the base
//! machine plus the process-wide overrides); `polyflow-serve` runs them
//! under the base machine plus a request's overrides. Both reach the
//! simulator through [`run_cell`], so served ≡ offline reduces to the
//! simulator's own determinism.
//!
//! # Grids
//!
//! [`run_batch_with`] executes a list of `(workload, cell)` pairs on the
//! work-stealing pool ([`crate::pool`]) with per-worker [`SimScratch`]
//! reuse, collects results in input order (byte-identical output at any
//! `--jobs`), and reports per-cell wall-clock: a cells/sec throughput
//! line on stderr plus a `BENCH_sweep.json` perf-trajectory file
//! (override the path with `POLYFLOW_BENCH_JSON`; set it empty or to `0`
//! to disable). [`run_grid_with`] and [`sweep`] feed it a cross product.
//!
//! # Fault isolation
//!
//! Each cell runs inside [`std::panic::catch_unwind`] with one bounded
//! retry, so a panicking or erroring cell degrades to
//! [`CellOutcome::Failed`] instead of killing the whole sweep: the
//! surviving cells complete, the figure renders the dead cell as
//! `FAILED`, and the binary exits nonzero ([`report_failures`]). Grid
//! order — and therefore output — stays deterministic at any worker
//! count. Setting `POLYFLOW_FAULT_CELL=<workload>/<label>` makes exactly
//! that cell panic deliberately (the CI degradation check).

use crate::{pool, resolve_max_cycles, PreparedWorkload};
use polyflow_core::Policy;
use polyflow_reconv::ReconvConfig;
use polyflow_sim::{
    try_simulate_opts, DependenceMode, MachineConfig, NoSpawn, NullSink, ReconvSpawnSource,
    SimError, SimOptions, SimResult, SimScratch, SimTelemetry, SpawnSource, StaticSpawnSource,
    TraceSink,
};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One cell of a figure's (workload × policy) grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// The equivalent-resource superscalar baseline.
    Baseline,
    /// One static spawn policy on the PolyFlow machine.
    Static(Policy),
    /// The dynamic reconvergence-predictor source (§4.4).
    Reconv,
}

impl Cell {
    /// Short label: the timing report's column, the protocol's `policy`
    /// echo, and a cache-key component.
    pub fn label(&self) -> String {
        match self {
            Cell::Baseline => "baseline".to_string(),
            Cell::Static(p) => p.name(),
            Cell::Reconv => "rec_pred".to_string(),
        }
    }

    /// Reads a cell from its [`label`](Self::label): `baseline` (or the
    /// aliases `superscalar` and `none`), a Figure 9 policy name, or
    /// `rec_pred`. The Figure 10/11 combinations are not addressable by
    /// name; anything else is `None`.
    pub fn parse(name: &str) -> Option<Cell> {
        match name {
            "baseline" | "superscalar" | "none" => Some(Cell::Baseline),
            "rec_pred" => Some(Cell::Reconv),
            _ => Policy::figure9()
                .into_iter()
                .find(|p| p.name() == name)
                .map(Cell::Static),
        }
    }

    /// The machine the cell runs on before any override: the
    /// equivalent-resource superscalar for the baseline, the Figure 8
    /// PolyFlow machine for every spawning cell.
    pub fn base_config(self) -> MachineConfig {
        match self {
            Cell::Baseline => MachineConfig::superscalar(),
            Cell::Static(_) | Cell::Reconv => MachineConfig::hpca07(),
        }
    }

    /// The configuration the figure binaries run the cell under: the
    /// [`base_config`](Self::base_config) with the process-wide cycle
    /// budget ([`resolve_max_cycles`]) and, on the PolyFlow machine, the
    /// dependence-model environment overrides (`POLYFLOW_REG_HINTS=1`
    /// enables the capacity-limited hint-entry register model;
    /// `POLYFLOW_STORE_SETS=1` enables store-set memory-dependence
    /// prediction; both default to oracle synchronization). Neither the
    /// budget nor the overrides touch the predictor key, so every cell of
    /// a workload shares one prepared trace. The environment is read once
    /// per process.
    pub fn figure_config(self) -> MachineConfig {
        static PREDICTED: OnceLock<(bool, bool)> = OnceLock::new();
        let mut cfg = self.base_config();
        cfg.max_cycles = resolve_max_cycles();
        if self != Cell::Baseline {
            let set = |var| std::env::var(var).is_ok_and(|v| v == "1");
            let (registers, memory) =
                *PREDICTED.get_or_init(|| (set("POLYFLOW_REG_HINTS"), set("POLYFLOW_STORE_SETS")));
            if registers {
                cfg.register_dependence = DependenceMode::StoreSet;
            }
            if memory {
                cfg.memory_dependence = DependenceMode::StoreSet;
            }
        }
        cfg
    }
}

/// Runs `cell` on `w` under `cfg`: builds the cell's spawn source and
/// calls the simulator. This is the only place a [`Cell`] becomes a
/// simulation. The prepared trace is shared through
/// [`PreparedWorkload::prepared`], keyed by the config's predictor key;
/// events stream to `sink`, and `opts` never change the result.
pub fn run_cell(
    w: &PreparedWorkload,
    cell: Cell,
    cfg: &MachineConfig,
    scratch: &mut SimScratch,
    sink: &mut dyn TraceSink,
    opts: SimOptions,
) -> Result<(SimResult, SimTelemetry), SimError> {
    let prepared = w.prepared(cfg);
    scratch.reserve(w.trace().len());
    let mut source: Box<dyn SpawnSource> = match cell {
        Cell::Baseline => Box::new(NoSpawn),
        Cell::Static(p) => Box::new(StaticSpawnSource::new(w.analysis.spawn_table(p))),
        Cell::Reconv => Box::new(ReconvSpawnSource::new(ReconvConfig::default())),
    };
    try_simulate_opts(&prepared, cfg, source.as_mut(), scratch, sink, opts)
}

/// [`run_cell`] without events or telemetry: the path behind every
/// `polyflow-serve` request, on the server's batcher and in the offline
/// verifier alike.
pub fn run_cell_with_config(
    w: &PreparedWorkload,
    cell: Cell,
    cfg: &MachineConfig,
    scratch: &mut SimScratch,
) -> Result<SimResult, SimError> {
    run_cell(w, cell, cfg, scratch, &mut NullSink, SimOptions::default()).map(|(r, _)| r)
}

/// [`run_cell`] without events: the `simbench` measurement path, where
/// the telemetry's skip split is part of the report.
pub fn run_cell_with_config_opts(
    w: &PreparedWorkload,
    cell: Cell,
    cfg: &MachineConfig,
    scratch: &mut SimScratch,
    opts: SimOptions,
) -> Result<(SimResult, SimTelemetry), SimError> {
    run_cell(w, cell, cfg, scratch, &mut NullSink, opts)
}

/// What one grid cell produced: a simulation result, or a structured
/// record of why the cell died (typed simulator error, or a caught
/// panic). A failed cell never aborts the sweep.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell simulated to completion (boxed: a [`SimResult`] is much
    /// larger than the failure record).
    Ok(Box<SimResult>),
    /// The cell failed on every attempt; the rest of the grid completed.
    Failed {
        /// Workload name (the grid row).
        workload: String,
        /// Cell label (the grid column).
        cell: String,
        /// The rendered [`SimError`] or the panic payload.
        payload: String,
        /// Attempts made (1 for a typed error, which is deterministic;
        /// up to 2 for a panic, which gets one retry).
        attempts: u32,
    },
}

impl CellOutcome {
    /// The simulation result, if the cell succeeded.
    pub fn result(&self) -> Option<&SimResult> {
        match self {
            CellOutcome::Ok(r) => Some(r.as_ref()),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// True if the cell died.
    pub fn is_failed(&self) -> bool {
        matches!(self, CellOutcome::Failed { .. })
    }

    /// Instructions per cycle, or NaN for a failed cell (rendered as
    /// `FAILED` by the table/CSV printers).
    pub fn ipc(&self) -> f64 {
        self.result().map_or(f64::NAN, SimResult::ipc)
    }

    /// Speedup in percent over `base`, or NaN if either cell failed.
    pub fn speedup_percent_over(&self, base: &CellOutcome) -> f64 {
        match (self.result(), base.result()) {
            (Some(r), Some(b)) => r.speedup_percent_over(b),
            _ => f64::NAN,
        }
    }
}

/// Prints every failed cell of a finished grid to stderr and returns
/// whether any failed — the figure binary should then exit nonzero.
pub fn report_failures(grid: &[Vec<CellOutcome>]) -> bool {
    let mut any = false;
    for outcome in grid.iter().flatten() {
        if let CellOutcome::Failed {
            workload,
            cell,
            payload,
            attempts,
        } = outcome
        {
            any = true;
            eprintln!(
                "[sweep] FAILED cell {workload}/{cell} after {attempts} attempt(s): {payload}"
            );
        }
    }
    any
}

/// Timing record of one executed sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The sweep's name (conventionally the figure binary's).
    pub name: String,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock of the whole grid.
    pub wall: Duration,
    /// Per-cell label and wall-clock, in deterministic grid order.
    pub cells: Vec<(String, Duration)>,
}

impl SweepReport {
    /// Grid throughput in cells per second of wall-clock.
    pub fn cells_per_second(&self) -> f64 {
        self.cells.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Prints the throughput line to stderr and writes the JSON report
    /// (unless disabled via `POLYFLOW_BENCH_JSON`).
    pub fn emit(&self) {
        eprintln!(
            "[sweep] {}: {} cells in {} on {} worker{} ({:.1} cells/sec)",
            self.name,
            self.cells.len(),
            crate::stopwatch::fmt_duration(self.wall),
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.cells_per_second(),
        );
        let path = match std::env::var("POLYFLOW_BENCH_JSON") {
            Ok(v) if v.is_empty() || v == "0" => return,
            Ok(v) => v,
            Err(_) => "BENCH_sweep.json".to_string(),
        };
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => eprintln!("[sweep] wrote {path}"),
            Err(e) => eprintln!("[sweep] could not write {path}: {e}"),
        }
    }

    /// Renders the report as JSON (hand-rolled — the workspace takes no
    /// serde dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": \"{}\",\n", escape(&self.name)));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"cells\": {},\n", self.cells.len()));
        out.push_str(&format!(
            "  \"wall_seconds\": {:.6},\n",
            self.wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"cells_per_second\": {:.3},\n",
            self.cells_per_second()
        ));
        out.push_str("  \"cell_seconds\": [\n");
        for (i, (label, d)) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"cell\": \"{}\", \"seconds\": {:.6}}}{comma}\n",
                escape(label),
                d.as_secs_f64()
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

thread_local! {
    /// One reusable simulation arena per worker thread (the main thread
    /// counts as a worker when `jobs == 1`).
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::default());
}

/// True if the environment asks this exact cell (`workload/label`) to
/// panic deliberately — the CI hook proving a dead cell degrades the
/// sweep instead of aborting it.
fn deliberate_fault(full_label: &str) -> bool {
    std::env::var("POLYFLOW_FAULT_CELL").is_ok_and(|v| v == full_label)
}

/// Renders a caught panic payload (`&str` and `String` payloads carry the
/// panic message; anything else is opaque).
fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Panic budget per cell: one retry after a caught panic (a transient
/// failure gets a second chance; a deterministic one fails both times
/// and the outcome records both attempts).
const MAX_ATTEMPTS: u32 = 2;

/// Runs one cell under panic isolation. Typed errors are deterministic
/// properties of the (workload, cell) pair, so they fail immediately;
/// panics get one retry.
fn run_isolated<C, F>(w: &PreparedWorkload, c: &C, cell_label: &str, run: &F) -> CellOutcome
where
    F: Fn(&PreparedWorkload, &C, &mut SimScratch) -> Result<SimResult, SimError> + Sync,
{
    let full_label = format!("{}/{}", w.name, cell_label);
    let mut attempts = 0;
    loop {
        attempts += 1;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            assert!(
                !deliberate_fault(&full_label),
                "deliberate fault injected via POLYFLOW_FAULT_CELL={full_label}"
            );
            SCRATCH.with(|s| {
                let mut s = s.borrow_mut();
                // Pre-size the per-instruction arenas so the dominant
                // allocations happen once per worker, not during the run.
                s.reserve(w.trace().len());
                run(w, c, &mut s)
            })
        }));
        let payload = match caught {
            Ok(Ok(r)) => return CellOutcome::Ok(Box::new(r)),
            Ok(Err(e)) => e.to_string(),
            Err(p) if attempts < MAX_ATTEMPTS => {
                drop(p); // the default hook already printed it; retry once
                continue;
            }
            Err(p) => payload_string(p),
        };
        return CellOutcome::Failed {
            workload: w.name.to_string(),
            cell: cell_label.to_string(),
            payload,
            attempts,
        };
    }
}

/// Runs a batch — an explicit list of `(workload, cell)` pairs — as one
/// pool dispatch: outcomes come back in input order, each pair ran
/// exactly once under panic isolation, and a panicking or erroring pair
/// degrades to [`CellOutcome::Failed`] without touching its neighbours.
///
/// This is the execution primitive of every sweep ([`run_grid_with`]
/// feeds it a cross product) and of the `polyflow-serve` micro-batcher,
/// whose coalesced batches are rarely rectangles (each client asks for
/// its own workload × policy × config cell). `W` is anything that
/// borrows a [`PreparedWorkload`] (`Arc` in the server, plain references
/// in grids).
pub fn run_batch_with<W, C, F, L>(
    name: &str,
    items: &[(W, C)],
    jobs: usize,
    run: F,
    label: L,
) -> (Vec<CellOutcome>, SweepReport)
where
    W: Borrow<PreparedWorkload> + Sync,
    C: Sync,
    F: Fn(&PreparedWorkload, &C, &mut SimScratch) -> Result<SimResult, SimError> + Sync,
    L: Fn(&C) -> String,
{
    let labels: Vec<String> = items.iter().map(|(_, c)| label(c)).collect();
    let started = Instant::now();
    let indices: Vec<usize> = (0..items.len()).collect();
    let timed = pool::parallel_map(indices, jobs, |_, i| {
        let (w, c) = &items[i];
        let t0 = Instant::now();
        let r = run_isolated(w.borrow(), c, &labels[i], &run);
        (r, t0.elapsed())
    });
    let wall = started.elapsed();
    let mut outcomes = Vec::with_capacity(timed.len());
    let mut cell_times = Vec::with_capacity(timed.len());
    for (i, (r, d)) in timed.into_iter().enumerate() {
        cell_times.push((format!("{}/{}", items[i].0.borrow().name, labels[i]), d));
        outcomes.push(r);
    }
    let report = SweepReport {
        name: name.to_string(),
        jobs,
        wall,
        cells: cell_times,
    };
    (outcomes, report)
}

/// Runs an arbitrary `(workload × cell)` grid: the cross product goes
/// to [`run_batch_with`] as one pool dispatch, and the outcomes come back
/// grouped as `[workload][cell]`, plus the timing report.
///
/// `run` executes one cell; it receives the worker's reusable
/// [`SimScratch`]. `label` names a cell for the report. Cells are
/// independent, so any interleaving is allowed — results are reassembled
/// in grid order, making the caller's output identical for every `jobs`.
/// A cell that panics or returns a [`SimError`] becomes
/// [`CellOutcome::Failed`] without disturbing its neighbours.
pub fn run_grid_with<C, F, L>(
    name: &str,
    workloads: &[PreparedWorkload],
    cells: &[C],
    jobs: usize,
    run: F,
    label: L,
) -> (Vec<Vec<CellOutcome>>, SweepReport)
where
    C: Sync,
    F: Fn(&PreparedWorkload, &C, &mut SimScratch) -> Result<SimResult, SimError> + Sync,
    L: Fn(&C) -> String,
{
    let items: Vec<(&PreparedWorkload, &C)> = workloads
        .iter()
        .flat_map(|w| cells.iter().map(move |c| (w, c)))
        .collect();
    let (outcomes, report) =
        run_batch_with(name, &items, jobs, |w, c, s| run(w, c, s), |c| label(c));
    let mut outcomes = outcomes.into_iter();
    let grid = workloads
        .iter()
        .map(|_| outcomes.by_ref().take(cells.len()).collect())
        .collect();
    (grid, report)
}

/// Runs the standard figure grid (`cells` per workload, each under its
/// [`Cell::figure_config`]) with the process-wide worker count
/// ([`pool::resolve_jobs`]).
pub fn sweep(
    name: &str,
    workloads: &[PreparedWorkload],
    cells: &[Cell],
) -> (Vec<Vec<CellOutcome>>, SweepReport) {
    sweep_with_jobs(name, workloads, cells, pool::resolve_jobs())
}

/// [`sweep`] with an explicit worker count.
pub fn sweep_with_jobs(
    name: &str,
    workloads: &[PreparedWorkload],
    cells: &[Cell],
    jobs: usize,
) -> (Vec<Vec<CellOutcome>>, SweepReport) {
    let cells: Vec<(Cell, MachineConfig)> = cells.iter().map(|&c| (c, c.figure_config())).collect();
    run_grid_with(
        name,
        workloads,
        &cells,
        jobs,
        |w, (cell, cfg), scratch| run_cell_with_config(w, *cell, cfg, scratch),
        |(cell, _)| cell.label(),
    )
}
/// The Figure 9 grid: baseline plus every individual-heuristic policy.
/// Shared by the figure binary and the determinism test.
pub fn figure9_cells() -> Vec<Cell> {
    std::iter::once(Cell::Baseline)
        .chain(Policy::figure9().iter().map(|&p| Cell::Static(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = SweepReport {
            name: "unit \"test\"".to_string(),
            jobs: 3,
            wall: Duration::from_millis(1500),
            cells: vec![
                ("a/baseline".to_string(), Duration::from_millis(700)),
                ("a/loop".to_string(), Duration::from_millis(800)),
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"name\": \"unit \\\"test\\\"\""));
        assert!(json.contains("\"jobs\": 3"));
        assert!(json.contains("\"cells\": 2"));
        assert!(json.contains("\"wall_seconds\": 1.500000"));
        assert!(json.contains("{\"cell\": \"a/loop\", \"seconds\": 0.800000}"));
        assert!(!json.contains(",\n  ]"), "no trailing comma in array");
        assert!(!json.contains(",\n}"), "no trailing comma in object");
    }

    #[test]
    fn cells_parse_back_from_their_labels() {
        for c in figure9_cells().into_iter().chain([Cell::Reconv]) {
            assert_eq!(Cell::parse(&c.label()), Some(c), "{}", c.label());
        }
        for alias in ["superscalar", "none"] {
            assert_eq!(Cell::parse(alias), Some(Cell::Baseline));
        }
        for unknown in [
            "",
            "Postdoms",
            "postdoms ",
            "loop + loopFT",
            "reconv",
            "rec-pred",
        ] {
            assert_eq!(Cell::parse(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn only_the_baseline_runs_on_the_superscalar() {
        for c in figure9_cells().into_iter().chain([Cell::Reconv]) {
            let expected = if c == Cell::Baseline {
                MachineConfig::superscalar()
            } else {
                MachineConfig::hpca07()
            };
            assert_eq!(c.base_config(), expected, "{}", c.label());
            let figure = c.figure_config();
            assert_eq!(figure.max_cycles, resolve_max_cycles());
            assert_eq!(figure.predictor_key(), expected.predictor_key());
        }
    }

    #[test]
    fn figure9_grid_has_baseline_plus_policies() {
        let cells = figure9_cells();
        assert_eq!(cells[0], Cell::Baseline);
        assert_eq!(cells.len(), 1 + Policy::figure9().len());
    }

    #[test]
    fn failed_outcomes_render_as_nan_and_report() {
        let failed = CellOutcome::Failed {
            workload: "gzip".to_string(),
            cell: "postdoms".to_string(),
            payload: "deliberate".to_string(),
            attempts: 2,
        };
        assert!(failed.is_failed());
        assert!(failed.result().is_none());
        assert!(failed.ipc().is_nan());
        let ok = CellOutcome::Ok(Box::default());
        assert!(!ok.is_failed());
        assert!(failed.speedup_percent_over(&ok).is_nan());
        assert!(ok.speedup_percent_over(&failed).is_nan());

        assert!(report_failures(&[vec![ok, failed]]));
        assert!(!report_failures(&[vec![CellOutcome::Ok(Box::default())]]));
    }

    #[test]
    fn panic_payloads_render() {
        let p = catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(payload_string(p), "boom 7");
        let p = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(payload_string(p), "non-string panic payload");
    }
}
