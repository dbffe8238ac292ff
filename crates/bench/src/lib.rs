//! Shared harness for regenerating the paper's figures.
//!
//! Each `fig*` binary in this crate reproduces one figure of the
//! evaluation (see DESIGN.md §4 for the experiment index). This library
//! holds the common machinery: preparing workloads, running policy
//! sweeps, and printing aligned tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use polyflow_core::{Policy, ProgramAnalysis};
use polyflow_isa::{execute_window, Dataflow, PcIndex, Program, Trace};
use polyflow_sim::{MachineConfig, PreparedTrace};
use polyflow_workloads::Workload;
use std::sync::{Arc, Mutex, OnceLock};

pub mod cli;
pub mod fuzz;
pub mod pool;
pub mod stopwatch;
pub mod sweep;

/// A predictor configuration fingerprint ([`MachineConfig::predictor_key`]).
type PredictorKey = (usize, usize, usize);

/// A workload with its trace and spawn analysis, ready for policy sweeps
/// ([`sweep::run_cell`] runs one cell of it).
///
/// The trace and its config-independent oracles (dataflow, PC index) are
/// computed once at preparation and shared read-only (`Arc`) by every
/// policy cell; per-predictor-configuration [`PreparedTrace`]s are built
/// lazily and cached, so no run ever re-derives them.
#[derive(Debug)]
pub struct PreparedWorkload {
    /// Workload name (a bundled benchmark's paper x-axis label, or a
    /// runtime-loaded program's name).
    pub name: String,
    /// The program.
    pub program: Program,
    /// The static spawn-point analysis.
    pub analysis: ProgramAnalysis,
    trace: Arc<Trace>,
    dataflow: Arc<Dataflow>,
    pc_index: Arc<PcIndex>,
    preps: Mutex<Vec<(PredictorKey, PreparedTrace)>>,
}

impl PreparedWorkload {
    /// Executes and analyzes one workload.
    ///
    /// # Panics
    ///
    /// Panics if the program faults or fails to halt within its window
    /// — bundled workloads are tested to halt; for runtime-loaded
    /// programs prefer [`Self::try_prepare`].
    pub fn prepare(w: Workload) -> PreparedWorkload {
        Self::try_prepare(w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::prepare`]: interpreter faults and
    /// non-termination come back as an error message instead of a panic,
    /// so untrusted runtime workloads (uploads, `--asm` files) degrade
    /// to a diagnostic.
    pub fn try_prepare(w: Workload) -> Result<PreparedWorkload, String> {
        let result = execute_window(&w.program, w.window)
            .map_err(|e| format!("{} failed to execute: {e}", w.name))?;
        if !result.halted {
            return Err(format!("{} did not halt in its window", w.name));
        }
        let analysis = ProgramAnalysis::analyze(&w.program);
        let trace = Arc::new(result.trace);
        let dataflow = Arc::new(trace.dataflow());
        let pc_index = Arc::new(trace.pc_index());
        Ok(PreparedWorkload {
            name: w.name,
            program: w.program,
            analysis,
            trace,
            dataflow,
            pc_index,
            preps: Mutex::new(Vec::new()),
        })
    }

    /// The retired-instruction trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The dynamic occurrences of each static PC (shared oracle).
    pub fn pc_index(&self) -> &PcIndex {
        &self.pc_index
    }

    /// Heap bytes of the trace columns and its shared oracles, plus
    /// every [`PreparedTrace`] built so far ([`Self::prepared`]). The
    /// program text and the static analysis are not counted.
    pub fn heap_bytes(&self) -> usize {
        let preps: usize = self
            .preps
            .lock()
            .unwrap()
            .iter()
            .map(|(_, p)| p.heap_bytes())
            .sum();
        self.trace.heap_bytes() + self.dataflow.heap_bytes() + self.pc_index.heap_bytes() + preps
    }

    /// The prepared trace for `cfg`: built once per predictor
    /// configuration ([`MachineConfig::predictor_key`]) on first use and
    /// shared (cheap `Arc` clones) by every subsequent run, across
    /// threads. The superscalar baseline and the PolyFlow machine share a
    /// key, so a full figure grid prepares each workload exactly once.
    pub fn prepared(&self, cfg: &MachineConfig) -> PreparedTrace {
        let key = cfg.predictor_key();
        let mut cache = self.preps.lock().unwrap();
        if let Some((_, p)) = cache.iter().find(|(k, _)| *k == key) {
            return p.clone();
        }
        let p = PreparedTrace::with_oracles(
            Arc::clone(&self.trace),
            Arc::clone(&self.dataflow),
            Arc::clone(&self.pc_index),
            cfg,
        );
        cache.push((key, p.clone()));
        p
    }
}

/// The hard cycle budget every figure binary honors: `--max-cycles N`
/// (or `--max-cycles=N`) on the command line, else the
/// `POLYFLOW_MAX_CYCLES` environment variable, else unlimited
/// (`u64::MAX`). Read once per process; a run that exceeds the budget
/// fails with [`SimError::CyclesExceeded`] and the sweep engine marks
/// its cell `FAILED` instead of hanging the figure.
///
/// [`SimError::CyclesExceeded`]: polyflow_sim::SimError::CyclesExceeded
pub fn resolve_max_cycles() -> u64 {
    static MAX: OnceLock<u64> = OnceLock::new();
    *MAX.get_or_init(|| {
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--max-cycles" {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    return n;
                }
            } else if let Some(n) = a.strip_prefix("--max-cycles=").and_then(|v| v.parse().ok()) {
                return n;
            }
        }
        std::env::var("POLYFLOW_MAX_CYCLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(u64::MAX)
    })
}

/// The PolyFlow machine configuration used by the figure binaries:
/// [`Cell::figure_config`](sweep::Cell::figure_config) of a spawning
/// cell.
pub fn polyflow_config() -> MachineConfig {
    sweep::Cell::Static(Policy::Postdoms).figure_config()
}

/// Prepares every workload (or a named subset), fanning the interpret +
/// analyze work out across the pool ([`pool::resolve_jobs`] workers).
pub fn prepare_all(filter: &[String]) -> Vec<PreparedWorkload> {
    prepare_all_jobs(filter, pool::resolve_jobs())
}

/// [`prepare_all`] with an explicit worker count.
pub fn prepare_all_jobs(filter: &[String], jobs: usize) -> Vec<PreparedWorkload> {
    let selected: Vec<Workload> = polyflow_workloads::all()
        .into_iter()
        .filter(|w| filter.is_empty() || filter.contains(&w.name))
        .collect();
    pool::parallel_map(selected, jobs, |_, w| PreparedWorkload::prepare(w))
}

/// Resolves a figure bin's full workload selection: bundled workloads
/// matching the positional filter, plus every `--asm <path>` runtime
/// workload, in command-line order after the bundled set.
///
/// When `--asm` files are given and no bundled names are listed, only
/// the files run (bring-your-own-workload mode); listing names alongside
/// `--asm` runs both.
///
/// Exits with status 2 (like other CLI errors) when a file cannot be
/// read, fails to assemble, or does not halt within its window.
pub fn prepare_selection(args: &cli::Args) -> Vec<PreparedWorkload> {
    let mut prepared = if args.asm.is_empty() || !args.filter.is_empty() {
        prepare_all(&args.filter)
    } else {
        Vec::new()
    };
    for path in &args.asm {
        let w = polyflow_workloads::from_asm_file(path).unwrap_or_else(|e| {
            eprintln!("cannot load workload `{path}`: {e}");
            std::process::exit(2);
        });
        let pw = PreparedWorkload::try_prepare(w).unwrap_or_else(|e| {
            eprintln!("cannot prepare workload `{path}`: {e}");
            std::process::exit(2);
        });
        prepared.push(pw);
    }
    prepared
}

/// The policy names [`Cell::parse`](sweep::Cell::parse) accepts besides
/// `rec_pred` (for usage messages).
pub const POLICY_NAMES: &[&str] = &[
    "superscalar",
    "loop",
    "loopFT",
    "procFT",
    "hammock",
    "other",
    "postdoms",
];

/// Renders a speedup table as CSV (`benchmark,ss_ipc,<columns...>`).
/// NaN entries — cells the sweep engine marked failed — render as the
/// literal `FAILED` so a degraded figure is machine-detectable.
pub fn speedup_csv(rows: &[(String, f64, Vec<f64>)], columns: &[String]) -> String {
    let mut out = format!("benchmark,ss_ipc,{}\n", columns.join(","));
    for (name, ipc, speedups) in rows {
        let vals: Vec<String> = speedups
            .iter()
            .map(|s| {
                if s.is_nan() {
                    "FAILED".to_string()
                } else {
                    format!("{s:.2}")
                }
            })
            .collect();
        let ipc = if ipc.is_nan() {
            "FAILED".to_string()
        } else {
            format!("{ipc:.3}")
        };
        out.push_str(&format!("{name},{ipc},{}\n", vals.join(",")));
    }
    out
}

/// Emits a speedup table as CSV (`benchmark,ss_ipc,<columns...>`).
pub fn print_speedup_csv(rows: &[(String, f64, Vec<f64>)], columns: &[String]) {
    print!("{}", speedup_csv(rows, columns));
}

/// Prints a speedup table: one row per workload, one column per policy,
/// with a geometric-mean-free arithmetic average row (the paper averages
/// arithmetically). NaN entries — failed sweep cells — render as
/// `FAILED` and are excluded from the column average (an all-failed
/// column averages to `FAILED` too).
pub fn print_speedup_table(
    title: &str,
    rows: &[(String, f64, Vec<f64>)], // (name, baseline IPC, speedups %)
    columns: &[String],
) {
    println!("== {title} ==");
    print!("{:<12} {:>8}", "benchmark", "ss IPC");
    for c in columns {
        print!(" {c:>24}");
    }
    println!();
    let mut sums = vec![0.0; columns.len()];
    let mut counts = vec![0usize; columns.len()];
    for (name, ipc, speedups) in rows {
        if ipc.is_nan() {
            print!("{name:<12} {:>8}", "FAILED");
        } else {
            print!("{name:<12} {ipc:>8.2}");
        }
        for (i, s) in speedups.iter().enumerate() {
            if s.is_nan() {
                print!(" {:>24}", "FAILED");
            } else {
                print!(" {s:>23.1}%");
                sums[i] += s;
                counts[i] += 1;
            }
        }
        println!();
    }
    print!("{:<12} {:>8}", "Average", "");
    for (s, n) in sums.iter().zip(&counts) {
        if *n == 0 {
            print!(" {:>24}", "FAILED");
        } else {
            print!(" {:>23.1}%", s / *n as f64);
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_one_workload() {
        let w = polyflow_workloads::by_name("bzip2").unwrap();
        let pw = PreparedWorkload::prepare(w);
        assert_eq!(pw.name, "bzip2");
        assert!(!pw.trace().is_empty());
        assert!(!pw.analysis.candidates().is_empty());
    }

    #[test]
    fn failed_cells_render_in_csv() {
        let rows = vec![
            ("gzip".to_string(), 1.234, vec![10.0, f64::NAN]),
            ("mcf".to_string(), f64::NAN, vec![f64::NAN, f64::NAN]),
        ];
        let cols = vec!["a".to_string(), "b".to_string()];
        let csv = speedup_csv(&rows, &cols);
        assert!(csv.contains("gzip,1.234,10.00,FAILED"));
        assert!(csv.contains("mcf,FAILED,FAILED,FAILED"));
    }

    #[test]
    fn baseline_and_policy_share_work() {
        use sweep::{run_cell_with_config, Cell};
        let w = polyflow_workloads::by_name("gzip").unwrap();
        let pw = PreparedWorkload::prepare(w);
        let mut scratch = polyflow_sim::SimScratch::default();
        let mut run = |cell: Cell| {
            run_cell_with_config(&pw, cell, &cell.figure_config(), &mut scratch).unwrap()
        };
        let base = run(Cell::Baseline);
        let pd = run(Cell::Static(Policy::Postdoms));
        assert_eq!(base.instructions, pd.instructions);
    }
}
