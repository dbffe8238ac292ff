//! Ablation studies of the design choices DESIGN.md calls out: the spawn
//! distance cap, the divert release delay, the spawn overhead, the
//! profitability feedback, the two-task fetch port, and the task count.
//!
//! Each ablation runs the `postdoms` policy on a representative subset
//! and reports the average speedup over the (unchanged) superscalar. The
//! whole variant grid executes on the sweep engine's worker pool; every
//! variant shares one prepared trace per workload (the ablations only
//! vary task geometry, never the branch predictors).
//!
//! Usage: `ablations [--jobs N] [workload ...]` (default: a 4-benchmark
//! subset).

use polyflow_bench::sweep::{report_failures, run_cell_with_config, run_grid_with, Cell};
use polyflow_bench::{pool, PreparedWorkload};
use polyflow_core::Policy;
use polyflow_sim::{
    try_simulate_opts, DependenceMode, HintCacheSource, MachineConfig, NullSink, SimError,
    SimOptions, SimScratch, StaticSpawnSource,
};

/// Every ablation varies the `postdoms` cell.
const POSTDOMS: Cell = Cell::Static(Policy::Postdoms);

/// One ablation row: a machine-config variant, or the hint-cache capacity
/// model layered on the unmodified Figure 8 config.
enum Variant {
    Config(Box<MachineConfig>),
    HintCache(usize),
}

fn run_variant(
    w: &PreparedWorkload,
    v: &Variant,
    scratch: &mut SimScratch,
) -> Result<polyflow_sim::SimResult, SimError> {
    match v {
        Variant::Config(cfg) => run_cell_with_config(w, POSTDOMS, cfg, scratch),
        Variant::HintCache(entries) => {
            let cfg = POSTDOMS.base_config();
            let inner = StaticSpawnSource::new(w.analysis.spawn_table(Policy::Postdoms));
            let mut src = HintCacheSource::new(inner, *entries, 4);
            let (prepared, opts) = (w.prepared(&cfg), SimOptions::default());
            try_simulate_opts(&prepared, &cfg, &mut src, scratch, &mut NullSink, opts)
                .map(|(r, _)| r)
        }
    }
}

const SPEC: polyflow_bench::cli::Spec = polyflow_bench::cli::Spec {
    name: "ablations",
    about: "Ablation studies of the design choices DESIGN.md calls out, \
            as average postdoms speedup over the unchanged superscalar",
    flags: &[
        polyflow_bench::cli::JOBS,
        polyflow_bench::cli::MAX_CYCLES,
        polyflow_bench::cli::ASM,
    ],
    takes_workloads: true,
};

fn main() {
    let mut args = polyflow_bench::cli::parse(&SPEC);
    if args.filter.is_empty() && args.asm.is_empty() {
        args.filter = ["mcf", "vortex", "twolf", "crafty"]
            .map(String::from)
            .to_vec();
    }
    let workloads = polyflow_bench::prepare_selection(&args);
    let base_cfg = POSTDOMS.base_config();

    // Build the full variant list up front (labels carry the exact column
    // formatting of the report), then run the whole (workload × variant)
    // grid in one parallel sweep.
    let mut rows: Vec<(String, Variant)> = Vec::new();
    let cfg_row = |label: String, cfg: MachineConfig| (label, Variant::Config(Box::new(cfg)));
    rows.push(cfg_row(
        "baseline config:                      ".to_string(),
        base_cfg.clone(),
    ));
    for dist in [64, 128, 320, 1024, 4096] {
        rows.push(cfg_row(
            format!("max_spawn_distance = {dist:<5}           "),
            MachineConfig {
                max_spawn_distance: dist,
                ..base_cfg.clone()
            },
        ));
    }
    for delay in [0, 3, 6, 12, 24] {
        rows.push(cfg_row(
            format!("divert_release_delay = {delay:<3}           "),
            MachineConfig {
                divert_release_delay: delay,
                ..base_cfg.clone()
            },
        ));
    }
    for overhead in [0, 3, 8, 16] {
        rows.push(cfg_row(
            format!("spawn_overhead_cycles = {overhead:<3}          "),
            MachineConfig {
                spawn_overhead_cycles: overhead,
                ..base_cfg.clone()
            },
        ));
    }
    for feedback in [true, false] {
        rows.push(cfg_row(
            format!("profitability_feedback = {feedback:<5}      "),
            MachineConfig {
                profitability_feedback: feedback,
                ..base_cfg.clone()
            },
        ));
    }
    for ports in [1, 2, 4] {
        rows.push(cfg_row(
            format!("fetch_tasks_per_cycle = {ports}            "),
            MachineConfig {
                fetch_tasks_per_cycle: ports,
                ..base_cfg.clone()
            },
        ));
    }
    // Hint-cache capacity (the paper idealizes this; §3.2): how many
    // 8-byte hint entries does control-equivalent spawning need?
    for entries in [16usize, 64, 256, 1024] {
        rows.push((
            format!("hint_cache_entries = {entries:<5}          "),
            Variant::HintCache(entries),
        ));
    }
    for mode in [DependenceMode::OracleSync, DependenceMode::StoreSet] {
        rows.push(cfg_row(
            format!("memory_dependence = {mode:<10?}       "),
            MachineConfig {
                memory_dependence: mode,
                ..base_cfg.clone()
            },
        ));
    }
    for any in [false, true] {
        rows.push(cfg_row(
            format!("spawn_from_any_task = {any:<5}         "),
            MachineConfig {
                spawn_from_any_task: any,
                ..base_cfg.clone()
            },
        ));
    }
    for (rob, reclaim) in [(512, false), (128, false), (128, true)] {
        rows.push(cfg_row(
            format!("rob = {rob:<4} reclamation = {reclaim:<5}     "),
            MachineConfig {
                rob_entries: rob,
                rob_reclamation: reclaim,
                ..base_cfg.clone()
            },
        ));
    }
    for tasks in [2, 4, 8, 16] {
        rows.push(cfg_row(
            format!("max_tasks = {tasks:<2}                       "),
            MachineConfig {
                max_tasks: tasks,
                ..base_cfg.clone()
            },
        ));
    }

    // Cell 0 is the shared superscalar baseline; cell i+1 is rows[i].
    let cells: Vec<usize> = (0..=rows.len()).collect();
    let (grid, report) = run_grid_with(
        "ablations",
        &workloads,
        &cells,
        pool::resolve_jobs(),
        |w, &ci, scratch| {
            if ci == 0 {
                run_cell_with_config(w, Cell::Baseline, &Cell::Baseline.figure_config(), scratch)
            } else {
                run_variant(w, &rows[ci - 1].1, scratch)
            }
        },
        |&ci| {
            if ci == 0 {
                "baseline".to_string()
            } else {
                rows[ci - 1].0.trim().trim_end_matches(':').to_string()
            }
        },
    );

    println!("== Ablations (postdoms policy, avg speedup % over superscalar) ==");
    for (ci, (label, _)) in rows.iter().enumerate() {
        let mut total = 0.0;
        for row in &grid {
            total += row[ci + 1].speedup_percent_over(&row[0]);
        }
        let avg = total / workloads.len() as f64;
        if avg.is_nan() {
            println!("{label}FAILED");
        } else {
            println!("{label}{avg:6.1}%");
        }
    }
    report.emit();
    if report_failures(&grid) {
        std::process::exit(1);
    }
}
