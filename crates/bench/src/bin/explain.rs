//! Explains one run: where every cycle-slot went, per bucket and per
//! task, and where the speedup over the superscalar baseline came from.
//!
//! Usage: `explain <workload> [policy] [--json] [--events <path>]
//! [--top N] [--width N]`, or `explain --asm <path> [policy] ...` to
//! explain a runtime-loaded `.asm` workload instead of a bundled name.
//!
//! * `policy` — any of `superscalar`, `loop`, `loopFT`, `procFT`,
//!   `hammock`, `other`, `postdoms` (default `postdoms`).
//! * `--json` — emit the baseline and policy [`SimResult`]s (including
//!   the full cycle account) as JSON instead of tables.
//! * `--events <path>` — additionally stream the run's structured event
//!   trace as JSON Lines to `path`.
//! * `--top N` — rows in the per-task table (default 10).
//! * `--width N` — timeline chart width (default 100).
//!
//! The speedup decomposition is exact: the baseline accounts one slot per
//! cycle and the PolyFlow machine `contexts` slots per cycle, so
//! comparing the baseline's bucket cycles against the run's per-context
//! average makes the per-bucket deltas sum to exactly the cycles saved.

use polyflow_bench::sweep::{run_cell, Cell};
use polyflow_bench::{PreparedWorkload, POLICY_NAMES};
use polyflow_core::Policy;
use polyflow_sim::{timeline, Bucket, JsonlSink, NullSink, SimOptions, SimResult, TraceSink};

struct Options {
    workload: String,
    asm: Option<String>,
    cell: Cell,
    json: bool,
    events: Option<String>,
    top: usize,
    width: usize,
}

impl Options {
    /// The run's figure-legend name (`superscalar` for the baseline).
    fn policy_name(&self) -> String {
        match self.cell {
            Cell::Static(p) => p.name(),
            _ => Policy::None.name(),
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        asm: None,
        cell: Cell::Static(Policy::Postdoms),
        json: false,
        events: None,
        top: 10,
        width: 100,
    };
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--" => {} // cargo-run argument separator
            "--help" | "-h" => {
                println!(
                    "explain — per-bucket cycle accounting for one run\n\n\
                     Usage: explain <workload|--asm path> [policy] [--json] \
                     [--events <path>] [--top N] [--width N]\n\n\
                     Policies: {POLICY_NAMES:?} (default postdoms)"
                );
                std::process::exit(0);
            }
            "--json" => opts.json = true,
            "--asm" => {
                opts.asm = Some(args.next().ok_or("--asm requires a path")?);
            }
            "--events" => {
                opts.events = Some(args.next().ok_or("--events requires a path")?);
            }
            "--top" => {
                let v = args.next().ok_or("--top requires a count")?;
                opts.top = v.parse().map_err(|_| format!("bad --top value `{v}`"))?;
            }
            "--width" => {
                let v = args.next().ok_or("--width requires a column count")?;
                opts.width = v.parse().map_err(|_| format!("bad --width value `{v}`"))?;
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => positional.push(other.to_string()),
        }
    }
    let mut positional = positional.into_iter();
    if opts.asm.is_none() {
        opts.workload = positional.next().ok_or("missing <workload>")?;
    }
    if let Some(p) = positional.next() {
        opts.cell = Cell::parse(&p)
            .filter(|c| *c != Cell::Reconv)
            .ok_or_else(|| format!("unknown policy `{p}`; one of {POLICY_NAMES:?}"))?;
    }
    Ok(opts)
}

fn main() {
    let mut opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("explain: {e}");
            eprintln!(
                "usage: explain <workload> [policy] [--json] [--events <path>] \
                 [--top N] [--width N]"
            );
            std::process::exit(2);
        }
    };
    let w = match &opts.asm {
        Some(path) => match polyflow_workloads::from_asm_file(path) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("explain: cannot load workload `{path}`: {e}");
                std::process::exit(1);
            }
        },
        None => match polyflow_workloads::by_name(&opts.workload) {
            Some(w) => w,
            None => {
                eprintln!(
                    "unknown workload `{}`; one of {:?}",
                    opts.workload,
                    polyflow_workloads::NAMES
                );
                std::process::exit(1);
            }
        },
    };
    let pw = match PreparedWorkload::try_prepare(w) {
        Ok(pw) => pw,
        Err(e) => {
            eprintln!("explain: {e}");
            std::process::exit(1);
        }
    };
    opts.workload = pw.name.clone();
    let run = |cell: Cell, sink: &mut dyn TraceSink| {
        let cfg = cell.figure_config();
        let mut scratch = Default::default();
        match run_cell(&pw, cell, &cfg, &mut scratch, sink, SimOptions::default()) {
            Ok((r, _)) => r,
            Err(e) => {
                eprintln!("explain: {}/{}: {e}", pw.name, cell.label());
                std::process::exit(1);
            }
        }
    };
    let baseline = run(Cell::Baseline, &mut NullSink);
    let run = match &opts.events {
        Some(path) => {
            let file = match std::fs::File::create(path) {
                Ok(f) => std::io::BufWriter::new(f),
                Err(e) => {
                    eprintln!("explain: cannot create {path}: {e}");
                    std::process::exit(1);
                }
            };
            let mut sink = JsonlSink::new(file);
            let r = run(opts.cell, &mut sink);
            eprintln!("wrote {} events to {path}", sink.written());
            r
        }
        None => run(opts.cell, &mut NullSink),
    };

    if opts.json {
        print_json(&opts, &baseline, &run);
    } else {
        print_tables(&opts, &baseline, &run);
    }
}

fn print_json(opts: &Options, baseline: &SimResult, run: &SimResult) {
    println!("{{");
    println!("\"workload\": \"{}\",", opts.workload);
    println!("\"policy\": \"{}\",", opts.policy_name());
    println!(
        "\"speedup_percent\": {:.2},",
        run.speedup_percent_over(baseline)
    );
    print!("\"baseline\": {},", baseline.to_json());
    print!("\"run\": {}", run.to_json());
    println!("}}");
}

fn print_tables(opts: &Options, baseline: &SimResult, run: &SimResult) {
    let policy = opts.policy_name();
    println!(
        "== {} under {policy}: {} instrs ==",
        opts.workload, run.instructions
    );
    println!(
        "baseline (superscalar): {:>9} cycles  IPC {:.2}",
        baseline.cycles,
        baseline.ipc()
    );
    println!(
        "{policy:<22}: {:>9} cycles  IPC {:.2}  speedup {:+.1}%",
        run.cycles,
        run.ipc(),
        run.speedup_percent_over(baseline)
    );
    println!(
        "{} spawns, {} squashes, {} diverted, max {} live tasks",
        run.total_spawns(),
        run.squashes,
        run.diverted,
        run.max_live_tasks
    );

    // Bucket table: baseline cycles vs the run's per-context average.
    // Both columns sum to their run's cycle count, so the deltas sum to
    // exactly the cycles saved.
    let contexts = run.account.contexts.max(1);
    println!("\n-- cycle account (per context; deltas sum to cycles saved) --");
    println!(
        "{:<16} {:>12} {:>7} {:>12} {:>7} {:>12}",
        "bucket", "baseline", "%", policy, "%", "delta"
    );
    let mut rows: Vec<(Bucket, f64)> = Bucket::ALL
        .iter()
        .map(|&b| {
            let base = baseline.account.bucket(b) as f64 / baseline.account.contexts.max(1) as f64;
            let here = run.account.bucket(b) as f64 / contexts as f64;
            (b, base - here)
        })
        .collect();
    for &(b, delta) in &rows {
        println!(
            "{:<16} {:>12.0} {:>6.1}% {:>12.0} {:>6.1}% {:>+12.0}",
            b.label(),
            baseline.account.bucket(b) as f64 / baseline.account.contexts.max(1) as f64,
            baseline.account.percent(b),
            run.account.bucket(b) as f64 / contexts as f64,
            run.account.percent(b),
            delta
        );
    }
    let saved: f64 = rows.iter().map(|(_, d)| d).sum();
    println!(
        "{:<16} {:>12} {:>7} {:>12} {:>7} {:>+12.0}  (= {} - {})",
        "total", baseline.cycles, "", run.cycles, "", saved, baseline.cycles, run.cycles
    );

    // Top-N speedup sources.
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\n-- where did the speedup come from (top {}) --", opts.top);
    for (b, delta) in rows.iter().take(opts.top) {
        if *delta <= 0.0 {
            continue;
        }
        println!(
            "{:>+10.0} cycles  {}  ({:.1}% of baseline time)",
            delta,
            b.label(),
            100.0 * delta / baseline.cycles.max(1) as f64
        );
    }

    // Per-task accounts, largest first.
    let mut tasks: Vec<(usize, &polyflow_sim::TaskAccount)> =
        run.account.tasks.iter().enumerate().collect();
    tasks.sort_by_key(|(_, t)| std::cmp::Reverse(t.total()));
    println!(
        "\n-- per-task cycle accounts (top {} of {}) --",
        opts.top,
        tasks.len()
    );
    println!(
        "{:<5} {:<9} {:>9} {:>10} {:>10} {:>9}  dominant stall",
        "task", "kind", "spawn@", "slots", "retire", "stalled"
    );
    for (uid, t) in tasks.iter().take(opts.top) {
        let kind = t
            .kind
            .map(|k| k.to_string())
            .unwrap_or_else(|| "initial".into());
        let dominant = Bucket::ALL
            .iter()
            .filter(|b| b.is_stall())
            .max_by_key(|b| t.buckets[b.index()])
            .filter(|b| t.buckets[b.index()] > 0)
            .map(|b| format!("{} ({})", b.label(), t.buckets[b.index()]))
            .unwrap_or_else(|| "-".into());
        println!(
            "{uid:<5} {kind:<9} {:>9} {:>10} {:>10} {:>9}  {dominant}",
            t.spawn_cycle,
            t.total(),
            t.buckets[Bucket::Retire.index()],
            t.stalled()
        );
    }

    // The Figure-4 chart.
    println!("\n-- task timeline (Figure 4) --");
    print!("{}", timeline::render(run, opts.width));
    print!("{}", timeline::summary(run));
}
