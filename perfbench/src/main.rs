//! `perfbench`: runs one benchmark workload and prints its result.
//!
//! ```text
//! perfbench --workload grid|hot|upload --seed N --seconds S --trace 0|1 \
//!     [--serve-bin PATH --router-bin PATH] [--out-dir DIR]
//! ```
//!
//! The last stdout line is the result object (`correct`, `attempted`,
//! `failed`, `metrics`); a per-metric table goes to stderr, and a report
//! file recording the seed goes to `<out-dir>/reports/`. Normally run
//! through `perfbench/run.py`, which builds everything first.

use polyflow_perfbench::served::Kind;
use polyflow_perfbench::{complete, grid, measure, served, RunOptions};
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload grid|hot|upload --seed N --seconds S --trace 0|1 \
         [--serve-bin PATH --router-bin PATH] [--out-dir DIR]"
    );
    exit(2);
}

fn main() {
    let mut workload = None;
    let mut setup_only = false;
    let mut opts = RunOptions {
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
        serve_bin: PathBuf::new(),
        router_bin: PathBuf::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        let bad = |what: &str| -> ! {
            eprintln!("perfbench: {flag} needs {what}, got `{value}`");
            exit(2)
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| bad("an integer")),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| bad("a positive number"))
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("0 or 1"),
                }
            }
            "--serve-bin" => opts.serve_bin = value.into(),
            "--router-bin" => opts.router_bin = value.into(),
            "--out-dir" => opts.out_dir = value.into(),
            // Internal: one timed `grid` set-up in a fresh process.
            "--setup-only" => setup_only = value == "1",
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if setup_only && workload == "grid" {
        println!("SETUP_S={}", grid::setup_once());
        return;
    }
    let outcome = match workload.as_str() {
        "grid" => grid::run(&opts),
        "hot" => served::run(Kind::Hot, &opts),
        "upload" => served::run(Kind::Upload, &opts),
        _ => usage(),
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            exit(1);
        }
    };
    complete(&mut report, opts.trace);
    eprint!("{}", report.table(&workload, opts.seed));
    let path = opts.out_dir.join("reports").join(format!(
        "{workload}-trace{}-seed{}-{}.json",
        u8::from(opts.trace),
        opts.seed,
        std::process::id()
    ));
    if let Err(e) = measure::write_file(&path, &report.file_json(&workload, &opts)) {
        report.problem(e);
    }
    println!("{}", report.result_line());
    exit(if report.correct() { 0 } else { 1 });
}
