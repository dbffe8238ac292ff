//! Resident footprint of prepared workloads: every bundled workload,
//! prepared as the figure grid prepares it (trace, shared oracles and
//! one prepared trace for the PolyFlow configuration), keeps at most
//! [`BUDGET`] heap bytes per dynamic instruction.
//!
//! Run with `--nocapture` to see the split per structure.

use polyflow_bench::{polyflow_config, prepare_all_jobs};

/// Heap bytes allowed per dynamic instruction.
const BUDGET: usize = 50;

#[test]
fn prepared_workloads_stay_within_the_byte_budget() {
    let cfg = polyflow_config();
    println!(
        "{:<10} {:>8} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}",
        "workload", "insts", "trace", "dflow", "pcidx", "pred", "cons", "B/inst"
    );
    let (mut bytes, mut insts) = (0, 0);
    for w in prepare_all_jobs(&[], 2) {
        let prep = w.prepared(&cfg);
        let n = w.trace().len();
        let predictions = prep.predictions().heap_bytes();
        let split = [
            w.trace().heap_bytes(),
            prep.dataflow().heap_bytes(),
            w.pc_index().heap_bytes(),
            predictions,
            prep.heap_bytes() - predictions,
        ];
        assert_eq!(split.iter().sum::<usize>(), w.heap_bytes(), "{}", w.name);
        let per = |b: usize| b as f64 / n as f64;
        println!(
            "{:<10} {:>8} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>7.1}",
            w.name,
            n,
            per(split[0]),
            per(split[1]),
            per(split[2]),
            per(split[3]),
            per(split[4]),
            per(w.heap_bytes()),
        );
        assert!(
            w.heap_bytes() <= BUDGET * n,
            "{}: {:.1} B per instruction, budget {BUDGET}",
            w.name,
            per(w.heap_bytes())
        );
        bytes += w.heap_bytes();
        insts += n;
    }
    println!(
        "total      {insts:>8} instructions, {:.1} MB, {:.1} B/inst",
        bytes as f64 / 1e6,
        bytes as f64 / insts as f64
    );
}
