//! Dynamic read-before-write sets from execution traces.
//!
//! The speculative-task model of the paper says a task spawned at a
//! target PC begins executing the dynamic suffix of the program from
//! that PC. The registers such a task reads *before writing them* are
//! exactly what the spawn hint mechanism must forward. This module
//! extracts those sets from a concrete trace so that static liveness can
//! be validated against them: for every occurrence of a target PC, the
//! dynamic read-before-write set must be a subset of the static
//! (whole-program) live-in set at that PC.

use polyflow_isa::{Pc, Reg, Trace};
use std::collections::HashMap;

/// For each requested PC, the union over all its trace occurrences of the
/// registers the dynamic suffix starting there reads before writing.
///
/// Masks are bit-per-register (`bit i` = `ri`); `r0` is never included.
/// PCs that never occur in the trace map to 0.
///
/// Computed with a single backward pass: maintaining the suffix
/// read-before-write set `S` costs O(1) amortized per trace entry, so the
/// whole computation is O(trace length), independent of how many target
/// PCs are asked for.
pub fn read_before_write_masks(trace: &Trace, targets: &[Pc]) -> HashMap<Pc, u64> {
    let mut acc: HashMap<Pc, u64> = targets.iter().map(|&pc| (pc, 0u64)).collect();
    // S = registers the suffix starting at the *current* entry reads
    // before writing.
    let mut suffix: u64 = 0;
    for e in trace.iter().rev() {
        if let Some(d) = e.inst.dst() {
            suffix &= !(1 << d.index());
        }
        for src in e.inst.srcs().into_iter().flatten() {
            if src != Reg::R0 {
                suffix |= 1 << src.index();
            }
        }
        if let Some(mask) = acc.get_mut(&e.pc) {
            *mask |= suffix;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyflow_isa::{execute_window, AluOp, Cond, ProgramBuilder};

    #[test]
    fn suffix_reads_are_unioned_over_occurrences() {
        // r1 = 3; loop 3×: r2 += r1; halt. At the loop body pc, the
        // suffix reads r1 (add) and r2 (add + the exit compare).
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 3); // 0
        b.li(Reg::R2, 0); // 1
        b.bind_label(top);
        b.alu(AluOp::Add, Reg::R2, Reg::R2, Reg::R1); // 2
        b.br_imm(Cond::Lt, Reg::R2, 9, top); // 3,4
        b.halt(); // 5
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 10_000).unwrap().trace;

        let masks = read_before_write_masks(&trace, &[Pc::new(2), Pc::new(5), Pc::new(0)]);
        let at2 = masks[&Pc::new(2)];
        assert!(at2 & (1 << 1) != 0, "suffix at loop body reads r1");
        assert!(at2 & (1 << 2) != 0, "suffix at loop body reads r2");
        // The suffix from halt reads nothing.
        assert_eq!(masks[&Pc::new(5)], 0);
        // The suffix from pc 0 writes r1 before the loop reads it, and
        // writes r2 at pc 1: nothing is read-before-write.
        assert_eq!(masks[&Pc::new(0)], 0);
        assert!(!masks.contains_key(&Pc::new(1)), "only requested targets");
    }

    #[test]
    fn writes_shadow_later_reads() {
        // pc 1 writes r4, pc 2 reads it: from pc 1 the read is shadowed,
        // from pc 2 it is exposed.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        b.li(Reg::R3, 1); // 0
        b.li(Reg::R4, 2); // 1
        b.alu(AluOp::Add, Reg::R5, Reg::R4, Reg::R3); // 2
        b.halt(); // 3
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100).unwrap().trace;
        let masks = read_before_write_masks(&trace, &[Pc::new(1), Pc::new(2)]);
        assert_eq!(masks[&Pc::new(1)] & (1 << 4), 0);
        assert!(masks[&Pc::new(2)] & (1 << 4) != 0);
        assert!(masks[&Pc::new(2)] & (1 << 3) != 0);
    }
}
