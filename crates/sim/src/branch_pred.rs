//! Branch prediction: gshare for conditional branches, a return-address
//! stack for returns, and a last-target table for indirect jumps.
//!
//! The timing model is trace-driven, so predictions are computed in a
//! single pass over the trace in program (retirement) order — exactly the
//! stream the equivalent-resource superscalar would train on. The per-entry
//! outcome (`correct` / `mispredicted`) is then replayed by the cycle
//! model. This is the standard trace-driven approximation; DESIGN.md §3
//! records it.

use crate::config::MachineConfig;
use polyflow_isa::{Inst, InstClass, Pc, Trace};
use std::collections::HashMap;

/// A 16 Kbit gshare predictor (2-bit counters, XOR-folded global history).
///
/// ```
/// use polyflow_sim::Gshare;
/// use polyflow_isa::Pc;
///
/// let mut g = Gshare::new(13, 8);
/// for _ in 0..32 {
///     g.update(Pc::new(64), true); // an always-taken loop branch
/// }
/// assert!(g.predict(Pc::new(64)));
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    counters: Vec<u8>,
    history: u64,
    history_mask: u64,
    index_mask: u64,
}

impl Gshare {
    /// Creates a predictor with `index_bits` counters and `history_bits`
    /// of global history.
    pub fn new(index_bits: usize, history_bits: usize) -> Gshare {
        Gshare {
            counters: vec![1; 1 << index_bits], // weakly not-taken
            history: 0,
            history_mask: (1u64 << history_bits) - 1,
            index_mask: (1u64 << index_bits) - 1,
        }
    }

    #[inline]
    fn index(&self, pc: Pc) -> usize {
        (((pc.index() as u64) ^ self.history) & self.index_mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: Pc) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Updates the counter and global history with the actual outcome.
    ///
    /// Must only be called for *conditional* branches: calls, returns and
    /// indirect jumps have their own predictors, and shifting their
    /// outcomes into the global history would alias unrelated counters
    /// and skew the conditional misprediction rate.
    #[inline]
    pub fn update(&mut self, pc: Pc, taken: bool) {
        let i = self.index(pc);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = ((self.history << 1) | taken as u64) & self.history_mask;
    }

    /// The current global history register (shifted only by conditional
    /// branches — exposed so tests can audit that other instruction
    /// classes never pollute it).
    pub fn history(&self) -> u64 {
        self.history
    }
}

/// A bounded return-address stack.
#[derive(Debug, Clone)]
pub struct ReturnStack {
    stack: Vec<Pc>,
    capacity: usize,
}

impl ReturnStack {
    /// Creates a stack holding up to `capacity` return addresses.
    pub fn new(capacity: usize) -> ReturnStack {
        ReturnStack {
            stack: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Records a call's return address.
    pub fn push(&mut self, ret: Pc) {
        if self.stack.len() == self.capacity {
            self.stack.remove(0);
        }
        self.stack.push(ret);
    }

    /// Pops the predicted return target.
    pub fn pop(&mut self) -> Option<Pc> {
        self.stack.pop()
    }
}

/// Per-trace-entry control-flow prediction outcomes.
#[derive(Debug, Clone)]
pub struct PredictionTrace {
    mispredicted: Vec<bool>,
    cond_branches: u64,
    cond_mispredicts: u64,
    indirect_mispredicts: u64,
    final_history: u64,
}

impl PredictionTrace {
    /// Runs the predictors over `trace` in retirement order.
    pub fn compute(trace: &Trace, config: &MachineConfig) -> PredictionTrace {
        let mut gshare = Gshare::new(config.gshare_index_bits, config.gshare_history_bits);
        let mut ras = ReturnStack::new(config.ras_entries);
        let mut last_target: HashMap<Pc, Pc> = HashMap::new();
        let mut mispredicted = vec![false; trace.len()];
        let mut cond_branches = 0;
        let mut cond_mispredicts = 0;
        let mut indirect_mispredicts = 0;

        for (i, e) in trace.iter().enumerate() {
            match e.class() {
                InstClass::CondBranch => {
                    cond_branches += 1;
                    let predicted = gshare.predict(e.pc);
                    if predicted != e.taken {
                        mispredicted[i] = true;
                        cond_mispredicts += 1;
                    }
                    gshare.update(e.pc, e.taken);
                }
                InstClass::Call => {
                    ras.push(e.pc.next());
                    if matches!(e.inst, Inst::CallR { .. }) {
                        let predicted = last_target.insert(e.pc, e.next_pc);
                        if predicted != Some(e.next_pc) {
                            mispredicted[i] = true;
                            indirect_mispredicts += 1;
                        }
                    }
                }
                InstClass::Ret => {
                    let predicted = ras.pop();
                    if predicted != Some(e.next_pc) {
                        mispredicted[i] = true;
                        indirect_mispredicts += 1;
                    }
                }
                InstClass::IndirectJump => {
                    let predicted = last_target.insert(e.pc, e.next_pc);
                    if predicted != Some(e.next_pc) {
                        mispredicted[i] = true;
                        indirect_mispredicts += 1;
                    }
                }
                _ => {}
            }
        }
        PredictionTrace {
            mispredicted,
            cond_branches,
            cond_mispredicts,
            indirect_mispredicts,
            final_history: gshare.history(),
        }
    }

    /// True if the control transfer at trace index `i` was mispredicted.
    #[inline]
    pub fn mispredicted(&self, i: usize) -> bool {
        self.mispredicted[i]
    }

    /// Heap bytes held by the per-entry outcomes.
    pub fn heap_bytes(&self) -> usize {
        self.mispredicted.capacity()
    }

    /// Retired conditional branches.
    pub fn cond_branches(&self) -> u64 {
        self.cond_branches
    }

    /// Mispredicted conditional branches.
    pub fn cond_mispredicts(&self) -> u64 {
        self.cond_mispredicts
    }

    /// Mispredicted returns and indirect jumps/calls.
    pub fn indirect_mispredicts(&self) -> u64 {
        self.indirect_mispredicts
    }

    /// The gshare global-history register after the full pass — shifted
    /// once per conditional branch and by nothing else (audited by the
    /// call-heavy-trace test).
    pub fn final_history(&self) -> u64 {
        self.final_history
    }

    /// Conditional-branch misprediction rate in [0, 1].
    pub fn cond_misp_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.cond_mispredicts as f64 / self.cond_branches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyflow_isa::{execute_window, AluOp, Cond, ProgramBuilder, Reg};

    #[test]
    fn gshare_learns_bias() {
        let mut g = Gshare::new(10, 8);
        let pc = Pc::new(100);
        for _ in 0..10 {
            g.update(pc, true);
        }
        assert!(g.predict(pc));
        // History changes the index, so train across the same history
        // pattern.
        let mut correct = 0;
        for _ in 0..100 {
            if g.predict(pc) {
                correct += 1;
            }
            g.update(pc, true);
        }
        assert!(correct > 90);
    }

    #[test]
    fn gshare_learns_alternation_with_history() {
        // Alternating T/NT is perfectly predictable with history.
        let mut g = Gshare::new(12, 8);
        let pc = Pc::new(7);
        let mut correct = 0;
        for i in 0..400u32 {
            let taken = i % 2 == 0;
            if g.predict(pc) == taken && i > 100 {
                correct += 1;
            }
            g.update(pc, taken);
        }
        assert!(correct > 280, "only {correct} correct");
    }

    #[test]
    fn return_stack_predicts_nested_returns() {
        let mut ras = ReturnStack::new(8);
        ras.push(Pc::new(10));
        ras.push(Pc::new(20));
        assert_eq!(ras.pop(), Some(Pc::new(20)));
        assert_eq!(ras.pop(), Some(Pc::new(10)));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn return_stack_caps_depth() {
        let mut ras = ReturnStack::new(2);
        ras.push(Pc::new(1));
        ras.push(Pc::new(2));
        ras.push(Pc::new(3)); // evicts 1
        assert_eq!(ras.pop(), Some(Pc::new(3)));
        assert_eq!(ras.pop(), Some(Pc::new(2)));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn prediction_trace_on_biased_loop() {
        // A 100-iteration loop: the loop branch mispredicts rarely
        // (final exit + warm-up).
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.bind_label(top);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 400, top);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let pt = PredictionTrace::compute(&trace, &MachineConfig::hpca07());
        assert_eq!(pt.cond_branches(), 400);
        assert!(pt.cond_misp_rate() < 0.08, "rate {}", pt.cond_misp_rate());
    }

    #[test]
    fn calls_and_returns_predicted_by_ras() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.bind_label(top);
        b.call("leaf");
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 50, top);
        b.halt();
        b.end_function();
        b.begin_function("leaf");
        b.nop();
        b.ret();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let pt = PredictionTrace::compute(&trace, &MachineConfig::hpca07());
        // All 50 returns hit in the RAS.
        assert_eq!(pt.indirect_mispredicts(), 0);
    }

    #[test]
    fn call_heavy_trace_leaves_gshare_history_untouched() {
        // A straight-line chain of calls/returns with no conditional
        // branch at all: the gshare history register must stay 0. Calls,
        // returns and indirect jumps are handled by the RAS / last-target
        // table, and feeding them through `Gshare::update` would shift
        // their outcomes into the global history, aliasing unrelated
        // counters and skewing `cond_misp_rate`.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        for _ in 0..40 {
            b.call("leaf");
        }
        b.halt();
        b.end_function();
        b.begin_function("leaf");
        b.nop();
        b.ret();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let pt = PredictionTrace::compute(&trace, &MachineConfig::hpca07());
        assert_eq!(pt.cond_branches(), 0);
        assert_eq!(
            pt.final_history(),
            0,
            "non-conditional control flow polluted the gshare history"
        );
        // And with conditional branches present, the history shifts
        // exactly once per branch (low bits reflect the last outcomes).
        let mut g = Gshare::new(10, 8);
        g.update(Pc::new(4), true);
        g.update(Pc::new(8), false);
        g.update(Pc::new(12), true);
        assert_eq!(g.history(), 0b101);
    }

    #[test]
    fn stable_indirect_jump_predicted_after_first() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        let case = b.fresh_label("case");
        let back = b.fresh_label("back");
        b.li(Reg::R1, 0);
        b.bind_label(top);
        b.li_label_addr(Reg::R2, case);
        b.jr(Reg::R2, &[case]);
        b.bind_label(case);
        b.bind_label(back);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 20, top);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let pt = PredictionTrace::compute(&trace, &MachineConfig::hpca07());
        // Only the first (cold) indirect jump mispredicts.
        assert_eq!(pt.indirect_mispredicts(), 1);
    }
}
