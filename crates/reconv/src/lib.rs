//! Dynamic reconvergence prediction, modeled after Collins, Tullsen and
//! Wang, *Control Flow Optimization via Dynamic Reconvergence Prediction*
//! (MICRO-37), as used by the paper's §2.4/§4.4 to reconstruct immediate
//! postdominator information at run time.
//!
//! A [`ReconvergencePredictor`] observes the committed (retired)
//! instruction stream. For each static conditional branch it learns a
//! *reconvergence point*: the PC where control flow is expected to rejoin
//! regardless of the branch direction. That point approximates the
//! immediate postdominator of the branch's basic block and can be used as
//! a spawn target without any compiler support.
//!
//! Following the paper:
//!
//! * the predictor trains on the retirement stream (§4.4), so **warm-up
//!   effects are modeled** — a branch predicts nothing until it has been
//!   observed, and poorly until both directions have retired;
//! * capacity and conflict effects in the predictor's storage are **not**
//!   modeled (the paper makes the same simplification in §4.4);
//! * candidates are maintained in categories; the most important category
//!   is a reconvergence PC **below** the branch PC in program layout
//!   (§2.4), which captures if/if-else joins and loop fall-throughs; a
//!   second category covers reconvergence **at or above** the branch
//!   (loop headers reached by backward branches).
//!
//! # Example
//!
//! ```
//! use polyflow_reconv::{ReconvConfig, ReconvergencePredictor};
//! use polyflow_isa::{ProgramBuilder, Reg, Cond, AluOp, execute_window};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! b.begin_function("main");
//! let skip = b.fresh_label("skip");
//! b.li(Reg::R1, 0);
//! let top = b.fresh_label("top");
//! b.bind_label(top);
//! b.alui(AluOp::And, Reg::R2, Reg::R1, 1);
//! b.br_imm(Cond::Eq, Reg::R2, 0, skip);        // alternating hammock
//! b.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
//! b.bind_label(skip);
//! b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);     // join
//! b.br_imm(Cond::Lt, Reg::R1, 50, top);
//! b.halt();
//! b.end_function();
//! let program = b.build()?;
//! let trace = execute_window(&program, 10_000)?.trace;
//!
//! let mut pred = ReconvergencePredictor::new(ReconvConfig::default());
//! for e in &trace {
//!     pred.observe(&e);
//! }
//! // The hammock branch's reconvergence point is the join.
//! let branch_pc = trace.iter().find(|e| e.inst.is_cond_branch()).unwrap().pc;
//! assert!(pred.predict(branch_pc).is_some());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use polyflow_isa::{Pc, TraceEntry};
use std::collections::{BTreeSet, HashMap};

/// Which candidate category produced a prediction (paper §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReconvCategory {
    /// Reconvergence PC lies below the branch PC in program layout — the
    /// paper's "most important" category: forward if/if-else joins and the
    /// fall-throughs of backward loop branches.
    Below,
    /// Reconvergence PC at or above the branch PC (e.g. a loop header).
    AboveOrEqual,
    /// Only one direction has been observed: the predictor falls back to
    /// the first PC committed after the branch on that path.
    SingleDirection,
}

/// Configuration for the predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconvConfig {
    /// How many committed instructions after a branch are considered when
    /// searching for its reconvergence point.
    pub window: usize,
    /// Cap on stored distinct PCs per branch direction (idealized storage;
    /// insertions stop at the cap).
    pub max_pcs_per_direction: usize,
    /// Number of training observations of a direction before its PC set is
    /// considered stable enough to predict from.
    pub min_observations: u32,
}

impl Default for ReconvConfig {
    fn default() -> Self {
        ReconvConfig {
            window: 256,
            max_pcs_per_direction: 512,
            min_observations: 1,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct BranchEntry {
    taken_pcs: BTreeSet<Pc>,
    not_taken_pcs: BTreeSet<Pc>,
    taken_obs: u32,
    not_taken_obs: u32,
    /// True if the branch's taken target is at or above the branch itself
    /// (a backward branch, i.e. a loop branch).
    backward: bool,
    /// For indirect jumps: the running intersection of committed-PC
    /// windows across instances. PCs common to *every* observed path are
    /// the reconvergence region (Collins et al. used the predictor for
    /// indirect jumps in DMT; the paper's §4.4 spawns at their
    /// reconvergence points too).
    jr_common: Option<BTreeSet<Pc>>,
    jr_obs: u32,
}

/// An in-flight training window for one dynamic branch instance.
#[derive(Debug)]
struct ActiveTracker {
    branch_pc: Pc,
    taken: bool,
    is_jr: bool,
    remaining: usize,
    pcs: Vec<Pc>,
}

/// Learns per-branch reconvergence points from the retirement stream.
///
/// Feed every retired instruction to [`observe`](Self::observe) in program
/// order; query [`predict`](Self::predict) at any time (typically at fetch,
/// as the Task Spawn Unit does).
#[derive(Debug)]
pub struct ReconvergencePredictor {
    config: ReconvConfig,
    table: HashMap<Pc, BranchEntry>,
    active: Vec<ActiveTracker>,
    /// Static branches currently being tracked (one training slot per
    /// static branch, like the hardware's single active entry).
    tracking: std::collections::HashSet<Pc>,
    observed: u64,
}

impl ReconvergencePredictor {
    /// Creates a predictor with the given configuration.
    pub fn new(config: ReconvConfig) -> ReconvergencePredictor {
        ReconvergencePredictor {
            config,
            table: HashMap::new(),
            active: Vec::new(),
            tracking: std::collections::HashSet::new(),
            observed: 0,
        }
    }

    /// Observes one retired instruction.
    ///
    /// Conditional branches open a training window (one per static branch
    /// at a time); every later instruction extends open windows. A window
    /// closes when it fills, or — crucially for loops — when the same
    /// static branch commits again: reconvergence for an instance must
    /// happen before the branch re-executes, so later-iteration PCs must
    /// not pollute the candidate sets.
    pub fn observe(&mut self, e: &TraceEntry) {
        self.observed += 1;
        // Extend open windows; close those that fill or whose branch
        // recommits.
        let mut finished = Vec::new();
        for (i, t) in self.active.iter_mut().enumerate() {
            if e.pc == t.branch_pc {
                finished.push(i);
                continue;
            }
            t.pcs.push(e.pc);
            t.remaining -= 1;
            if t.remaining == 0 {
                finished.push(i);
            }
        }
        // Retire finished windows (back to front to keep indices valid).
        for &i in finished.iter().rev() {
            let t = self.active.swap_remove(i);
            self.commit_window(t);
        }
        // Open a new window for this branch or indirect jump.
        let is_jr = matches!(e.inst, polyflow_isa::Inst::Jr { .. });
        if (e.inst.is_cond_branch() || is_jr) && !self.tracking.contains(&e.pc) {
            if let polyflow_isa::Inst::Br { target, .. } = e.inst {
                self.table.entry(e.pc).or_default().backward = target <= e.pc;
            }
            self.tracking.insert(e.pc);
            self.active.push(ActiveTracker {
                branch_pc: e.pc,
                taken: e.taken,
                is_jr,
                remaining: self.config.window,
                pcs: Vec::with_capacity(self.config.window.min(64)),
            });
        }
    }

    /// Flushes any still-open training windows (call at end of stream).
    pub fn flush(&mut self) {
        for t in std::mem::take(&mut self.active) {
            self.commit_window(t);
        }
    }

    fn commit_window(&mut self, t: ActiveTracker) {
        self.tracking.remove(&t.branch_pc);
        let entry = self.table.entry(t.branch_pc).or_default();
        if t.is_jr {
            let window: BTreeSet<Pc> = t
                .pcs
                .into_iter()
                .take(self.config.max_pcs_per_direction)
                .collect();
            entry.jr_obs += 1;
            entry.jr_common = Some(match entry.jr_common.take() {
                None => window,
                Some(common) => common.intersection(&window).copied().collect(),
            });
            return;
        }
        let (set, obs) = if t.taken {
            (&mut entry.taken_pcs, &mut entry.taken_obs)
        } else {
            (&mut entry.not_taken_pcs, &mut entry.not_taken_obs)
        };
        *obs += 1;
        for pc in t.pcs {
            if set.len() >= self.config.max_pcs_per_direction {
                break;
            }
            set.insert(pc);
        }
    }

    /// Predicts the reconvergence point for the branch at `branch_pc`.
    ///
    /// Returns `None` for never-observed branches (warm-up, §4.4).
    pub fn predict(&self, branch_pc: Pc) -> Option<Pc> {
        self.predict_with_category(branch_pc).map(|(pc, _)| pc)
    }

    /// Predicts the reconvergence point along with its category.
    pub fn predict_with_category(&self, branch_pc: Pc) -> Option<(Pc, ReconvCategory)> {
        let e = self.table.get(&branch_pc)?;
        // Indirect jumps: the intersection of committed windows across
        // instances is the common (reconvergence) region; take its first
        // PC below the jump.
        if let Some(common) = &e.jr_common {
            if e.jr_obs >= 2 {
                let below = common.iter().find(|&&pc| pc > branch_pc);
                return below.map(|&pc| (pc, ReconvCategory::Below));
            }
        }
        if e.taken_obs == 0 && e.not_taken_obs == 0 {
            return None;
        }
        // Backward (loop) branches: per-instance windows end when the
        // branch recommits, so loop-body PCs all lie at or above the
        // branch; the reconvergence point is the first layout PC *after*
        // the branch ever committed in its wake — the loop fall-through.
        if e.backward {
            let cand = e
                .taken_pcs
                .iter()
                .chain(e.not_taken_pcs.iter())
                .filter(|&&pc| pc > branch_pc)
                .min();
            return cand.map(|&pc| (pc, ReconvCategory::Below));
        }
        let both = e.taken_obs >= self.config.min_observations
            && e.not_taken_obs >= self.config.min_observations;
        if both {
            // Intersection of PCs seen on both paths.
            let below = e
                .taken_pcs
                .iter()
                .filter(|&&pc| pc > branch_pc)
                .find(|&&pc| e.not_taken_pcs.contains(&pc));
            if let Some(&pc) = below {
                return Some((pc, ReconvCategory::Below));
            }
            let above = e
                .taken_pcs
                .iter()
                .filter(|&&pc| pc <= branch_pc)
                .find(|&&pc| e.not_taken_pcs.contains(&pc));
            if let Some(&pc) = above {
                return Some((pc, ReconvCategory::AboveOrEqual));
            }
            // Empty intersection: typical of a forward loop-exit branch
            // whose taken side leaves the loop — per-instance windows end
            // when the branch recommits, so the exit code only ever shows
            // up on the taken side. Its first PC approximates the loop
            // fall-through.
            let taken_below = e.taken_pcs.iter().find(|&&pc| pc > branch_pc);
            if let Some(&pc) = taken_below {
                return Some((pc, ReconvCategory::Below));
            }
            return None;
        }
        // Single-direction fallback: the first committed PC after the
        // branch on the observed path.
        let seen = if e.taken_obs > 0 {
            &e.taken_pcs
        } else {
            &e.not_taken_pcs
        };
        // Prefer a PC below the branch (paper's dominant category).
        let below = seen.iter().find(|&&pc| pc > branch_pc);
        below
            .or_else(|| seen.iter().next())
            .map(|&pc| (pc, ReconvCategory::SingleDirection))
    }

    /// Number of static branches with any training state.
    pub fn trained_branches(&self) -> usize {
        self.table.len()
    }

    /// Number of static branches observed in both directions.
    pub fn fully_trained_branches(&self) -> usize {
        self.table
            .values()
            .filter(|e| e.taken_obs > 0 && e.not_taken_obs > 0)
            .count()
    }

    /// Total instructions observed.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// The configuration in use.
    pub fn config(&self) -> ReconvConfig {
        self.config
    }
}

/// Trains a predictor over a full trace (convenience for offline use; the
/// timing simulator instead calls [`ReconvergencePredictor::observe`] at
/// retire time to model warm-up).
pub fn train_on_trace(trace: &polyflow_isa::Trace, config: ReconvConfig) -> ReconvergencePredictor {
    let mut p = ReconvergencePredictor::new(config);
    for e in trace {
        p.observe(&e);
    }
    p.flush();
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyflow_isa::{execute_window, AluOp, Cond, Program, ProgramBuilder, Reg};

    /// Alternating hammock inside a loop; returns (program, branch pc,
    /// join pc, loop-branch pc, after-loop pc).
    fn hammock_loop() -> (Program, Pc, Pc, Pc, Pc) {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let skip = b.fresh_label("skip");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0); // 0
        b.bind_label(top);
        b.alui(AluOp::And, Reg::R2, Reg::R1, 1); // 1
        let branch = b.br_imm(Cond::Eq, Reg::R2, 0, skip); // 2,3
        b.alui(AluOp::Add, Reg::R3, Reg::R3, 1); // 4 then
        b.bind_label(skip);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1); // 5 join
        let loop_branch = b.br_imm(Cond::Lt, Reg::R1, 50, top); // 6,7
        b.halt(); // 8
        b.end_function();
        let p = b.build().unwrap();
        (p, branch, Pc::new(5), loop_branch, Pc::new(8))
    }

    fn trained(p: &Program) -> ReconvergencePredictor {
        let trace = execute_window(p, 100_000).unwrap().trace;
        train_on_trace(&trace, ReconvConfig::default())
    }

    #[test]
    fn hammock_branch_reconverges_at_join() {
        let (p, branch, join, _, _) = hammock_loop();
        let pred = trained(&p);
        let (pc, cat) = pred.predict_with_category(branch).unwrap();
        assert_eq!(pc, join);
        assert_eq!(cat, ReconvCategory::Below);
    }

    #[test]
    fn loop_branch_reconverges_below() {
        let (p, _, _, loop_branch, after) = hammock_loop();
        let pred = trained(&p);
        let (pc, cat) = pred.predict_with_category(loop_branch).unwrap();
        // Both directions were observed (loop ran and exited): the first
        // common PC below the branch is the loop fall-through.
        assert_eq!(pc, after);
        assert_eq!(cat, ReconvCategory::Below);
    }

    #[test]
    fn unobserved_branch_predicts_nothing() {
        let (p, _, _, _, _) = hammock_loop();
        let pred = trained(&p);
        assert_eq!(pred.predict(Pc::new(999)), None);
    }

    #[test]
    fn warm_up_requires_observation() {
        let (p, branch, _, _, _) = hammock_loop();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let mut pred = ReconvergencePredictor::new(ReconvConfig::default());
        assert_eq!(pred.predict(branch), None, "cold predictor knows nothing");
        // Feed only the first three instructions: branch not yet retired
        // with both directions + window.
        for e in trace.iter().take(3) {
            pred.observe(&e);
        }
        // The branch itself retired at index 3... not yet: entries 0,1,2.
        assert_eq!(pred.predict(branch), None);
        for e in &trace {
            pred.observe(&e);
        }
        pred.flush();
        assert!(pred.predict(branch).is_some());
    }

    #[test]
    fn single_direction_fallback() {
        // A branch that never goes the other way within the window.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let skip = b.fresh_label("skip");
        let branch = b.br_imm(Cond::Eq, Reg::R0, 1, skip); // never taken
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.bind_label(skip);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let pred = trained(&p);
        let (pc, cat) = pred.predict_with_category(branch).unwrap();
        assert_eq!(cat, ReconvCategory::SingleDirection);
        // First PC after the branch on the not-taken path.
        assert_eq!(pc, Pc::new(2));
    }

    #[test]
    fn backward_reconvergence_category_exists() {
        // Construct a branch whose only common PC across both directions
        // is at/above the branch: both arms jump back to the loop top and
        // the program never commits a common PC below the branch within
        // the window... then exits via a different branch.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        let arm2 = b.fresh_label("arm2");
        let merge_back = b.fresh_label("mb");
        b.li(Reg::R1, 0); // 0
        b.bind_label(top); // 1
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1); // 1
        b.alui(AluOp::And, Reg::R2, Reg::R1, 1); // 2
        let exit_br = b.br_imm(Cond::Gt, Reg::R1, 40, merge_back); // 3,4 (exits high)
        let split = b.br_imm(Cond::Eq, Reg::R2, 0, arm2); // 5,6
        b.alui(AluOp::Add, Reg::R3, Reg::R3, 1); // 7 arm1
        b.jmp(top); // 8
        b.bind_label(arm2);
        b.alui(AluOp::Add, Reg::R4, Reg::R4, 1); // 9 arm2
        b.jmp(top); // 10
        b.bind_label(merge_back);
        b.halt(); // 11
        b.end_function();
        let p = b.build().unwrap();
        let pred = trained(&p);
        let (_, cat) = pred.predict_with_category(split).unwrap();
        assert_eq!(cat, ReconvCategory::AboveOrEqual);
        let _ = exit_br;
    }

    #[test]
    fn training_statistics() {
        let (p, _, _, _, _) = hammock_loop();
        let pred = trained(&p);
        assert!(pred.trained_branches() >= 2);
        assert!(pred.fully_trained_branches() >= 1);
        assert!(pred.observed() > 100);
        assert_eq!(pred.config().window, 256);
    }

    #[test]
    fn window_limits_visibility() {
        // With a tiny window the loop fall-through (only visible at loop
        // exit, far away) cannot be learned from early iterations.
        let (p, branch, join, _, _) = hammock_loop();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let mut pred = ReconvergencePredictor::new(ReconvConfig {
            window: 4,
            ..ReconvConfig::default()
        });
        for e in &trace {
            pred.observe(&e);
        }
        pred.flush();
        // The hammock join is 2-3 instructions away: still learnable.
        assert_eq!(pred.predict(branch), Some(join));
    }

    #[test]
    fn flush_commits_partial_windows() {
        // A branch that executes exactly once: its window can only be
        // committed by an explicit flush (it never fills, and the branch
        // never recommits).
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let skip = b.fresh_label("skip");
        let branch = b.br_imm(Cond::Eq, Reg::R0, 1, skip);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.bind_label(skip);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100).unwrap().trace;
        let mut pred = ReconvergencePredictor::new(ReconvConfig {
            window: 1_000_000, // the window never fills naturally
            ..ReconvConfig::default()
        });
        for e in &trace {
            pred.observe(&e);
        }
        assert_eq!(pred.predict(branch), None, "window still open");
        pred.flush();
        assert!(pred.predict(branch).is_some(), "flush commits training");
    }
}
