//! The PolyFlow timing simulator and its equivalent-resource superscalar
//! baseline (paper §3, Figures 7–8).
//!
//! PolyFlow is a speculative-parallelization machine built on a
//! simultaneously multithreaded core: a Task Spawn Unit splits the fetch
//! stream into control-equivalent tasks, a shared out-of-order backend
//! (512-entry ROB, 64-entry scheduler, 8 FUs) executes them, and a divert
//! queue conservatively synchronizes inter-task register and memory
//! dependences — no value prediction, no selective re-execution (§3.1).
//!
//! # Trace-driven model
//!
//! The paper's simulator is execution-driven; ours replays the retirement
//! trace produced by [`polyflow_isa::execute_window`] (see DESIGN.md §3
//! for the substitution argument). Wrong-path effects appear as per-task
//! fetch stalls: a mispredicted branch freezes only its own task's fetch
//! until resolution, so control-equivalent tasks keep the backend fed —
//! the paper's central effect.
//!
//! # Example
//!
//! ```
//! use polyflow_sim::{simulate, MachineConfig, NoSpawn, PreparedTrace, StaticSpawnSource};
//! use polyflow_core::{Policy, ProgramAnalysis};
//! use polyflow_isa::{ProgramBuilder, Reg, Cond, AluOp, execute_window};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! b.begin_function("main");
//! let top = b.fresh_label("top");
//! b.li(Reg::R1, 0);
//! b.bind_label(top);
//! b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
//! b.br_imm(Cond::Lt, Reg::R1, 100, top);
//! b.halt();
//! b.end_function();
//! let program = b.build()?;
//! let trace = execute_window(&program, 100_000)?.trace;
//!
//! let ss = MachineConfig::superscalar();
//! let baseline = simulate(&PreparedTrace::new(&trace, &ss), &ss, &mut NoSpawn);
//!
//! let pf = MachineConfig::hpca07();
//! let table = ProgramAnalysis::analyze(&program).spawn_table(Policy::Postdoms);
//! let mut source = StaticSpawnSource::new(table);
//! let postdoms = simulate(&PreparedTrace::new(&trace, &pf), &pf, &mut source);
//! assert_eq!(baseline.instructions, postdoms.instructions);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Robustness: library code may not `unwrap()` — fallible paths return the
// typed errors in `error.rs`. Tests may (a failed unwrap is the assert).
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod account;
mod branch_pred;
mod cache;
mod config;
mod error;
pub mod events;
mod machine;
mod metrics;
mod profile;
mod spawn_source;
mod store_set;
pub mod timeline;

pub use account::{Bucket, CycleAccount, TaskAccount};
pub use branch_pred::{Gshare, PredictionTrace, ReturnStack};
pub use cache::{Cache, Hierarchy};
pub use config::{CacheConfig, MachineConfig};
pub use error::SimError;
pub use events::{JsonlSink, NullSink, RingSink, SimEvent, TraceSink};
pub use machine::{
    simulate, try_simulate, try_simulate_opts, PreparedTrace, SimOptions, SimScratch, SimTelemetry,
};
pub use metrics::{SimResult, SpawnCounts, SpawnEvent};
pub use spawn_source::{
    HintCacheSource, NoSpawn, ReconvSpawnSource, SpawnSource, StaticSpawnSource,
};
pub use store_set::{DependenceMode, StoreSetPredictor};
