//! A small 64-bit RISC instruction set, program representation, and
//! functional interpreter.
//!
//! This crate is the substrate of the PolyFlow reproduction (Agarwal et al.,
//! *Exploiting Postdominance for Speculative Parallelization*, HPCA 2007).
//! The paper evaluates on a 64-bit MIPS variant; we define a comparable
//! register-register ISA with:
//!
//! * 32 general-purpose 64-bit registers ([`Reg`], with `r0` hardwired to 0
//!   and `r31` as the link register),
//! * ALU, load/store, conditional branch, direct/indirect jump, call/return
//!   and halt instructions ([`Inst`]),
//! * a [`Program`] container with function boundaries, labels and
//!   jump-table metadata (needed by the CFG layer to resolve indirect
//!   jumps), and
//! * a functional [`Interpreter`] that executes programs and emits a
//!   retired-instruction [`Trace`] consumed by the timing simulator and the
//!   reconvergence predictor.
//!
//! # Example
//!
//! ```
//! use polyflow_isa::{ProgramBuilder, Reg, Cond, AluOp, Interpreter};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! b.begin_function("sum_to_ten");
//! let loop_top = b.fresh_label("loop");
//! let done = b.fresh_label("done");
//! b.li(Reg::R1, 0);            // acc
//! b.li(Reg::R2, 0);            // i
//! b.bind_label(loop_top);
//! b.alu(AluOp::Add, Reg::R1, Reg::R1, Reg::R2);
//! b.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
//! b.br_imm(Cond::Lt, Reg::R2, 10, loop_top);
//! b.bind_label(done);
//! b.halt();
//! b.end_function();
//! let program = b.build()?;
//!
//! let mut interp = Interpreter::new(&program);
//! let result = interp.run(1_000)?;
//! assert!(result.halted);
//! assert_eq!(interp.reg(Reg::R1), 45);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Robustness: library code may not `unwrap()` — fallible paths return the
// typed errors in `error.rs`. Tests may (a failed unwrap is the assert).
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod asm;
mod builder;
mod error;
mod inst;
mod interp;
mod memory;
mod program;
pub mod rng;
mod trace;

pub use asm::{parse_program, to_asm, AsmError};
pub use builder::{Label, ProgramBuilder};
pub use error::{BuildError, ExecError, InterpError};
pub use inst::{AluOp, Cond, Inst, InstClass, Reg};
pub use interp::{execute_window, ExecResult, Interpreter};
pub use memory::Memory;
pub use program::{Function, Pc, Program};
pub use trace::{Dataflow, PcIndex, Trace, TraceEntry, TraceError, TraceIter};
