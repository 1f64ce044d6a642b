//! Micro-op ISA, program construction and functional execution for vpsim.
//!
//! The paper evaluates value prediction on x86 µops under gem5; the
//! predictors themselves only observe *(PC, branch history, path history,
//! produced values)*, so the ISA identity is irrelevant to the mechanism
//! (see "ISA neutrality" in `ARCHITECTURE.md` at the repository root).
//! This crate defines a compact RISC-like µop ISA
//! (1 µop = 1 instruction) that the rest of the workspace shares:
//!
//! * [`Inst`]/[`Opcode`] — the µop format: up to two register sources, one
//!   destination, a 64-bit immediate.
//! * [`Reg`] — 32 integer + 32 floating-point architectural registers.
//! * [`ProgramBuilder`] — an assembler-like builder with labels, used by
//!   `vpsim-workloads` to write the SPEC-analogue benchmarks.
//! * [`SparseMemory`] — word-granular sparse memory.
//! * [`Executor`] — the architectural (functional) executor; it runs a
//!   [`Program`] and yields the dynamic instruction stream ([`DynInst`])
//!   that the cycle-level core in `vpsim-uarch` replays.
//! * [`Trace`] / [`TraceCursor`] / [`InstSource`] — the capture-once /
//!   replay-many layer: a compact struct-of-arrays record of the dynamic
//!   stream, captured once and replayed into any number of timing runs.
//!
//! # Examples
//!
//! Build and run a loop that sums `0..10`:
//!
//! ```
//! use vpsim_isa::{ProgramBuilder, Reg, Executor};
//!
//! let mut b = ProgramBuilder::new();
//! let (i, n, acc) = (Reg::int(1), Reg::int(2), Reg::int(3));
//! b.load_imm(i, 0);
//! b.load_imm(n, 10);
//! b.load_imm(acc, 0);
//! let top = b.bind_label();
//! b.add(acc, acc, i);
//! b.addi(i, i, 1);
//! b.blt(i, n, top);
//! b.halt();
//! let program = b.build().expect("valid program");
//!
//! let mut exec = Executor::new(&program);
//! let trace: Vec<_> = exec.by_ref().collect();
//! assert_eq!(exec.reg(acc), 45);
//! assert!(trace.len() > 30);
//! ```

mod builder;
mod exec;
mod inst;
mod memory;
mod program;
mod reg;
mod trace;

pub use builder::{Label, ProgramBuilder};
pub use exec::{DynInst, Executor};
pub use inst::{FuClass, Inst, Opcode};
pub use memory::SparseMemory;
pub use program::{Program, ProgramError};
pub use reg::{Reg, RegClass, NUM_ARCH_REGS};
pub use trace::{fnv1a, InstSource, Trace, TraceCursor, TraceDecodeError};
