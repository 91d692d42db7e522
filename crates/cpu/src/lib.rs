//! Cycle-level CPU models for the ASPLOS 1991 architecture/OS study.
//!
//! The crate provides:
//!
//! * [`Arch`] / [`ArchSpec`] — calibrated models of the DEC CVAX, Motorola
//!   88000, MIPS R2000/R3000, Sun SPARC, Intel i860 and IBM RS6000, encoding
//!   every feature the paper's analysis turns on (register windows, exposed
//!   pipelines, write buffers, trap vectoring, microcode, delay slots,
//!   atomic instructions, thread-state sizes);
//! * [`Program`] / [`MicroOp`] — the micro-op vocabulary handler programs
//!   are written in, phase-tagged for the Table 5 decomposition;
//! * [`Cpu`] — the deterministic executor that runs programs against an
//!   [`osarch_mem::MemorySystem`] and reports instructions, cycles, and the
//!   stall breakdowns the paper discusses;
//! * [`WindowEngine`] — the SPARC register-window occupancy model;
//! * [`json`] — the workspace's one JSON reader and string escaper.
//!
//! # Example
//!
//! ```
//! use osarch_cpu::{Arch, Cpu, Program};
//! use osarch_mem::{MemorySystem, Mode};
//!
//! let spec = Arch::Sparc.spec();
//! let mut mem = MemorySystem::new(spec.mem.clone());
//! let mut cpu = Cpu::new(spec);
//! let mut b = Program::builder("quick");
//! b.alu(8);
//! let outcome = cpu.run(&b.build(), &mut mem, Mode::Kernel);
//! assert_eq!(outcome.stats.instructions, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod exec;
pub mod json;
mod microop;
mod specjson;
mod windows;

pub use arch::{Arch, ArchSpec, MicrocodeCost, WindowConfig};
pub use exec::{Cpu, ExecOutcome, ExecStats, PhaseStats};
pub use microop::{MicroOp, Phase, Program, ProgramBuilder};
pub use specjson::{SPEC_NAME_MAX, SPEC_SCHEMA};
pub use windows::{WindowEngine, WindowEvent};
