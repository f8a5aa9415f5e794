//! A small load/store RISC instruction set used by the Multi-State Processor
//! (MSP) reproduction.
//!
//! The MICRO 2008 paper evaluated the MSP on Alpha-ISA SPEC CPU2000 binaries.
//! Neither the binaries nor the toolchain are available, so this crate defines
//! a compact RISC ISA with the properties the evaluation actually depends on:
//!
//! * 32 integer and 32 floating-point **logical registers** (the number of
//!   State Control Tables in the MSP equals the number of logical registers),
//! * explicit destination registers so renaming/state allocation is visible,
//! * conditional/unconditional/indirect branches with computable targets,
//! * loads and stores with byte-addressed effective addresses, and
//! * a deterministic functional executor able to run from *any* PC, which the
//!   timing simulator uses both for correct-path oracle execution and for
//!   wrong-path instruction fetch.
//!
//! # Quick example
//!
//! ```
//! use msp_isa::{ArchReg, Instruction, Program, ArchState, execute_step};
//!
//! // r1 = 7; r2 = r1 + r1; halt
//! let prog = Program::new(vec![
//!     Instruction::addi(ArchReg::int(1), ArchReg::int(0), 7),
//!     Instruction::add(ArchReg::int(2), ArchReg::int(1), ArchReg::int(1)),
//!     Instruction::halt(),
//! ]);
//! let mut state = ArchState::new(&prog);
//! let first = execute_step(&mut state, &prog).expect("in range");
//! assert_eq!(first.next_pc, first.pc + 4);
//! assert_eq!(state.read_int(1), 7);
//! execute_step(&mut state, &prog).expect("in range");
//! assert_eq!(state.read_int(2), 14);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod exec;
mod inst;
mod memory;
mod program;
mod reg;
mod state;
mod trace;
mod tracefile;
pub mod wire;

pub use exec::{execute_step, ExecError, ExecutedInst};
pub use inst::{BranchCond, FuClass, Instruction, MemWidth, Opcode};
pub use memory::Memory;
pub use program::{Program, TEXT_BASE};
pub use reg::{ArchReg, RegClass, NUM_FP_REGS, NUM_INT_REGS, NUM_LOGICAL_REGS};
pub use state::ArchState;
pub use trace::{BbvAccumulator, BbvSignature, Trace, TraceBuilder};
pub use tracefile::{
    capture_trace_to_path, program_fingerprint, read_trace_meta, write_trace_to_path, TraceCursor,
    TraceFileError, TraceFileMeta, TraceReader, TraceWriter, DEFAULT_BLOCK_RECORDS,
    TRACE_FORMAT_VERSION,
};
