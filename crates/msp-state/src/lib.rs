//! The Multi-State Processor (MSP) state-management architecture.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (González et al., *A Distributed Processor State Management Architecture
//! for Large-Window Processors*, MICRO 2008): a register-file and processor
//! state management scheme for large-instruction-window processors that needs
//! neither a re-order buffer nor checkpoints, yet recovers *precisely* from
//! branch mispredictions and exceptions.
//!
//! # Concepts
//!
//! * [`StateId`] — every instruction that allocates a destination register
//!   creates a new processor state, identified by a monotonically increasing
//!   StateId. Instructions that do not write a register (stores, branches)
//!   share the state of the most recent register-allocating instruction.
//!   [`CompactStateId`] and [`StateCounter`] model the paper's bounded
//!   `log2(M)+1`-bit hardware encoding with the saturation-bit overflow scheme
//!   (Section 3.6).
//! * [`StateIdRange`] — the range of states in which a physical register is
//!   the live renaming of its logical register (Fig. 2).
//! * [`Sct`] — one **State Control Table** per logical register manages a
//!   private bank of physical registers with in-order allocation (Rename
//!   Pointer) and in-order release (Release Pointer). Renaming, allocation and
//!   release are therefore fully distributed (Section 3.2.1).
//! * [`RelIq`] — the register-use tracking matrix: one bit per (physical
//!   register, instruction-queue slot). It replaces reference counters
//!   (Section 3.4).
//! * [`LcsUnit`] — the global **Last Committed StateId** reduction tree:
//!   `LCS = min(StateId[RelP_i])` over all banks, with a configurable
//!   propagation delay (Section 3.2.2).
//! * [`PortArbiter`] — the banked register file has a single read and a
//!   single write port per bank; the arbiter grants them cycle by cycle, the
//!   arbitration stage the MSP adds to the pipeline (Section 5.1).
//! * [`MspStateManager`] — the facade tying everything together: allocation,
//!   renaming, use tracking, commit/release driven by the LCS, and precise
//!   recovery (Section 3.5). It renames one instruction at a time; the
//!   per-cycle limits of Section 3.3 (rename width, at most two renamings of
//!   one logical register per cycle) are enforced by the timing simulator's
//!   dispatch stage.
//! * [`MspScheme`] — the MSP's state-management component: the manager and
//!   the port arbiter, with the rules that tie them to in-flight
//!   instructions (use bits and anchors, recovery, the commit clock and the
//!   store drain boundary). The timing simulator drives it as one of its
//!   three components (the Baseline's and CPR's live in `msp-pipeline`), and
//!   the `msp-check` model checker drives the same code.
//!
//! # Quick example
//!
//! ```
//! use msp_state::{MspConfig, MspStateManager, RenameRequest};
//! use msp_isa::ArchReg;
//!
//! let mut msp = MspStateManager::new(MspConfig::default());
//! // Rename "add r2, r1, r1" (allocates a new state for r2's new renaming).
//! let renamed = msp
//!     .rename(&RenameRequest::new(Some(ArchReg::int(2)), &[ArchReg::int(1), ArchReg::int(1)]))
//!     .expect("r2's bank has a free register");
//! let dest = renamed.dest.expect("r2 allocates a register");
//! assert_eq!(dest.state_id.as_u64(), 1); // first allocated state after the initial one
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod lcs;
mod manager;
#[cfg(msp_check_mutation)]
pub mod mutation;
mod physreg;
mod regfile;
mod reliq;
mod scheme;
mod sct;
mod stateid;

pub use lcs::LcsUnit;
pub use manager::{
    MspConfig, MspStateManager, RenameError, RenameRequest, RenamedDest, RenamedInst, SourceMapping,
};
pub use physreg::PhysReg;
pub use regfile::PortArbiter;
pub use reliq::RelIq;
pub use scheme::{MspScheme, MspTag};
pub use sct::{Sct, SctEntry, SctError};
pub use stateid::{CompactStateId, StateCounter, StateId, StateIdRange};
