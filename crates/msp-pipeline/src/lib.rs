//! A cycle-level, execution-driven out-of-order timing simulator with three
//! state-management components, one per scheme:
//!
//! * **Baseline** — a conventional superscalar with a 128-entry re-order
//!   buffer, RAT-style renaming against a 96+96-entry register file and a
//!   48-entry issue queue (Table I, column 1). Its component, the counted
//!   ROB, lives in this crate.
//! * **CPR** — a ROB-free checkpoint processor: up to 8 checkpoints allocated
//!   at low-confidence and indirect branches, aggressive register release,
//!   hierarchical store queue, and rollback-to-checkpoint recovery that
//!   re-executes correct-path instructions (Table I, column 2). Its
//!   component, the checkpoint stack over counted pools, lives in this crate.
//! * **MSP** — the paper's Multi-State Processor: per-logical-register banks
//!   (`n-SP`), LCS-driven commit, RelIQ use tracking, banked register file
//!   with port arbitration, and precise recovery (Table I, columns 3 and 4).
//!   Its component, [`msp_state::MspScheme`], lives in msp-state, where the
//!   `msp-check` model checker drives the same code.
//!
//! The simulator picks the component once from its [`SimConfig`]; the core
//! around it is generic over the scheme, so every stage is shared. All
//! three machines share the front end (branch predictors, BTB, return
//! stack, I-cache), the functional **oracle** (correct-path values come from
//! [`msp_isa::execute_step`]), the cache hierarchy, the functional units and
//! the issue logic, so measured differences come from the state-management
//! mechanism itself — the methodology of the paper's Section 4.
//!
//! ```
//! use msp_pipeline::{Simulator, SimConfig, MachineKind};
//! use msp_branch::PredictorKind;
//! use msp_workloads::microbenchmark;
//!
//! let program = microbenchmark();
//! let config = SimConfig::machine(MachineKind::msp(16), PredictorKind::Gshare);
//! let mut sim = Simulator::new(&program, config);
//! let result = sim.run(2_000);
//! assert!(result.ipc() > 0.1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod oracle;
mod scheme;
mod simulator;
mod stats;

pub use config::{FrontendConfig, LatencyConfig, MachineKind, ResourceConfig, SimConfig};
pub use msp_mem::{CacheConfig, MemoryConfig};
pub use oracle::{Oracle, TraceSource};
pub use simulator::{SimResult, Simulator, WarmState};
pub use stats::{ActivityCounters, ExecutedBreakdown, SimStats, StallBreakdown};
