//! Exhaustive explicit-state model checking of the MSP/CPR recovery paths.
//!
//! The timing simulator's end-to-end tests exercise recovery along the
//! schedules its cycle loop happens to produce; this crate instead drives
//! the simulator's own MSP state-management component
//! ([`msp_state::MspScheme`]: the [`msp_state::MspStateManager`] with its
//! SCT banks, RelIQ matrices, LCS unit and StateId counter, plus the
//! use-bit and anchor rule, recovery, the commit clock and the drain
//! boundary) over the real [`msp_mem::SimpleStoreQueue`] through *every*
//! legal interleaving of dispatch, issue, completion, commit clocks and
//! mispredict-triggered recoveries that a deliberately tiny machine
//! geometry admits, checking three oracle families at every step:
//!
//! * **(a) architectural equivalence** — every surviving instruction's value
//!   and every bank's current renaming must match a committed-path
//!   reference interpreter, and committed memory must equal the reference
//!   store stream;
//! * **(b) occupancy** — no physical register may leak or be lost, freed IQ
//!   slots may hold no residual RelIQ bits, the SCT/RelIQ/value-ledger
//!   views must coincide, and every terminal state must quiesce to exactly
//!   one ready mapping per bank with a converged LCS;
//! * **(c) StateId semantics** — the counter must track the youngest
//!   surviving state across recoveries and the committed floor must never
//!   pass it.
//!
//! Violations are reported as shortest-path counterexamples with a full
//! replay transcript (see [`Counterexample`]). The checker's teeth are
//! proven by the mutation-kill matrix: compiling the workspace with
//! `RUSTFLAGS="--cfg msp_check_mutation"` enables the seeded recovery
//! defects in [`MUTATIONS`], each of which the explorer must catch.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cpr;
mod explore;
mod fingerprint;
mod machine;

pub use cpr::{CprConfig, CprMachine};
pub use explore::{explore, CheckReport, Counterexample, ExploreLimits, Model};
pub use machine::{default_program, CheckConfig, MspEvent, MspMachine, Op};

/// Every seeded defect of the mutation-kill matrix, with the site
/// it lives at. Each one is compiled in only under
/// `RUSTFLAGS="--cfg msp_check_mutation"` and armed per thread via
/// [`arm_mutation`]. Seven sites are msp-state code the timing simulator runs;
/// `leak-cpr-checkpoint` sits in the checker's own CPR model (see
/// [`CprMachine`]):
///
/// | name | site | defect |
/// |---|---|---|
/// | `skip-reliq-clear` | `MspScheme::squash` | the squash path forgets to clear one squashed slot's RelIQ column |
/// | `sct-release-off-by-one` | `Sct::release_committed` | commit keeps two committed entries instead of one |
/// | `stale-lcs-anchor` | `MspStateManager::recover` | recovery forgets to flush the LCS propagation pipeline |
/// | `sct-recover-keep-youngest` | `Sct::recover` | recovery stops before releasing all squashed renamings |
/// | `counter-recover-off-by-one` | `StateCounter::recover_to` | the counter recovers one state too young |
/// | `leak-cpr-checkpoint` | `CprMachine::apply_mispredict` | rollback forgets to return one region's registers to the pool |
/// | `skip-storequeue-squash` | `MspScheme::recover` | recovery forgets to squash wrong-path stores |
/// | `skip-dirty-at-release-pointer` | `MspStateManager::clear_use` | a use-bit clear on the entry under the Release Pointer leaves its bank clean |
pub const MUTATIONS: &[&str] = &[
    "skip-reliq-clear",
    "sct-release-off-by-one",
    "stale-lcs-anchor",
    "sct-recover-keep-youngest",
    "counter-recover-off-by-one",
    "leak-cpr-checkpoint",
    "skip-storequeue-squash",
    "skip-dirty-at-release-pointer",
];

/// Whether the workspace was compiled with the seeded mutations available.
pub fn mutations_compiled_in() -> bool {
    cfg!(msp_check_mutation)
}

/// Arms one seeded defect on the current thread.
///
/// # Errors
///
/// Fails for unknown names, and for every name when the workspace was not
/// compiled with `RUSTFLAGS="--cfg msp_check_mutation"`.
pub fn arm_mutation(name: &str) -> Result<(), String> {
    let Some(&canonical) = MUTATIONS.iter().find(|&&m| m == name) else {
        return Err(format!(
            "unknown mutation '{name}' (known: {})",
            MUTATIONS.join(", ")
        ));
    };
    #[cfg(msp_check_mutation)]
    {
        msp_state::mutation::set_active(Some(canonical));
        Ok(())
    }
    #[cfg(not(msp_check_mutation))]
    {
        let _ = canonical;
        Err(format!(
            "mutation '{name}' is not compiled in — rebuild with \
             RUSTFLAGS=\"--cfg msp_check_mutation\""
        ))
    }
}

/// Disarms any armed mutation on the current thread.
pub fn disarm_mutation() {
    #[cfg(msp_check_mutation)]
    msp_state::mutation::set_active(None);
}

/// Exhaustively checks the MSP machine in the given geometry.
pub fn check_msp(config: CheckConfig, limits: ExploreLimits) -> CheckReport {
    explore(MspMachine::new(config), limits)
}

/// Exhaustively checks the CPR comparison machine.
pub fn check_cpr(config: CprConfig, limits: ExploreLimits) -> CheckReport {
    explore(CprMachine::new(config), limits)
}
