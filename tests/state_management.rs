//! Integration tests exercising the MSP state-management crate against the
//! ISA crate the way the timing simulator does: renaming real instruction
//! sequences, tracking uses, committing through the LCS and recovering.

use msp::prelude::*;
use msp_isa::{execute_step, ArchState};
use msp_state::{RenameError, StateId};

/// Renames a real dynamic instruction stream (the functional execution of the
/// microbenchmark) through the MSP manager, marking destinations ready
/// immediately: the LCS must eventually commit every allocated state and the
/// number of allocated states must equal the number of register-writing
/// instructions.
#[test]
fn full_program_renames_and_commits_through_the_manager() {
    let program = msp::workloads::microbenchmark();
    let mut arch = ArchState::new(&program);
    let mut manager = MspStateManager::new(MspConfig::n_sp(16));
    let mut writes = 0u64;
    while !arch.is_halted() {
        let record = execute_step(&mut arch, &program).expect("program is well formed");
        let sources: Vec<ArchReg> = record.inst.sources().collect();
        let request = RenameRequest::new(record.inst.dest(), &sources);
        let renamed = loop {
            match manager.rename(&request) {
                Ok(renamed) => break renamed,
                Err(RenameError::BankFull(_)) => {
                    // Let the commit machinery free registers and retry.
                    manager.clock_commit(|_| {});
                }
            }
        };
        if let Some(dest) = renamed.dest {
            writes += 1;
            manager.mark_ready(dest.phys);
        }
        manager.clock_commit(|_| {});
    }
    // Every register-writing instruction allocated exactly one state.
    assert_eq!(manager.current_state(), StateId::new(writes));
    // Drain the commit pipeline (the configured LCS delay is one cycle).
    for _ in 0..4 {
        manager.clock_commit(|_| {});
    }
    assert_eq!(
        manager.lcs(),
        StateId::new(writes + 1),
        "every allocated state must commit once the program is done"
    );
}

/// A misprediction-style recovery in the middle of a renamed stream restores
/// the mappings the paper's Fig. 1 / Fig. 2 example expects, and the
/// recovered registers can be re-allocated immediately.
#[test]
fn recovery_releases_and_reuses_registers() {
    let mut manager = MspStateManager::new(MspConfig::n_sp(4));
    let r = ArchReg::int;
    // Fill r5's bank completely (3 renamings + architectural entry).
    for _ in 0..3 {
        manager
            .rename(&RenameRequest::new(Some(r(5)), &[]))
            .expect("bank has room");
    }
    assert!(matches!(
        manager.rename(&RenameRequest::new(Some(r(5)), &[])),
        Err(RenameError::BankFull(_))
    ));
    // Recover to the first renaming: two registers come back.
    let recovery = manager.recover(StateId::new(1));
    assert_eq!(recovery.recovery_state, StateId::new(1));
    assert_eq!(recovery.released.len(), 2);
    assert_eq!(manager.current_state(), StateId::new(1));
    // The bank can immediately absorb new renamings again.
    assert!(manager.rename(&RenameRequest::new(Some(r(5)), &[])).is_ok());
    assert_eq!(manager.current_state(), StateId::new(2));
}

/// The compact hardware StateId encoding stays consistent with the unbounded
/// software ordering across counter overflows while a simulator-sized window
/// of states is in flight.
#[test]
fn compact_state_ids_survive_overflow() {
    use msp_state::{CompactStateId, StateCounter};
    let m = 6; // 64-state window, 7-bit hardware counter
    let mut counter = StateCounter::new(m);
    let mut window: Vec<StateId> = Vec::new();
    for step in 0..1_000u64 {
        let (state, _) = counter.allocate();
        window.push(state);
        if window.len() > 32 {
            window.remove(0);
        }
        // Every pair of in-flight states must order identically in both
        // representations.
        if step % 50 == 0 {
            for a in &window {
                for b in &window {
                    let ca = CompactStateId::encode(*a, m);
                    let cb = CompactStateId::encode(*b, m);
                    assert_eq!(ca.cmp_in_window(cb), a.cmp(b));
                }
            }
        }
    }
    assert!(
        counter.epoch_resets() > 0,
        "the 7-bit counter must have wrapped"
    );
}

mod random_recovery {
    //! Property tests: random rename/ready/commit traces with injected
    //! mispredict-style recoveries. After every recovery the manager's
    //! surviving mappings must carry exactly the values a functional
    //! re-execution of the surviving (committed-or-older) prefix produces —
    //! the paper's precise-recovery claim, checked against the real
    //! structures instead of a hand-picked schedule.

    use msp_isa::ArchReg;
    use msp_state::{MspConfig, MspStateManager, PhysReg, RenameError, RenameRequest, StateId};
    use proptest::prelude::*;
    use proptest::{bool, collection};
    use std::collections::HashMap;

    const BANKS: usize = 2;

    /// Deterministic stand-in for instruction semantics (splitmix-style), so
    /// every renaming has a value derivable from its operands alone.
    fn mix(pc: u64, srcs: &[u64]) -> u64 {
        let mut h = pc.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x517c_c1b7_2722_0a95;
        for &s in srcs {
            h ^= s;
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
        h ^ (h >> 27)
    }

    fn initial_value(bank: usize) -> u64 {
        0x1000_0000 + 0x111 * bank as u64
    }

    /// One generated step: rename `ArchReg(bank)` from two sources, maybe
    /// mark it ready, maybe clock the commit machinery, maybe inject a
    /// recovery to a random surviving state.
    type Step = ((u8, u8, u8, bool), (u8, u8));

    fn run_trace(steps: &[Step]) {
        let mut manager = MspStateManager::new(MspConfig::tiny(BANKS, 4, 8));
        // Live value per physical register, seeded with the architectural
        // mappings; maintained exactly as a value-capture-free register file
        // would be.
        let mut ledger: HashMap<PhysReg, u64> = (0..BANKS)
            .map(|b| {
                (
                    manager.source_mapping(ArchReg::from_flat_index(b)).phys,
                    initial_value(b),
                )
            })
            .collect();
        // Every surviving allocation, in program order: the functional
        // reference the recovered machine is compared against (recoveries
        // prune it, so it is always the re-executable prefix).
        let mut history: Vec<(StateId, usize, u64)> = Vec::new();

        for (pc, &((bank, s1, s2, ready), (commit_sel, recover_sel))) in steps.iter().enumerate() {
            let bank = bank as usize % BANKS;
            let sources = [
                ArchReg::from_flat_index(s1 as usize % BANKS),
                ArchReg::from_flat_index(s2 as usize % BANKS),
            ];
            let src_values: Vec<u64> = sources
                .iter()
                .map(|r| ledger[&manager.source_mapping(*r).phys])
                .collect();
            let request = RenameRequest::new(Some(ArchReg::from_flat_index(bank)), &sources);
            match manager.rename(&request) {
                Ok(renamed) => {
                    let dest = renamed.dest.expect("request has a destination");
                    let value = mix(pc as u64, &src_values);
                    ledger.insert(dest.phys, value);
                    history.push((dest.state_id, bank, value));
                    if ready {
                        manager.mark_ready(dest.phys);
                    }
                }
                Err(RenameError::BankFull(_)) => {
                    // Let the commit machinery free registers; the step's
                    // rename is simply dropped (a stalled dispatch).
                    manager.clock_commit(|released| {
                        ledger.remove(&released);
                    });
                }
            }
            if commit_sel == 0 {
                manager.clock_commit(|released| {
                    ledger.remove(&released);
                });
            }
            // A recovery target must be at or above the committed floor
            // (older states are architectural already) and at or below the
            // current state; when everything has committed the floor passes
            // the current state and no recovery is possible.
            let floor = manager.committed_floor().as_u64();
            let current = manager.current_state().as_u64();
            if recover_sel == 0 && floor <= current {
                let target =
                    StateId::new(floor + (u64::from(s1) + u64::from(s2)) % (current - floor + 1));
                for released in manager.recover(target).released {
                    ledger.remove(&released);
                }
                manager
                    .verify_recovery(target)
                    .expect("post-recovery audit");
                // The surviving prefix: every allocation up to the recovery
                // state that no earlier recovery already squashed.
                for b in 0..BANKS {
                    let expected = history
                        .iter()
                        .rfind(|(s, hb, _)| *hb == b && *s <= target)
                        .map_or_else(|| initial_value(b), |&(_, _, v)| v);
                    let mapping = manager.source_mapping(ArchReg::from_flat_index(b));
                    assert_eq!(
                        ledger[&mapping.phys], expected,
                        "bank {b} after recovering to {target}: the current mapping must \
                         hold the functional re-execution of the surviving prefix"
                    );
                }
                history.retain(|(s, _, _)| *s <= target);
            }
            manager.verify_occupancy().expect("occupancy audit");
        }

        // Quiesce: make every live register ready (intermediate non-ready
        // allocations would hold the LCS back forever) and drain the commit
        // pipeline — the LCS must converge on the youngest state and the
        // occupancy audit must still hold.
        let live: Vec<PhysReg> = ledger.keys().copied().collect();
        for phys in live {
            manager.mark_ready(phys);
        }
        for _ in 0..steps.len() + 8 {
            manager.clock_commit(|released| {
                ledger.remove(&released);
            });
        }
        assert_eq!(manager.lcs(), manager.current_state().next());
        manager
            .verify_occupancy()
            .expect("occupancy audit after quiesce");
    }

    proptest! {
        #[test]
        fn recovery_matches_functional_replay(
            steps in collection::vec(
                ((0u8..4, 0u8..4, 0u8..4, bool::ANY), (0u8..3, 0u8..6)),
                4..48,
            ),
        ) {
            run_trace(&steps);
        }

        /// Mispredict-heavy variant: a recovery is injected on almost every
        /// step, so recoveries land on top of recoveries.
        #[test]
        fn back_to_back_recoveries_stay_precise(
            steps in collection::vec(
                ((0u8..4, 0u8..4, 0u8..4, bool::ANY), (0u8..2, 0u8..2)),
                4..32,
            ),
        ) {
            run_trace(&steps);
        }

        /// The big-machine analogue: the full `Simulator` over randomized
        /// workload/backend/predictor/budget combinations. Every natural
        /// mispredict-triggered recovery runs the debug recovery audit
        /// (`Simulator::audit_recovery` + `MspStateManager::verify_recovery`),
        /// which asserts the post-recovery machine state bit-equals the state
        /// re-derived from the committed-and-surviving prefix — so each case
        /// here is hundreds of audited recoveries — and a repeat run must be
        /// bit-identical.
        #[test]
        fn full_simulator_recoveries_survive_random_configs(
            (workload_sel, budget, machine_sel, predictor_sel)
                in (0u8..4, 800u64..2_400, 0u8..3, 0u8..2),
        ) {
            use msp::prelude::*;

            let name = ["parser", "gzip", "vpr", "twolf"][workload_sel as usize];
            let workload = msp::workloads::by_name(name, Variant::Original)
                .expect("kernel exists");
            let machine = match machine_sel {
                0 => MachineKind::msp(8),
                1 => MachineKind::msp(16),
                _ => MachineKind::cpr(),
            };
            let predictor = if predictor_sel == 0 {
                PredictorKind::Gshare
            } else {
                PredictorKind::Tage
            };
            let run = || {
                let config = SimConfig::machine(machine, predictor);
                Simulator::new(workload.program(), config).run(budget).stats
            };
            let a = run();
            prop_assert!(a.committed > 0, "{name} must make forward progress");
            prop_assert!(a.executed.total() >= a.committed);
            let b = run();
            prop_assert_eq!(a.cycles, b.cycles);
            prop_assert_eq!(a.committed, b.committed);
            prop_assert_eq!(a.executed, b.executed);
            prop_assert_eq!(a.mispredictions, b.mispredictions);
        }
    }
}

/// End-to-end determinism across the facade: two simulations of the same
/// workload and configuration produce bit-identical statistics.
#[test]
fn facade_simulations_are_deterministic() {
    let workload = msp::workloads::by_name("parser", Variant::Original).unwrap();
    let run = || {
        let config = SimConfig::machine(MachineKind::msp(16), PredictorKind::Tage);
        Simulator::new(workload.program(), config).run(3_000).stats
    };
    let a = run();
    let b = run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.executed, b.executed);
    assert_eq!(a.mispredictions, b.mispredictions);
}
