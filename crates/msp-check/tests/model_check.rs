//! Exhaustive clean runs plus the mutation-kill matrix.
//!
//! The clean tests prove the default tiny geometry's reachable state space
//! is fully enumerable and violation-free. The kill tests (compiled only
//! under `RUSTFLAGS="--cfg msp_check_mutation"`) prove the invariants have
//! teeth: every seeded recovery defect must be caught with a replayable
//! counterexample.

use msp_check::{check_cpr, check_msp, CheckConfig, CprConfig, ExploreLimits, MUTATIONS};

#[test]
fn msp_state_space_exhausts_cleanly() {
    let report = check_msp(CheckConfig::default(), ExploreLimits::default());
    assert!(
        report.is_clean(),
        "expected a clean exhaustive run, got: {report}"
    );
    // Pinned exactly: a dedup change that merged distinct states (or split
    // equal ones) would move these numbers.
    assert_eq!(
        (report.visited, report.terminal_states, report.max_depth),
        (46_624, 4, 32),
        "{report}"
    );
}

#[test]
fn cpr_state_space_exhausts_cleanly() {
    let report = check_cpr(CprConfig::default(), ExploreLimits::default());
    assert!(
        report.is_clean(),
        "expected a clean exhaustive run, got: {report}"
    );
    assert_eq!(
        (report.visited, report.terminal_states, report.max_depth),
        (1_496, 4, 20),
        "{report}"
    );
}

#[test]
fn state_budget_cuts_off_incomplete() {
    let report = check_msp(CheckConfig::default(), ExploreLimits { max_states: 100 });
    assert!(!report.complete, "a 100-state budget cannot exhaust");
    assert!(report.violation.is_none());
    assert_eq!(report.visited, 100);
}

/// The budget bounds *distinct* states: a budget equal to the size of the
/// reachable space must complete, and one state fewer must not.
#[test]
fn budget_equal_to_the_space_size_completes() {
    let exact = check_cpr(CprConfig::default(), ExploreLimits { max_states: 1_496 });
    assert!(exact.is_clean(), "{exact}");
    assert_eq!(exact.visited, 1_496);
    let short = check_cpr(CprConfig::default(), ExploreLimits { max_states: 1_495 });
    assert!(!short.complete && short.violation.is_none(), "{short}");
    assert_eq!(short.visited, 1_495);
}

#[test]
fn unknown_mutation_is_rejected() {
    let err = msp_check::arm_mutation("no-such-defect").unwrap_err();
    assert!(err.contains("unknown mutation"), "{err}");
}

#[test]
fn mutation_registry_is_complete() {
    assert_eq!(MUTATIONS.len(), 8);
}

#[cfg(not(msp_check_mutation))]
#[test]
fn arming_requires_the_rebuild_flag() {
    let err = msp_check::arm_mutation("skip-reliq-clear").unwrap_err();
    assert!(err.contains("msp_check_mutation"), "{err}");
    assert!(!msp_check::mutations_compiled_in());
}

#[cfg(msp_check_mutation)]
mod kills {
    use super::*;

    /// Arms a mutation for the current thread and disarms it on drop, so a
    /// failing assertion cannot leak the defect into other tests.
    struct Armed;

    impl Armed {
        fn new(name: &str) -> Self {
            msp_check::arm_mutation(name).expect("mutation compiled in");
            Armed
        }
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            msp_check::disarm_mutation();
        }
    }

    /// Runs the explorer with `name` armed and checks the kill is exactly
    /// the pinned one: the counterexample's length and the number of states
    /// visited before it was found (both fixed by breadth-first order).
    fn assert_killed(name: &str, events: usize, visited: u64) -> msp_check::Counterexample {
        let _armed = Armed::new(name);
        let report = if name == "leak-cpr-checkpoint" {
            check_cpr(CprConfig::default(), ExploreLimits::default())
        } else {
            check_msp(CheckConfig::default(), ExploreLimits::default())
        };
        let cx = report
            .violation
            .unwrap_or_else(|| panic!("mutation '{name}' survived the explorer"));
        assert!(
            cx.transcript.contains("FAILS"),
            "counterexample for '{name}' lacks a replay transcript:\n{}",
            cx.transcript
        );
        assert_eq!(
            (cx.events.len(), report.visited),
            (events, visited),
            "mutation '{name}':\n{}",
            cx.transcript
        );
        cx
    }

    #[test]
    fn kills_skip_reliq_clear() {
        assert_killed("skip-reliq-clear", 10, 717);
    }

    #[test]
    fn kills_sct_release_off_by_one() {
        assert_killed("sct-release-off-by-one", 25, 23_481);
    }

    #[test]
    fn kills_stale_lcs_anchor() {
        assert_killed("stale-lcs-anchor", 10, 754);
    }

    #[test]
    fn kills_sct_recover_keep_youngest() {
        assert_killed("sct-recover-keep-youngest", 10, 717);
    }

    /// Breadth-first order: the counter off-by-one fires at the very first
    /// reachable mispredict, so the shortest counterexample is pinned event
    /// by event.
    #[test]
    fn kills_counter_recover_off_by_one() {
        let cx = assert_killed("counter-recover-off-by-one", 9, 470);
        assert_eq!(
            cx.events,
            [
                "dispatch",
                "dispatch",
                "dispatch",
                "issue seq=0",
                "complete seq=0",
                "issue seq=1",
                "complete seq=1",
                "issue seq=2",
                "mispredict seq=2",
            ]
        );
    }

    #[test]
    fn kills_skip_storequeue_squash() {
        assert_killed("skip-storequeue-squash", 11, 1_124);
    }

    #[test]
    fn kills_skip_dirty_at_release_pointer() {
        let cx = assert_killed("skip-dirty-at-release-pointer", 3, 14);
        assert!(cx.message.contains("not settled"), "{}", cx.transcript);
    }

    #[test]
    fn kills_leak_cpr_checkpoint() {
        let cx = assert_killed("leak-cpr-checkpoint", 5, 20);
        assert!(
            cx.message.contains("leaked") || cx.transcript.contains("leaked"),
            "unexpected violation for the CPR leak:\n{}",
            cx.transcript
        );
    }
}
