//! Seeded recovery bugs for the model checker's mutation-kill matrix.
//!
//! This module only exists when the crate is compiled with
//! `RUSTFLAGS="--cfg msp_check_mutation"`. Each mutation is a deliberate,
//! named defect on a squash, recovery or commit-clock path (see the hook
//! sites in `manager.rs`, `scheme.rs`, `sct.rs` and `stateid.rs`); the
//! `msp-check` explorer must catch every one of them with a counterexample,
//! which is what proves the checker's invariants have teeth. Selection is a
//! thread-local so parallel tests can arm different mutations without racing
//! through the environment.

use std::cell::Cell;

thread_local! {
    static ACTIVE: Cell<Option<&'static str>> = const { Cell::new(None) };
    static FIRED: Cell<bool> = const { Cell::new(false) };
}

/// Arms the named mutation on the current thread (`None` disarms). Also
/// resets the one-shot trigger used by [`fire_once`].
pub fn set_active(name: Option<&'static str>) {
    ACTIVE.with(|a| a.set(name));
    FIRED.with(|f| f.set(false));
}

/// Whether the named mutation is armed on the current thread.
pub fn is_active(name: &str) -> bool {
    ACTIVE.with(|a| a.get().is_some_and(|n| n == name))
}

/// Re-arms the one-shot trigger without changing the armed mutation. The
/// model checker calls this before applying each event so a [`fire_once`]
/// defect fires deterministically on every explored path instead of being
/// consumed by whichever path the search happens to visit first.
pub fn rearm() {
    FIRED.with(|f| f.set(false));
}

/// Whether the named mutation is armed and has not fired yet; the first call
/// that observes it armed consumes the trigger. Used for "skip exactly one
/// clear"-style defects.
pub fn fire_once(name: &str) -> bool {
    if !is_active(name) {
        return false;
    }
    FIRED.with(|f| {
        if f.get() {
            false
        } else {
            f.set(true);
            true
        }
    })
}
