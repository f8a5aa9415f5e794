//! The State Control Table (SCT): per-logical-register bank management
//! (Section 3.2.1 of the paper).
//!
//! Each logical register owns a private bank of physical registers described
//! by one SCT. Entries are allocated strictly in order by the **Rename
//! Pointer** (`RenP`) and released strictly in order from the tail, driven by
//! the **Release Pointer** (`RelP`) and the globally computed Last Committed
//! StateId (LCS). This makes allocation, renaming and release independent of
//! the total register-file size and removes the need for a global free list,
//! Register Alias Table or CAM-based renamer.

use crate::stateid::{StateId, StateIdRange};
use std::error::Error;
use std::fmt;

/// Error returned by SCT operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SctError {
    /// Every physical register in the bank is in use; renaming must stall
    /// (the stall cause behind the right-hand bars of Figs. 6–8).
    BankFull,
}

impl fmt::Display for SctError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SctError::BankFull => write!(f, "no free physical register in the bank"),
        }
    }
}

impl Error for SctError {}

/// One SCT entry: the descriptor of a physical register in the bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SctEntry {
    state_id: StateId,
    valid: bool,
    ready: bool,
}

impl SctEntry {
    const INVALID: SctEntry = SctEntry {
        state_id: StateId::ZERO,
        valid: false,
        ready: false,
    };

    /// The Lower StateId of the entry: the state of the instruction that
    /// allocated this physical register.
    pub fn state_id(&self) -> StateId {
        self.state_id
    }

    /// Whether the entry currently describes a live physical register.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Whether the register value has been produced (the Ready bit `Rb`).
    pub fn is_ready(&self) -> bool {
        self.ready
    }
}

/// The State Control Table for one logical register's bank.
///
/// ```
/// use msp_state::{Sct, StateId};
///
/// let mut sct = Sct::new(2, 8); // bank for logical register r2, 8 physical regs
/// let a = sct.allocate(StateId::new(1)).unwrap();
/// let b = sct.allocate(StateId::new(2)).unwrap();
/// assert_eq!(sct.current_mapping(), b);
/// assert_eq!(sct.live_entries(), 3); // initial mapping + 2 renamings
/// // Recover to state 1: the renaming allocated at state 2 is squashed.
/// let mut released = Vec::new();
/// sct.recover(StateId::new(1), |slot| released.push(slot));
/// assert_eq!(released, vec![b]);
/// assert_eq!(sct.current_mapping(), a);
/// ```
#[derive(Debug, Clone)]
pub struct Sct {
    bank: usize,
    capacity: usize,
    entries: Vec<SctEntry>,
    /// Slot of the oldest valid entry.
    oldest: usize,
    /// Number of valid entries. Always at least 1: the committed
    /// architectural mapping is never released.
    live: usize,
    /// Release pointer: slot of the first entry that cannot yet be passed.
    rel_p: usize,
    /// Whether the bank is idle (RenP == RelP and that entry is fully
    /// produced and consumed); idle banks are excluded from the LCS minimum.
    idle: bool,
}

impl Sct {
    /// Creates the SCT for logical-register bank `bank` with `capacity`
    /// physical registers. The bank starts with one valid, ready entry at
    /// state 0 holding the initial architectural value of the register.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (one slot holds the architectural mapping, so
    /// at least one more is needed to rename at all).
    pub fn new(bank: usize, capacity: usize) -> Self {
        assert!(
            capacity >= 2,
            "a bank needs at least two physical registers"
        );
        let mut entries = vec![SctEntry::INVALID; capacity];
        entries[0] = SctEntry {
            state_id: StateId::ZERO,
            valid: true,
            ready: true,
        };
        Sct {
            bank,
            capacity,
            entries,
            oldest: 0,
            live: 1,
            rel_p: 0,
            idle: true,
        }
    }

    /// The logical-register (bank) index this SCT manages.
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// Number of physical registers in the bank.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reduces an index in `0..2*capacity` into the bank's slot range.
    /// Every caller adds at most `capacity` to an in-range slot, so a single
    /// conditional subtract replaces the integer division a `%` would cost
    /// on this hot path (bank capacities are runtime values).
    #[inline]
    fn wrap(&self, index: usize) -> usize {
        debug_assert!(index < 2 * self.capacity);
        if index >= self.capacity {
            index - self.capacity
        } else {
            index
        }
    }

    /// Number of valid entries (live physical registers).
    pub fn live_entries(&self) -> usize {
        self.live
    }

    /// Number of free physical registers available for renaming.
    pub fn free_entries(&self) -> usize {
        self.capacity - self.live
    }

    /// Whether the bank has no free physical register.
    pub fn is_full(&self) -> bool {
        self.live == self.capacity
    }

    /// Slot of the most recent renaming (the Rename Pointer, `RenP`). Source
    /// operands of newly renamed instructions read this mapping.
    pub fn current_mapping(&self) -> usize {
        self.wrap(self.oldest + self.live - 1)
    }

    /// StateId of the most recent renaming.
    pub fn current_mapping_state(&self) -> StateId {
        self.entries[self.current_mapping()].state_id
    }

    /// Slot the Release Pointer currently points at.
    pub fn release_pointer(&self) -> usize {
        self.rel_p
    }

    /// The entry in a given slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn entry(&self, slot: usize) -> &SctEntry {
        &self.entries[slot]
    }

    /// The StateId range of the physical register in `slot` (Fig. 2): closed
    /// by the next renaming, open if `slot` is the most recent renaming.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not valid.
    pub fn range_of(&self, slot: usize) -> StateIdRange {
        assert!(
            self.entries[slot].valid,
            "slot does not hold a live register"
        );
        if slot == self.current_mapping() {
            StateIdRange::open(self.entries[slot].state_id)
        } else {
            let next = self.wrap(slot + 1);
            StateIdRange::closed(
                self.entries[slot].state_id,
                self.entries[next].state_id.prev(),
            )
        }
    }

    /// Allocates a new physical register for a renaming in state `state_id`,
    /// advancing the Rename Pointer. Returns the allocated slot.
    ///
    /// # Errors
    ///
    /// Returns [`SctError::BankFull`] when the bank has no free register; the
    /// rename stage must stall (Section 3.3, last paragraph).
    ///
    /// # Panics
    ///
    /// Panics if `state_id` is not newer than the current mapping's state —
    /// allocation within a bank is strictly in program (state) order.
    pub fn allocate(&mut self, state_id: StateId) -> Result<usize, SctError> {
        assert!(
            state_id > self.current_mapping_state(),
            "renamings within a bank must have increasing StateIds"
        );
        if self.is_full() {
            return Err(SctError::BankFull);
        }
        let slot = self.wrap(self.current_mapping() + 1);
        self.entries[slot] = SctEntry {
            state_id,
            valid: true,
            ready: false,
        };
        self.live += 1;
        self.idle = false;
        Ok(slot)
    }

    /// Marks the physical register in `slot` as produced (sets the Ready bit).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not valid.
    pub fn mark_ready(&mut self, slot: usize) {
        assert!(
            self.entries[slot].valid,
            "slot does not hold a live register"
        );
        self.entries[slot].ready = true;
    }

    /// Whether the physical register in `slot` has been produced.
    pub fn is_ready(&self, slot: usize) -> bool {
        self.entries[slot].valid && self.entries[slot].ready
    }

    /// Finds the slot whose StateId range contains `state`, i.e. the renaming
    /// an instruction in `state` would source. Returns `None` when `state`
    /// precedes the oldest live renaming.
    pub fn mapping_for_state(&self, state: StateId) -> Option<usize> {
        let mut result = None;
        for i in 0..self.live {
            let slot = self.wrap(self.oldest + i);
            if self.entries[slot].state_id <= state {
                result = Some(slot);
            } else {
                break;
            }
        }
        result
    }

    /// Advances the Release Pointer past every entry that is "passable":
    /// produced (Ready bit set) and with no outstanding use — the caller
    /// supplies `has_outstanding_uses`, normally the OR of the entry's RelIQ
    /// row, which also covers non-register instructions belonging to the same
    /// state. The pointer never moves past the Rename Pointer.
    ///
    /// After the call, [`Sct::lcs_contribution`] reflects the special idle
    /// condition of Section 3.2.2.
    pub fn advance_release_pointer(&mut self, has_outstanding_uses: impl Fn(usize) -> bool) {
        // If a recovery left the pointer on a now-invalid slot, resynchronise.
        if !self.entries[self.rel_p].valid {
            self.rel_p = self.oldest;
        }
        let passable = |entry: &SctEntry, slot: usize| entry.ready && !has_outstanding_uses(slot);
        let ren_p = self.current_mapping();
        while self.rel_p != ren_p && passable(&self.entries[self.rel_p], self.rel_p) {
            self.rel_p = self.wrap(self.rel_p + 1);
        }
        self.idle = self.rel_p == ren_p && passable(&self.entries[ren_p], ren_p);
    }

    /// The bank's contribution to the global LCS minimum: the StateId at the
    /// Release Pointer, or `None` when the bank is idle (RenP == RelP and the
    /// entry is fully produced and consumed — Section 3.2.2's special
    /// condition).
    pub fn lcs_contribution(&self) -> Option<StateId> {
        if self.idle {
            None
        } else {
            Some(self.entries[self.rel_p].state_id)
        }
    }

    /// The StateId of the **second-oldest** live entry as a raw `u64`, or
    /// `u64::MAX` when fewer than two entries are live.
    ///
    /// This is the bank's *release gate*: [`Sct::release_committed`]
    /// frees a register exactly when at least two entries are older than the
    /// LCS (the youngest committed entry always survives as the
    /// architectural mapping), i.e. exactly when this value is `< lcs`. The
    /// per-cycle commit loop reads the gate to skip banks with nothing to
    /// release without touching their entry storage.
    #[inline]
    pub fn second_oldest_state(&self) -> u64 {
        if self.live >= 2 {
            self.entries[self.wrap(self.oldest + 1)].state_id.as_u64()
        } else {
            u64::MAX
        }
    }

    /// Releases committed physical registers: every valid entry with
    /// `StateId < lcs` **except the youngest such entry**, which remains the
    /// committed architectural mapping of the logical register. Calls
    /// `on_release` with each released slot, oldest first.
    pub fn release_committed(&mut self, lcs: StateId, mut on_release: impl FnMut(usize)) {
        // Count how many of the oldest entries are older than the LCS.
        let mut committed = 0;
        for i in 0..self.live {
            let slot = self.wrap(self.oldest + i);
            if self.entries[slot].state_id < lcs {
                committed += 1;
            } else {
                break;
            }
        }
        // Keep the youngest committed entry (the architectural mapping).
        #[allow(unused_mut)]
        let mut keep = 1;
        #[cfg(msp_check_mutation)]
        if crate::mutation::is_active("sct-release-off-by-one") {
            keep = 2;
        }
        while committed > keep {
            let slot = self.oldest;
            debug_assert!(self.entries[slot].valid);
            self.entries[slot] = SctEntry::INVALID;
            on_release(slot);
            self.oldest = self.wrap(self.oldest + 1);
            self.live -= 1;
            committed -= 1;
        }
    }

    /// Precise state recovery (Section 3.5): releases every physical register
    /// whose `StateId > recovery_state`, moving the Rename Pointer back to the
    /// youngest surviving renaming. Calls `on_release` with each released
    /// slot, youngest first.
    pub fn recover(&mut self, recovery_state: StateId, mut on_release: impl FnMut(usize)) {
        debug_assert!(
            recovery_state >= self.entries[self.oldest].state_id,
            "recovery target {recovery_state} is older than the oldest live mapping \
             {} of bank {} — a committed state would be squashed",
            self.entries[self.oldest].state_id,
            self.bank
        );
        while self.live > 1 {
            let ren_p = self.current_mapping();
            if self.entries[ren_p].state_id > recovery_state {
                #[cfg(msp_check_mutation)]
                if crate::mutation::is_active("sct-recover-keep-youngest") {
                    break;
                }
                self.entries[ren_p] = SctEntry::INVALID;
                on_release(ren_p);
                self.live -= 1;
            } else {
                break;
            }
        }
        debug_assert!(
            self.entries[self.current_mapping()].state_id <= recovery_state,
            "the initial architectural mapping can never be squashed"
        );
        // If the release pointer was on a squashed entry, pull it back to the
        // youngest surviving renaming.
        if !self.entries[self.rel_p].valid {
            self.rel_p = self.current_mapping();
        }
        self.idle = false;
    }

    /// Iterates over the live entries from oldest to youngest as
    /// `(slot, entry)` pairs.
    pub fn iter_live(&self) -> impl Iterator<Item = (usize, &SctEntry)> + '_ {
        (0..self.live).map(move |i| {
            let slot = self.wrap(self.oldest + i);
            (slot, &self.entries[slot])
        })
    }

    /// Feeds every behaviourally relevant bit of the table into `hasher`:
    /// the pointer positions and the live entries. Used by the model
    /// checker's visited-state dedup.
    pub fn hash_canonical<H: std::hash::Hasher>(&self, hasher: &mut H) {
        use std::hash::Hash;
        (self.oldest, self.live, self.rel_p, self.idle).hash(hasher);
        for (slot, entry) in self.iter_live() {
            (slot, entry.state_id().as_u64(), entry.is_ready()).hash(hasher);
        }
    }
}

impl fmt::Display for Sct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SCT[bank {}]: {}/{} live, RenP={}, RelP={}",
            self.bank,
            self.live,
            self.capacity,
            self.current_mapping(),
            self.rel_p
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn initial_bank_has_architectural_mapping() {
        let sct = Sct::new(5, 8);
        assert_eq!(sct.bank(), 5);
        assert_eq!(sct.live_entries(), 1);
        assert_eq!(sct.free_entries(), 7);
        assert_eq!(sct.current_mapping(), 0);
        assert_eq!(sct.current_mapping_state(), StateId::ZERO);
        assert!(sct.is_ready(0));
        assert!(
            sct.lcs_contribution().is_none(),
            "idle bank excluded from LCS"
        );
    }

    #[test]
    fn allocation_is_in_order_and_full_detection_works() {
        let mut sct = Sct::new(0, 4);
        let s1 = sct.allocate(StateId::new(1)).unwrap();
        let s2 = sct.allocate(StateId::new(2)).unwrap();
        let s3 = sct.allocate(StateId::new(3)).unwrap();
        assert_eq!((s1, s2, s3), (1, 2, 3));
        assert!(sct.is_full());
        assert_eq!(sct.allocate(StateId::new(4)), Err(SctError::BankFull));
        assert_eq!(sct.current_mapping(), 3);
        assert_eq!(
            SctError::BankFull.to_string(),
            "no free physical register in the bank"
        );
    }

    #[test]
    fn paper_fig2_state_ranges() {
        // Reproduce the R2 column of Fig. 2: renamings at states 1, 2 and 4.
        let mut sct = Sct::new(2, 8);
        let r2_1 = sct.allocate(StateId::new(1)).unwrap();
        let r2_2 = sct.allocate(StateId::new(2)).unwrap();
        let r2_3 = sct.allocate(StateId::new(4)).unwrap();
        // R2.0 valid in [0,0], R2.1 in [1,1], R2.2 in [2,3], R2.3 open at 4.
        assert_eq!(
            sct.range_of(0),
            StateIdRange::closed(StateId::new(0), StateId::new(0))
        );
        assert_eq!(
            sct.range_of(r2_1),
            StateIdRange::closed(StateId::new(1), StateId::new(1))
        );
        assert_eq!(
            sct.range_of(r2_2),
            StateIdRange::closed(StateId::new(2), StateId::new(3))
        );
        assert_eq!(sct.range_of(r2_3), StateIdRange::open(StateId::new(4)));
        // An instruction in state 3 sources R2.2; in state 5 sources R2.3.
        assert_eq!(sct.mapping_for_state(StateId::new(3)), Some(r2_2));
        assert_eq!(sct.mapping_for_state(StateId::new(5)), Some(r2_3));
    }

    #[test]
    fn recovery_releases_younger_registers_only() {
        // Fig. 1 / Section 2.1: recovery at state 4 releases only R1.2
        // (allocated at state 5) in the R1 bank.
        let mut r1 = Sct::new(1, 8);
        let _r1_1 = r1.allocate(StateId::new(3)).unwrap();
        let r1_2 = r1.allocate(StateId::new(5)).unwrap();
        let mut released = Vec::new();
        r1.recover(StateId::new(4), |slot| released.push(slot));
        assert_eq!(released, vec![r1_2]);
        assert_eq!(r1.current_mapping_state(), StateId::new(3));

        let mut r2 = Sct::new(2, 8);
        r2.allocate(StateId::new(1)).unwrap();
        r2.allocate(StateId::new(2)).unwrap();
        r2.allocate(StateId::new(4)).unwrap();
        let mut released = Vec::new();
        r2.recover(StateId::new(4), |slot| released.push(slot));
        assert!(
            released.is_empty(),
            "no R2 renaming is younger than state 4"
        );
    }

    #[test]
    fn commit_keeps_youngest_committed_mapping() {
        let mut sct = Sct::new(0, 8);
        sct.allocate(StateId::new(1)).unwrap();
        sct.allocate(StateId::new(3)).unwrap();
        sct.allocate(StateId::new(9)).unwrap(); // still speculative
                                                // LCS = 5: states 0, 1, 3 are committed; entry for state 3 must stay
                                                // as the architectural mapping, entries 0 and 1 are released.
        let mut released = Vec::new();
        sct.release_committed(StateId::new(5), |slot| released.push(slot));
        assert_eq!(released.len(), 2);
        assert_eq!(sct.live_entries(), 2);
        let states: Vec<u64> = sct
            .iter_live()
            .map(|(_, e)| e.state_id().as_u64())
            .collect();
        assert_eq!(states, vec![3, 9]);
    }

    #[test]
    fn commit_with_no_committed_entries_is_a_no_op() {
        let mut sct = Sct::new(0, 4);
        sct.allocate(StateId::new(10)).unwrap();
        let mut released = Vec::new();
        sct.release_committed(StateId::new(5), |slot| released.push(slot));
        assert!(released.is_empty());
        assert_eq!(sct.live_entries(), 2);
    }

    #[test]
    fn release_pointer_advances_past_passable_entries() {
        let mut sct = Sct::new(0, 8);
        let a = sct.allocate(StateId::new(1)).unwrap();
        let b = sct.allocate(StateId::new(2)).unwrap();
        sct.mark_ready(a);
        // Entry a is ready and consumed, entry b is not ready yet.
        sct.advance_release_pointer(|_| false);
        assert_eq!(sct.release_pointer(), b);
        assert_eq!(sct.lcs_contribution(), Some(StateId::new(2)));
        // Once b is ready and consumed the bank goes idle and stops
        // contributing to the LCS minimum.
        sct.mark_ready(b);
        sct.advance_release_pointer(|_| false);
        assert_eq!(sct.lcs_contribution(), None);
    }

    #[test]
    fn release_pointer_blocked_by_outstanding_uses() {
        let mut sct = Sct::new(0, 8);
        let a = sct.allocate(StateId::new(1)).unwrap();
        sct.allocate(StateId::new(2)).unwrap();
        sct.mark_ready(a);
        // The value is produced but a consumer in the IQ has not read it yet.
        sct.advance_release_pointer(|slot| slot == a);
        assert_eq!(sct.release_pointer(), a);
        assert_eq!(sct.lcs_contribution(), Some(StateId::new(1)));
    }

    #[test]
    fn release_pointer_never_passes_rename_pointer() {
        let mut sct = Sct::new(0, 4);
        let a = sct.allocate(StateId::new(1)).unwrap();
        sct.mark_ready(a);
        sct.advance_release_pointer(|_| false);
        assert_eq!(sct.release_pointer(), sct.current_mapping());
    }

    #[test]
    fn recovery_resets_release_pointer_when_needed() {
        let mut sct = Sct::new(0, 8);
        let a = sct.allocate(StateId::new(1)).unwrap();
        let b = sct.allocate(StateId::new(2)).unwrap();
        sct.mark_ready(a);
        sct.mark_ready(b);
        sct.advance_release_pointer(|_| false);
        assert_eq!(sct.release_pointer(), b);
        // Squash the entry the release pointer sits on.
        sct.recover(StateId::new(1), |_| {});
        assert_eq!(sct.release_pointer(), sct.current_mapping());
        assert_eq!(sct.current_mapping(), a);
    }

    #[test]
    fn wraparound_allocation_reuses_released_slots() {
        let mut sct = Sct::new(0, 4);
        // Fill, commit everything, and keep renaming: slots must be reused.
        for s in 1..=3u64 {
            sct.allocate(StateId::new(s)).unwrap();
        }
        sct.release_committed(StateId::new(10), |_| {});
        assert_eq!(sct.live_entries(), 1);
        for s in 11..=13u64 {
            sct.allocate(StateId::new(s)).unwrap();
        }
        assert!(sct.is_full());
        assert_eq!(sct.current_mapping_state(), StateId::new(13));
        let states: Vec<u64> = sct
            .iter_live()
            .map(|(_, e)| e.state_id().as_u64())
            .collect();
        assert_eq!(states, vec![3, 11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "increasing StateIds")]
    fn allocation_must_use_newer_state() {
        let mut sct = Sct::new(0, 4);
        sct.allocate(StateId::new(5)).unwrap();
        let _ = sct.allocate(StateId::new(5));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "older than the oldest live mapping")]
    fn recovery_below_oldest_live_mapping_panics() {
        let mut sct = Sct::new(0, 8);
        sct.allocate(StateId::new(4)).unwrap();
        sct.allocate(StateId::new(6)).unwrap();
        // Committing past state 6 leaves the state-6 renaming as the oldest
        // live (architectural) mapping; recovering to state 5 would squash a
        // committed state and must trip the precondition check.
        sct.release_committed(StateId::new(7), |_| {});
        sct.recover(StateId::new(5), |_| {});
    }

    #[test]
    fn display_is_informative() {
        let sct = Sct::new(7, 4);
        let text = sct.to_string();
        assert!(text.contains("bank 7"));
        assert!(text.contains("RenP"));
    }

    proptest! {
        /// Random interleavings of allocate / commit / recover keep the SCT
        /// consistent: live entries have strictly increasing StateIds, the
        /// youngest committed mapping is never dropped, and capacity is
        /// respected.
        #[test]
        fn sct_invariants_hold(ops in proptest::collection::vec(0u8..10, 1..300)) {
            let capacity = 8;
            let mut sct = Sct::new(0, capacity);
            let mut next_state = 1u64;
            let mut committed_up_to = 0u64;
            for op in ops {
                match op {
                    // allocate with 60% probability
                    0..=5 => {
                        match sct.allocate(StateId::new(next_state)) {
                            Ok(_) => next_state += 1,
                            Err(SctError::BankFull) => prop_assert!(sct.is_full()),
                        }
                    }
                    // commit up to a state at or below the current one
                    6 | 7 => {
                        let lcs = committed_up_to.max(next_state.saturating_sub(2));
                        committed_up_to = lcs;
                        sct.release_committed(StateId::new(lcs), |_| {});
                    }
                    // recover to a state between the committed point and now
                    _ => {
                        let target = committed_up_to.max(next_state.saturating_sub(3));
                        sct.recover(StateId::new(target), |_| {});
                        next_state = next_state.min(target + 1).max(committed_up_to + 1);
                        // keep next_state strictly above the surviving mapping
                        next_state = next_state.max(sct.current_mapping_state().as_u64() + 1);
                    }
                }
                // Invariants.
                prop_assert!(sct.live_entries() >= 1);
                prop_assert!(sct.live_entries() <= capacity);
                let states: Vec<u64> = sct.iter_live().map(|(_, e)| e.state_id().as_u64()).collect();
                for w in states.windows(2) {
                    prop_assert!(w[0] < w[1], "live StateIds must be strictly increasing");
                }
            }
        }
    }
}
