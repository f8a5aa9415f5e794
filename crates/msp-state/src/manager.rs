//! The MSP state-management facade: distributed renaming, use tracking,
//! LCS-driven commit and precise recovery (Sections 3.2–3.5).
//!
//! # The commit clock
//!
//! Each cycle the manager advances the Release Pointers, reduces the LCS
//! and releases committed registers. It does so in O(changed banks): each
//! bank's LCS contribution and release gate sit in the leaves of two
//! comparator trees ([`MinTree`]), re-derived only for the banks marked
//! *dirty* since the last clock. The LCS reads the contribution tree's root,
//! and the release step visits only the banks a descent of the gate tree
//! finds below the LCS.
//!
//! A bank is marked dirty only when its Release Pointer can move, or its
//! idle condition flip:
//!
//! * a use bit set or cleared, or a Ready bit written, on the entry *under*
//!   the pointer: the pointer stops at the first entry it cannot pass and
//!   reads nothing beyond it, and never returns to the entries behind it;
//! * an allocation, which moves the Rename Pointer the Release Pointer may
//!   not pass (and gives the bank a new second-oldest entry);
//! * a recovery, which squashes entries, perhaps the one under the pointer.
//!
//! A release does not dirty its bank. It frees only entries older than the
//! youngest one below the LCS, and the pointer has already passed those, so
//! it refreshes only the bank's release gate. A clean bank is therefore
//! always *settled*: advancing its pointer would neither move it nor flip
//! its idle condition, which [`MspStateManager::verify_occupancy`] checks.

use crate::lcs::{LcsUnit, MinTree};
use crate::physreg::PhysReg;
use crate::reliq::RelIq;
use crate::sct::Sct;
use crate::stateid::{StateCounter, StateId};
use msp_isa::{ArchReg, NUM_LOGICAL_REGS};
use std::error::Error;
use std::fmt;

/// Configuration of an MSP state manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MspConfig {
    /// Physical registers per logical-register bank (the `n` in `n-SP`).
    pub regs_per_bank: usize,
    /// Number of logical-register banks managed. The full machine always
    /// manages [`NUM_LOGICAL_REGS`] banks; the model checker shrinks this to
    /// a handful so the reachable state space stays exhaustively enumerable.
    pub banks: usize,
    /// Instruction-queue size (number of RelIQ columns).
    pub iq_size: usize,
    /// Propagation delay of the LCS reduction tree in cycles (Table I: 1 for
    /// n-SP, 0 for the ideal MSP).
    pub lcs_delay: usize,
}

impl Default for MspConfig {
    fn default() -> Self {
        MspConfig {
            regs_per_bank: 16,
            banks: NUM_LOGICAL_REGS,
            iq_size: 128,
            lcs_delay: 1,
        }
    }
}

impl MspConfig {
    /// The `n-SP` configuration of the paper: `n` physical registers per
    /// logical register, 1-cycle LCS propagation.
    pub fn n_sp(n: usize) -> Self {
        MspConfig {
            regs_per_bank: n,
            ..MspConfig::default()
        }
    }

    /// The ideal MSP: an effectively unbounded register file and a 0-cycle
    /// LCS propagation delay.
    pub fn ideal() -> Self {
        MspConfig {
            regs_per_bank: 4096,
            lcs_delay: 0,
            ..MspConfig::default()
        }
    }

    /// A deliberately tiny geometry for exhaustive model checking: `banks`
    /// logical registers, `regs_per_bank` physical registers each and an
    /// `iq_size`-slot instruction queue. Only the first `banks` logical
    /// registers may be renamed through a manager built from this config.
    pub fn tiny(banks: usize, regs_per_bank: usize, iq_size: usize) -> Self {
        MspConfig {
            regs_per_bank,
            banks,
            iq_size,
            ..MspConfig::default()
        }
    }

    /// Total number of physical registers.
    pub fn total_registers(&self) -> usize {
        self.regs_per_bank * self.banks
    }

    /// The `m` parameter of the compact StateId encoding: `ceil(log2(M))`
    /// where `M` is the total number of physical registers, clamped to the
    /// range supported by [`StateCounter`].
    pub fn state_width(&self) -> u8 {
        let m = (usize::BITS - (self.total_registers().max(2) - 1).leading_zeros()) as u8;
        m.clamp(1, 30)
    }
}

/// A single instruction's renaming request: its destination logical register
/// (if any) and up to two source logical registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenameRequest {
    pub(crate) dest: Option<ArchReg>,
    pub(crate) sources: [Option<ArchReg>; 2],
}

impl RenameRequest {
    /// Creates a request from a destination and a slice of sources.
    ///
    /// # Panics
    ///
    /// Panics if more than two sources are supplied.
    pub fn new(dest: Option<ArchReg>, sources: &[ArchReg]) -> Self {
        assert!(
            sources.len() <= 2,
            "instructions have at most two register sources"
        );
        let mut s = [None, None];
        for (slot, reg) in s.iter_mut().zip(sources.iter()) {
            *slot = Some(*reg);
        }
        RenameRequest { dest, sources: s }
    }
}

/// The physical register a source operand resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceMapping {
    /// The logical register that was looked up.
    pub logical: ArchReg,
    /// The physical register holding its most recent renaming.
    pub phys: PhysReg,
}

/// A newly allocated destination renaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenamedDest {
    /// The allocated physical register.
    pub phys: PhysReg,
    /// The new processor state created by this allocation.
    pub state_id: StateId,
}

/// The result of renaming one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenamedInst {
    /// The processor state this instruction belongs to.
    pub state_id: StateId,
    /// The allocated destination, if the instruction writes a register.
    pub dest: Option<RenamedDest>,
    /// Resolved source operands (program order, `None`-padded).
    pub sources: [Option<SourceMapping>; 2],
    /// The physical register anchoring this instruction's state: for
    /// instructions that do not allocate a register (stores, branches) the
    /// pipeline sets a RelIQ use bit on this row so the state cannot commit
    /// before the instruction completes (Section 3.4).
    pub anchor: PhysReg,
}

impl RenamedInst {
    /// Number of State Control Table accesses this renaming performed: one
    /// lookup per resolved source operand plus the allocation (or anchor)
    /// access of the destination bank. This is the per-rename activity
    /// count the pipeline feeds into the energy model.
    pub fn sct_lookups(&self) -> u64 {
        self.sources.iter().flatten().count() as u64 + 1
    }
}

/// Why an instruction could not be renamed this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenameError {
    /// The bank of this logical register has no free physical register
    /// (the register-file stall of Figs. 6–8).
    BankFull(ArchReg),
}

impl fmt::Display for RenameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenameError::BankFull(r) => write!(f, "no free physical register in bank {r}"),
        }
    }
}

impl Error for RenameError {}

/// The complete MSP state-management mechanism: one SCT and RelIQ matrix per
/// logical register, the global StateId counter and the LCS unit.
///
/// See the crate-level documentation for an overview and the paper mapping.
#[derive(Debug, Clone)]
pub struct MspStateManager {
    config: MspConfig,
    scts: Vec<Sct>,
    reliqs: Vec<RelIq>,
    counter: StateCounter,
    lcs: LcsUnit,
    last_allocated: PhysReg,
    committed_floor: StateId,
    /// Banks whose Release Pointer may move at the next commit clock, one
    /// bit per bank (see the module documentation for the rule). Every
    /// other bank is settled, so the commit clock re-derives only these.
    dirty_banks: u64,
    /// Per-bank LCS contribution (`u64::MAX` encodes an idle bank), valid
    /// for every clean bank.
    contributions: MinTree,
    /// Per-bank release gate ([`Sct::second_oldest_state`]), valid for
    /// every clean bank and refreshed whenever a bank releases.
    release_gates: MinTree,
}

const _: () = assert!(
    NUM_LOGICAL_REGS <= 64,
    "the dirty-bank bitmask packs one bank per bit of a u64"
);

/// Bitmask with one dirty bit for each of `banks` logical-register banks.
#[inline]
fn all_banks_dirty(banks: usize) -> u64 {
    if banks >= 64 {
        u64::MAX
    } else {
        (1u64 << banks) - 1
    }
}

impl MspStateManager {
    /// Creates a manager for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.banks` is zero or exceeds [`NUM_LOGICAL_REGS`].
    pub fn new(config: MspConfig) -> Self {
        assert!(
            config.banks >= 1 && config.banks <= NUM_LOGICAL_REGS,
            "bank count must be in 1..={NUM_LOGICAL_REGS}"
        );
        let scts = (0..config.banks)
            .map(|bank| Sct::new(bank, config.regs_per_bank))
            .collect();
        let reliqs = (0..config.banks)
            .map(|_| RelIq::new(config.regs_per_bank, config.iq_size))
            .collect();
        MspStateManager {
            scts,
            reliqs,
            counter: StateCounter::new(config.state_width()),
            lcs: LcsUnit::new(config.lcs_delay),
            last_allocated: PhysReg::new(0, 0),
            committed_floor: StateId::ZERO,
            dirty_banks: all_banks_dirty(config.banks),
            contributions: MinTree::new(config.banks, u64::MAX),
            release_gates: MinTree::new(config.banks, u64::MAX),
            config,
        }
    }

    /// The configuration this manager was built with.
    pub fn config(&self) -> &MspConfig {
        &self.config
    }

    /// The current processor state (the StateId Counter value).
    pub fn current_state(&self) -> StateId {
        self.counter.current()
    }

    /// The Last Committed StateId visible this cycle: every state strictly
    /// older is committed.
    pub fn lcs(&self) -> StateId {
        self.lcs.current()
    }

    /// Marks a bank's commit-clock leaves as stale. Every mutation that can
    /// move a bank's Release Pointer or flip its idle condition funnels
    /// through this (directly or through
    /// [`MspStateManager::dirty_if_under_pointer`]), which is what keeps
    /// the incremental [`MspStateManager::clock_commit`] bit-identical to a
    /// full sweep.
    #[inline]
    fn mark_bank_dirty(&mut self, bank: usize) {
        self.dirty_banks |= 1u64 << bank;
    }

    /// Marks `reg`'s bank dirty if `reg` is the entry under the bank's
    /// Release Pointer: a change to any other entry's Ready or use bits
    /// cannot move the pointer.
    #[inline]
    fn dirty_if_under_pointer(&mut self, reg: PhysReg) {
        if self.scts[reg.bank()].release_pointer() == reg.slot() {
            self.mark_bank_dirty(reg.bank());
        }
    }

    /// The current mapping of a logical register (the renaming a newly
    /// decoded consumer would source).
    pub fn source_mapping(&self, reg: ArchReg) -> SourceMapping {
        let bank = reg.flat_index();
        let phys = PhysReg::new(bank, self.scts[bank].current_mapping());
        SourceMapping { logical: reg, phys }
    }

    /// Renames one instruction, in program order: resolves its sources
    /// against the current mappings (which already include the renamings
    /// dispatched earlier in the same cycle, the RAW resolution of
    /// Section 3.3) and allocates its destination in the destination
    /// register's bank. The per-cycle width and same-register limits of
    /// Section 3.3 are the dispatch stage's to enforce.
    ///
    /// # Errors
    ///
    /// Returns [`RenameError::BankFull`] when the destination register's
    /// bank has no free entry.
    pub fn rename(&mut self, request: &RenameRequest) -> Result<RenamedInst, RenameError> {
        let mut sources = [None, None];
        for (slot, &reg) in sources.iter_mut().zip(request.sources.iter().flatten()) {
            *slot = Some(self.source_mapping(reg));
        }
        let dest = match request.dest {
            Some(reg) => {
                let bank = reg.flat_index();
                if self.scts[bank].is_full() {
                    return Err(RenameError::BankFull(reg));
                }
                let (state, _reset) = self.counter.allocate();
                let slot = self.scts[bank]
                    .allocate(state)
                    .expect("bank fullness checked above");
                self.mark_bank_dirty(bank);
                let phys = PhysReg::new(bank, slot);
                self.last_allocated = phys;
                Some(RenamedDest {
                    phys,
                    state_id: state,
                })
            }
            None => None,
        };
        Ok(RenamedInst {
            state_id: self.counter.current(),
            dest,
            sources,
            anchor: self.last_allocated,
        })
    }

    /// Records that the instruction in IQ slot `iq_slot` uses (or belongs to
    /// the state of) physical register `reg`.
    pub fn note_use(&mut self, reg: PhysReg, iq_slot: usize) {
        self.reliqs[reg.bank()].set_use(reg.slot(), iq_slot);
        self.dirty_if_under_pointer(reg);
    }

    /// Clears a recorded use: the consumer issued or completed, or it was
    /// squashed while it held the slot.
    pub fn clear_use(&mut self, reg: PhysReg, iq_slot: usize) {
        self.reliqs[reg.bank()].clear_use(reg.slot(), iq_slot);
        #[cfg(msp_check_mutation)]
        if crate::mutation::is_active("skip-dirty-at-release-pointer") {
            return;
        }
        self.dirty_if_under_pointer(reg);
    }

    /// Marks a physical register as produced (writeback).
    pub fn mark_ready(&mut self, reg: PhysReg) {
        self.scts[reg.bank()].mark_ready(reg.slot());
        self.dirty_if_under_pointer(reg);
    }

    /// Whether a physical register's value has been produced.
    pub fn is_ready(&self, reg: PhysReg) -> bool {
        self.scts[reg.bank()].is_ready(reg.slot())
    }

    /// Performs one commit/release cycle (Section 3.2.2): advances every
    /// bank's Release Pointer, recomputes the LCS, commits every state older
    /// than it and releases the corresponding physical registers, calling
    /// `on_release` once for each, bank by bank in ascending order. Returns
    /// the LCS visible this cycle: every state strictly older is committed.
    pub fn clock_commit(&mut self, mut on_release: impl FnMut(PhysReg)) -> StateId {
        // 1. Advance the Release Pointer of every dirty bank and update its
        //    leaves in both trees. Every clean bank is settled: re-deriving
        //    it would reproduce its leaves.
        let mut dirty = self.dirty_banks;
        self.dirty_banks = 0;
        while dirty != 0 {
            let bank = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            let reliq = &self.reliqs[bank];
            let sct = &mut self.scts[bank];
            sct.advance_release_pointer(|slot| reliq.any_use(slot));
            self.contributions.set(
                bank,
                sct.lcs_contribution().map_or(u64::MAX, StateId::as_u64),
            );
            self.release_gates.set(bank, sct.second_oldest_state());
        }
        // 2. The LCS is the contribution tree's root (idle banks hold
        //    u64::MAX and lose every comparison; when every bank is idle the
        //    LCS unit computes the fallback instead).
        let fallback = self.counter.current().next();
        let min = self.contributions.min();
        let lcs = self
            .lcs
            .clock((min != u64::MAX).then_some(StateId::new(min)), fallback);
        // 3. Release committed registers from the banks whose gate shows at
        //    least two entries older than the LCS (the exact condition under
        //    which `release_committed` frees anything). The pointer has
        //    passed every entry a release frees, so only the gate changes.
        let mut releasing = self.release_gates.leaves_below(lcs.as_u64());
        while releasing != 0 {
            let bank = releasing.trailing_zeros() as usize;
            releasing &= releasing - 1;
            let reliqs = &mut self.reliqs;
            self.scts[bank].release_committed(lcs, |slot| {
                reliqs[bank].clear_row(slot);
                on_release(PhysReg::new(bank, slot));
            });
            self.release_gates
                .set(bank, self.scts[bank].second_oldest_state());
        }
        if lcs > self.committed_floor {
            self.committed_floor = lcs;
            self.counter.note_committed(lcs);
        }
        lcs
    }

    /// Performs a precise state recovery to `recovery_state` (Section 3.5):
    /// every physical register whose StateId is newer is released, calling
    /// `on_release` once for each, the StateId counter is restored, and the
    /// LCS pipeline is flushed.
    ///
    /// The caller squashes the younger instructions first, clearing the use
    /// bits each held in its IQ slot ([`MspScheme::squash`](crate::MspScheme::squash)).
    ///
    /// # Panics
    ///
    /// Panics if `recovery_state` is older than the committed floor (states
    /// that have committed can never be recovered) or newer than the current
    /// state.
    pub fn recover(&mut self, recovery_state: StateId, mut on_release: impl FnMut(PhysReg)) {
        assert!(
            recovery_state >= self.committed_floor.as_u64().saturating_sub(1).into(),
            "cannot recover into already committed states"
        );
        for bank in 0..self.scts.len() {
            let reliq = &mut self.reliqs[bank];
            self.scts[bank].recover(recovery_state, |slot| {
                reliq.clear_row(slot);
                on_release(PhysReg::new(bank, slot));
            });
        }
        self.counter.recover_to(recovery_state);
        self.dirty_banks = all_banks_dirty(self.scts.len());
        // Restore the anchor for subsequently decoded non-allocating
        // instructions to the surviving renaming of the recovery state.
        self.last_allocated = self.anchor_for_current_state();
        #[allow(unused_mut)]
        let mut flush_lcs = true;
        #[cfg(msp_check_mutation)]
        if crate::mutation::is_active("stale-lcs-anchor") {
            flush_lcs = false;
        }
        if flush_lcs {
            let clamped =
                StateId::new(self.lcs.current().as_u64().min(recovery_state.as_u64() + 1));
            self.lcs.flush(clamped);
        }
        #[cfg(any(debug_assertions, feature = "invariant_audit"))]
        if let Err(violation) = self.verify_recovery(recovery_state) {
            panic!("post-recovery invariant audit failed: {violation}");
        }
    }

    /// Number of logical-register banks this manager drives.
    pub fn num_banks(&self) -> usize {
        self.scts.len()
    }

    /// Read access to one bank's State Control Table (diagnostics and the
    /// model checker; the pipeline never reads SCTs directly).
    pub fn sct(&self, bank: usize) -> &Sct {
        &self.scts[bank]
    }

    /// Read access to one bank's use-tracking matrix.
    pub fn reliq(&self, bank: usize) -> &RelIq {
        &self.reliqs[bank]
    }

    /// The committed floor: every state strictly older than this has
    /// committed and can never be recovered into.
    pub fn committed_floor(&self) -> StateId {
        self.committed_floor
    }

    /// Number of LCS minimums still propagating through the reduction-tree
    /// pipeline (zero right after a recovery flush).
    pub fn lcs_pending(&self) -> usize {
        self.lcs.pending()
    }

    /// Feeds every behaviourally relevant bit of the manager into `hasher`,
    /// excluding derived caches. Two managers with equal canonical hashes
    /// are (modulo hash collisions) indistinguishable by any future sequence
    /// of operations — the property the model checker's visited-state
    /// deduplication relies on. The cache exclusion is sound because
    /// [`MspStateManager::verify_occupancy`] checks that the comparator
    /// trees are coherent and that every clean bank is settled with leaves
    /// that match a fresh derivation, so neither the trees nor which banks
    /// are dirty can change what a commit clock computes.
    pub fn hash_canonical<H: std::hash::Hasher>(&self, hasher: &mut H) {
        use std::hash::Hash;
        for sct in &self.scts {
            sct.hash_canonical(hasher);
        }
        for reliq in &self.reliqs {
            reliq.hash_canonical(hasher);
        }
        self.counter.current().as_u64().hash(hasher);
        self.lcs.hash_canonical(hasher);
        (self.last_allocated.bank(), self.last_allocated.slot()).hash(hasher);
        self.committed_floor.as_u64().hash(hasher);
    }

    /// Cheap post-recovery invariant audit: StateId counter restored, no
    /// surviving renaming newer than the recovery state, release pointers on
    /// live entries, LCS pipeline quiesced to the recovery anchor. Called
    /// automatically at the end of [`MspStateManager::recover`] in debug
    /// builds and under the `invariant_audit` feature; the model checker
    /// calls it directly after every recovery event.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify_recovery(&self, recovery_state: StateId) -> Result<(), String> {
        if self.counter.current() != recovery_state {
            return Err(format!(
                "StateId counter is {} after recovering to {recovery_state}",
                self.counter.current()
            ));
        }
        if self.committed_floor.as_u64() > recovery_state.as_u64() + 1 {
            return Err(format!(
                "recovered to {recovery_state} below the committed floor {}",
                self.committed_floor
            ));
        }
        for sct in &self.scts {
            for (slot, entry) in sct.iter_live() {
                if entry.state_id() > recovery_state {
                    return Err(format!(
                        "bank {} slot {slot} survived recovery to {recovery_state} \
                         with state {}",
                        sct.bank(),
                        entry.state_id()
                    ));
                }
            }
            if !sct.entry(sct.release_pointer()).is_valid() {
                return Err(format!(
                    "bank {} release pointer {} rests on an invalid entry after recovery",
                    sct.bank(),
                    sct.release_pointer()
                ));
            }
        }
        if self.lcs.pending() != 0 {
            return Err(format!(
                "{} stale LCS minimums still in flight after the recovery flush",
                self.lcs.pending()
            ));
        }
        if self.lcs.current() > recovery_state.next() {
            return Err(format!(
                "visible LCS {} exceeds the recovery anchor {} + 1",
                self.lcs.current(),
                recovery_state
            ));
        }
        Ok(())
    }

    /// Exhaustive occupancy audit: per-bank SCT structure, no leaked use bits
    /// on free physical registers, coherent comparator trees, and every
    /// clean bank settled with leaves that match a fresh derivation (each
    /// O(1) per bank, with no clone). Quadratic in the geometry — the model
    /// checker runs it after every event; the full-scale pipeline only
    /// through the property tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify_occupancy(&self) -> Result<(), String> {
        for (bank, sct) in self.scts.iter().enumerate() {
            let live = sct.live_entries();
            if live < 1 || live > sct.capacity() {
                return Err(format!("bank {bank} has {live} live entries"));
            }
            let mut prev: Option<StateId> = None;
            for (_, entry) in sct.iter_live() {
                if let Some(p) = prev {
                    if entry.state_id() <= p {
                        return Err(format!(
                            "bank {bank} live StateIds are not strictly increasing \
                             ({p} then {})",
                            entry.state_id()
                        ));
                    }
                }
                prev = Some(entry.state_id());
            }
            for slot in 0..sct.capacity() {
                if !sct.entry(slot).is_valid() && self.reliqs[bank].any_use(slot) {
                    return Err(format!(
                        "free physical register r{bank}.{slot} has leaked RelIQ use bits"
                    ));
                }
            }
            if self.dirty_banks & (1u64 << bank) == 0 {
                if !sct.is_settled(|slot| self.reliqs[bank].any_use(slot)) {
                    return Err(format!(
                        "clean bank {bank} is not settled: its Release Pointer {} could \
                         move or its idle condition flip",
                        sct.release_pointer()
                    ));
                }
                let contrib = sct.lcs_contribution().map_or(u64::MAX, StateId::as_u64);
                if self.contributions.leaf(bank) != contrib {
                    return Err(format!(
                        "clean bank {bank} caches LCS contribution {} but derives {contrib}",
                        self.contributions.leaf(bank)
                    ));
                }
                if self.release_gates.leaf(bank) != sct.second_oldest_state() {
                    return Err(format!(
                        "clean bank {bank} caches release gate {} but derives {}",
                        self.release_gates.leaf(bank),
                        sct.second_oldest_state()
                    ));
                }
            }
        }
        if !self.contributions.is_coherent() || !self.release_gates.is_coherent() {
            return Err("a comparator tree's inner node is not the minimum of its children".into());
        }
        if self.lcs.current() > self.counter.current().next() {
            return Err(format!(
                "visible LCS {} exceeds the current state {} + 1",
                self.lcs.current(),
                self.counter.current()
            ));
        }
        Ok(())
    }

    /// The physical register that anchors the current processor state: the
    /// youngest renaming that is not newer than the current state.
    fn anchor_for_current_state(&self) -> PhysReg {
        let state = self.counter.current();
        let mut best: Option<(StateId, PhysReg)> = None;
        for (bank, sct) in self.scts.iter().enumerate() {
            let slot = sct.current_mapping();
            let s = sct.current_mapping_state();
            if s <= state && best.is_none_or(|(bs, _)| s > bs) {
                best = Some((s, PhysReg::new(bank, slot)));
            }
        }
        best.map_or_else(|| PhysReg::new(0, 0), |(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(i: usize) -> ArchReg {
        ArchReg::int(i)
    }

    /// Renames the dynamic sequence of Fig. 1 and checks the assigned
    /// StateIds, the Fig. 2 register ranges, and the recovery at instruction
    /// 7 releasing only R1.2.
    #[test]
    fn paper_fig1_fig2_walkthrough() {
        let mut msp = MspStateManager::new(MspConfig::n_sp(8));
        // 1: store r2 -> state 0 (no allocation)
        // 2: add  -> r2, state 1
        // 3: bne  -> state 1
        // 4: sub  -> r2, state 2
        // 5: mov  -> r1, state 3
        // 6: add  -> r2, state 4
        // 7: bne  -> state 4
        // 8: add  -> r1, state 5
        let reqs = [
            RenameRequest::new(None, &[int(2)]), // store
            RenameRequest::new(Some(int(2)), &[int(1), int(2)]),
            RenameRequest::new(None, &[int(2)]), // bne
            RenameRequest::new(Some(int(2)), &[int(2)]),
            RenameRequest::new(Some(int(1)), &[int(2)]),
            RenameRequest::new(Some(int(2)), &[int(1), int(2)]),
            RenameRequest::new(None, &[int(3)]), // bne
            RenameRequest::new(Some(int(1)), &[int(1), int(2)]),
        ];
        let states: Vec<u64> = reqs
            .iter()
            .map(|req| {
                msp.rename(req)
                    .expect("no stalls with n=8")
                    .state_id
                    .as_u64()
            })
            .collect();
        assert_eq!(states, vec![0, 1, 1, 2, 3, 4, 4, 5], "StateIds of Fig. 1");
        assert_eq!(msp.current_state(), StateId::new(5));

        // Fig. 2 mappings: r2's current renaming was allocated at state 4,
        // r1's at state 5.
        assert_eq!(
            msp.source_mapping(int(2)).phys,
            PhysReg::new(2, 3),
            "r2 has been renamed three times (R2.3)"
        );
        assert_eq!(msp.source_mapping(int(1)).phys, PhysReg::new(1, 2));

        // Branch misprediction at instruction 7 (state 4): only R1.2
        // (allocated at state 5) is released.
        let mut released = Vec::new();
        msp.recover(StateId::new(4), |phys| released.push(phys));
        assert_eq!(released, vec![PhysReg::new(1, 2)]);
        assert_eq!(msp.current_state(), StateId::new(4));
        assert_eq!(msp.source_mapping(int(1)).phys, PhysReg::new(1, 1));
        assert_eq!(msp.source_mapping(int(2)).phys, PhysReg::new(2, 3));
    }

    #[test]
    fn commit_releases_old_renamings_and_keeps_architectural_mapping() {
        let mut msp = MspStateManager::new(MspConfig {
            lcs_delay: 0,
            ..MspConfig::n_sp(8)
        });
        // Three successive renamings of r3.
        for _ in 0..3 {
            let out = msp
                .rename(&RenameRequest::new(Some(int(3)), &[int(3)]))
                .unwrap();
            msp.mark_ready(out.dest.unwrap().phys);
        }
        // Nothing uses the values; all banks become idle so the LCS jumps to
        // current + 1 and the two older renamings are released.
        let mut released = Vec::new();
        assert_eq!(msp.clock_commit(|p| released.push(p)), StateId::new(4));
        // The initial architectural entry plus the two superseded renamings
        // are released; the youngest committed renaming survives.
        assert_eq!(released.len(), 3);
        assert!(released.iter().all(|p| p.bank() == 3));
        assert_eq!(msp.source_mapping(int(3)).phys.slot(), 3);
        // States 0 through 3 committed.
        assert_eq!(msp.committed_floor(), StateId::new(4));
    }

    #[test]
    fn outstanding_uses_block_commit() {
        let mut msp = MspStateManager::new(MspConfig {
            lcs_delay: 0,
            ..MspConfig::n_sp(8)
        });
        let dest = msp
            .rename(&RenameRequest::new(Some(int(5)), &[]))
            .unwrap()
            .dest
            .unwrap();
        msp.mark_ready(dest.phys);
        // A consumer in IQ slot 9 still needs the value.
        msp.note_use(dest.phys, 9);
        let mut released = Vec::new();
        let lcs = msp.clock_commit(|p| released.push(p));
        assert_eq!(lcs, StateId::new(1), "state 1 cannot commit yet");
        assert_eq!(msp.committed_floor(), StateId::new(1));
        assert!(released.is_empty());
        // Once the consumer issues, the state commits.
        msp.clear_use(dest.phys, 9);
        assert_eq!(msp.clock_commit(|_| {}), StateId::new(2));
    }

    #[test]
    fn unready_destination_blocks_commit() {
        let mut msp = MspStateManager::new(MspConfig {
            lcs_delay: 0,
            ..MspConfig::n_sp(8)
        });
        msp.rename(&RenameRequest::new(Some(int(4)), &[])).unwrap();
        let mut released = Vec::new();
        assert_eq!(msp.clock_commit(|p| released.push(p)), StateId::new(1));
        assert!(released.is_empty());
    }

    #[test]
    fn lcs_delay_postpones_commit_visibility() {
        let mut msp = MspStateManager::new(MspConfig {
            lcs_delay: 2,
            ..MspConfig::n_sp(8)
        });
        let out = msp.rename(&RenameRequest::new(Some(int(2)), &[])).unwrap();
        msp.mark_ready(out.dest.unwrap().phys);
        // With a 2-cycle propagation delay the new minimum becomes visible on
        // the third clock.
        assert_eq!(msp.clock_commit(|_| {}), StateId::ZERO);
        assert_eq!(msp.clock_commit(|_| {}), StateId::ZERO);
        assert_eq!(msp.clock_commit(|_| {}), StateId::new(2));
    }

    #[test]
    fn bank_full_stall_is_reported_and_counted() {
        let mut msp = MspStateManager::new(MspConfig::n_sp(2));
        // One free slot besides the architectural mapping: second rename stalls.
        msp.rename(&RenameRequest::new(Some(int(7)), &[])).unwrap();
        let err = msp
            .rename(&RenameRequest::new(Some(int(7)), &[]))
            .unwrap_err();
        assert_eq!(err, RenameError::BankFull(int(7)));
        assert_eq!(err.to_string(), "no free physical register in bank r7");
        // The stalled rename allocated no state, and so does every retry
        // until a register is released.
        assert_eq!(msp.current_state(), StateId::new(1));
        assert_eq!(
            msp.rename(&RenameRequest::new(Some(int(7)), &[])),
            Err(RenameError::BankFull(int(7)))
        );
        assert_eq!(msp.current_state(), StateId::new(1));
    }

    #[test]
    fn same_cycle_raw_dependency_sees_new_renaming() {
        let mut msp = MspStateManager::new(MspConfig::n_sp(8));
        let first = msp
            .rename(&RenameRequest::new(Some(int(2)), &[int(1)]))
            .unwrap();
        // The second instruction must see the new r2.
        let second = msp
            .rename(&RenameRequest::new(Some(int(3)), &[int(2)]))
            .unwrap();
        let source = second.sources[0].unwrap();
        assert_eq!(source.phys, first.dest.unwrap().phys);
        assert!(!msp.is_ready(source.phys));
    }

    #[test]
    fn anchor_tracks_latest_allocation() {
        let mut msp = MspStateManager::new(MspConfig::n_sp(8));
        let write = msp.rename(&RenameRequest::new(Some(int(4)), &[])).unwrap();
        // A store: anchored to r4's renaming.
        let store = msp.rename(&RenameRequest::new(None, &[int(4)])).unwrap();
        assert_eq!(store.anchor, write.dest.unwrap().phys);
        assert_eq!(store.state_id, write.state_id);
    }

    #[test]
    fn recovery_restores_anchor_and_counter() {
        let mut msp = MspStateManager::new(MspConfig::n_sp(8));
        let first = msp
            .rename(&RenameRequest::new(Some(int(1)), &[]))
            .unwrap()
            .dest
            .unwrap();
        msp.rename(&RenameRequest::new(Some(int(2)), &[])).unwrap();
        msp.recover(first.state_id, |_| {});
        assert_eq!(msp.current_state(), first.state_id);
        // New non-allocating instructions anchor to r1's surviving renaming.
        let out = msp.rename(&RenameRequest::new(None, &[int(1)])).unwrap();
        assert_eq!(out.anchor, first.phys);
    }

    #[test]
    fn ideal_configuration_never_stalls_on_banks() {
        let mut msp = MspStateManager::new(MspConfig::ideal());
        for _ in 0..1000 {
            msp.rename(&RenameRequest::new(Some(int(3)), &[int(3)]))
                .unwrap();
        }
        assert_eq!(msp.current_state(), StateId::new(1000));
    }

    #[test]
    fn config_helpers() {
        assert_eq!(MspConfig::n_sp(16).regs_per_bank, 16);
        assert_eq!(MspConfig::n_sp(16).total_registers(), 16 * NUM_LOGICAL_REGS);
        assert_eq!(MspConfig::ideal().lcs_delay, 0);
        // 16 regs/bank * 64 banks = 1024 registers -> 10-bit StateIds.
        assert_eq!(MspConfig::n_sp(16).state_width(), 10);
        assert!(MspConfig::default() == MspConfig::n_sp(16));
        let tiny = MspConfig::tiny(2, 3, 8);
        assert_eq!(tiny.banks, 2);
        assert_eq!(tiny.total_registers(), 6);
    }

    /// A manager built with a shrunken bank count (the model checker's
    /// geometry) behaves like the full machine restricted to its banks, and
    /// the occupancy/recovery audits accept every healthy state.
    #[test]
    fn tiny_geometry_is_bank_count_agnostic() {
        let mut msp = MspStateManager::new(MspConfig::tiny(2, 3, 8));
        assert_eq!(msp.num_banks(), 2);
        let first = msp
            .rename(&RenameRequest::new(Some(int(1)), &[int(0)]))
            .unwrap()
            .dest
            .unwrap();
        msp.rename(&RenameRequest::new(Some(int(0)), &[int(1)]))
            .unwrap();
        msp.verify_occupancy().expect("healthy state");
        msp.mark_ready(first.phys);
        msp.clock_commit(|_| {});
        let mut released = 0;
        msp.recover(first.state_id, |_| released += 1);
        assert_eq!(released, 1, "only the second renaming squashes");
        msp.verify_recovery(first.state_id)
            .expect("precise recovery");
        msp.verify_occupancy()
            .expect("healthy state after recovery");
        assert_eq!(msp.sct(1).live_entries(), 2);
        assert_eq!(msp.reliq(0).rows(), 3);
        assert_eq!(msp.lcs_pending(), 0);
        assert!(msp.committed_floor() <= first.state_id.next());
    }

    fn fingerprint(msp: &MspStateManager) -> u64 {
        use std::hash::{DefaultHasher, Hasher};
        let mut h = DefaultHasher::new();
        msp.hash_canonical(&mut h);
        h.finish()
    }

    /// Two managers driven through identical histories hash identically, and
    /// any behavioural difference (an extra allocation) changes the hash.
    #[test]
    fn canonical_hash_tracks_behavioural_state() {
        let mut a = MspStateManager::new(MspConfig::tiny(2, 3, 8));
        let mut b = MspStateManager::new(MspConfig::tiny(2, 3, 8));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        a.rename(&RenameRequest::new(Some(int(1)), &[])).unwrap();
        b.rename(&RenameRequest::new(Some(int(1)), &[])).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // A further allocation changes the hash.
        b.rename(&RenameRequest::new(Some(int(0)), &[])).unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    /// The commit clock without trees or dirty banks: advances every
    /// bank's Release Pointer, folds the minimum contribution linearly and
    /// offers every bank the release.
    fn reference_clock(msp: &mut MspStateManager, released: &mut Vec<PhysReg>) -> StateId {
        for (sct, reliq) in msp.scts.iter_mut().zip(&msp.reliqs) {
            sct.advance_release_pointer(|slot| reliq.any_use(slot));
        }
        let min = msp.scts.iter().filter_map(Sct::lcs_contribution).min();
        let lcs = msp.lcs.clock(min, msp.counter.current().next());
        for (bank, (sct, reliq)) in msp.scts.iter_mut().zip(&mut msp.reliqs).enumerate() {
            sct.release_committed(lcs, |slot| {
                reliq.clear_row(slot);
                released.push(PhysReg::new(bank, slot));
            });
        }
        if lcs > msp.committed_floor {
            msp.committed_floor = lcs;
            msp.counter.note_committed(lcs);
        }
        lcs
    }

    proptest::proptest! {
        /// Random renames, use-bit sets and clears, writebacks, commit
        /// clocks and recoveries on a 5-bank × 4-register manager: after
        /// every clock the comparator trees and the dirtiness rule give the
        /// LCS, the released registers and the whole canonical state of a
        /// reference that re-derives every bank, and the occupancy audit
        /// (clean banks settled) holds after every operation.
        #[test]
        fn commit_clock_matches_a_from_scratch_reference(
            lcs_delay in 0usize..3,
            ops in proptest::collection::vec((0u8..16, 0u64..1 << 32), 1..400),
        ) {
            let (banks, iq_size) = (5, 6);
            let config = MspConfig { lcs_delay, ..MspConfig::tiny(banks, 4, iq_size) };
            let mut msp = MspStateManager::new(config);
            let mut reference = msp.clone();
            for (op, r) in ops {
                let pick = |n: usize| (r >> 8) as usize % n;
                match op {
                    // Rename: a destination in bank `r % banks` half the
                    // time, up to two sources.
                    0..=2 => {
                        let dest = (r & 1 == 0).then(|| int(r as usize % banks));
                        let sources: Vec<ArchReg> = (0..(r >> 4) as usize % 3)
                            .map(|i| int((r >> (12 + 4 * i)) as usize % banks))
                            .collect();
                        let request = RenameRequest::new(dest, &sources);
                        proptest::prop_assert_eq!(msp.rename(&request), reference.rename(&request));
                    }
                    // A consumer in a random IQ slot uses a current mapping.
                    3 | 4 => {
                        let phys = msp.source_mapping(int(r as usize % banks)).phys;
                        let slot = (r >> 4) as usize % iq_size;
                        msp.note_use(phys, slot);
                        reference.note_use(phys, slot);
                    }
                    // Some recorded use is cleared.
                    5..=7 => {
                        let set: Vec<(PhysReg, usize)> = (0..banks)
                            .flat_map(|b| (0..4).map(move |row| PhysReg::new(b, row)))
                            .flat_map(|p| (0..iq_size).map(move |slot| (p, slot)))
                            .filter(|&(p, slot)| msp.reliq(p.bank()).is_set(p.slot(), slot))
                            .collect();
                        if !set.is_empty() {
                            let (phys, slot) = set[pick(set.len())];
                            msp.clear_use(phys, slot);
                            reference.clear_use(phys, slot);
                        }
                    }
                    // Some unready register is written back.
                    8..=10 => {
                        let unready: Vec<PhysReg> = (0..banks)
                            .flat_map(|b| {
                                msp.sct(b)
                                    .iter_live()
                                    .filter(|(_, e)| !e.is_ready())
                                    .map(move |(slot, _)| PhysReg::new(b, slot))
                            })
                            .collect();
                        if !unready.is_empty() {
                            let phys = unready[pick(unready.len())];
                            msp.mark_ready(phys);
                            reference.mark_ready(phys);
                        }
                    }
                    // A commit clock.
                    11..=14 => {
                        let (mut fast, mut slow) = (Vec::new(), Vec::new());
                        let lcs = msp.clock_commit(|p| fast.push(p));
                        proptest::prop_assert_eq!(lcs, reference_clock(&mut reference, &mut slow));
                        proptest::prop_assert_eq!(fast, slow);
                        proptest::prop_assert_eq!(fingerprint(&msp), fingerprint(&reference));
                    }
                    // A recovery to a state that has not committed.
                    _ => {
                        let low = msp.committed_floor().as_u64().saturating_sub(1);
                        let high = msp.current_state().as_u64();
                        let target = StateId::new(low + (r % (high - low + 1)));
                        let (mut fast, mut slow) = (Vec::new(), Vec::new());
                        msp.recover(target, |p| fast.push(p));
                        reference.recover(target, |p| slow.push(p));
                        proptest::prop_assert_eq!(fast, slow);
                    }
                }
                proptest::prop_assert_eq!(msp.verify_occupancy(), Ok(()));
            }
        }
    }

    #[test]
    fn is_ready_and_outstanding_uses_queries() {
        let mut msp = MspStateManager::new(MspConfig::n_sp(8));
        let phys = msp
            .rename(&RenameRequest::new(Some(int(6)), &[]))
            .unwrap()
            .dest
            .unwrap()
            .phys;
        assert!(!msp.is_ready(phys));
        msp.mark_ready(phys);
        assert!(msp.is_ready(phys));
        let has_uses = |msp: &MspStateManager| msp.reliq(phys.bank()).any_use(phys.slot());
        assert!(!has_uses(&msp));
        msp.note_use(phys, 3);
        assert!(has_uses(&msp));
        msp.clear_use(phys, 3);
        assert!(!has_uses(&msp));
    }
}
