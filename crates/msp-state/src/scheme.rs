//! The MSP's state-management component: how a pipeline uses an
//! [`MspStateManager`], written once for the timing simulator and the model
//! checker alike. Rename sets a use bit per source register, and issue
//! clears them; a non-allocating instruction also sets one on the register
//! anchoring its state, and completion clears it (Section 3.4). Each bank
//! has one read and one write port per cycle (Section 5.1). Recovery squashes
//! younger stores and rewinds the manager (Section 3.5). A commit clock
//! retires every completed instruction older than the LCS (Section 3.2.2).

use crate::manager::{MspConfig, MspStateManager, RenameError, RenameRequest, RenamedInst};
use crate::physreg::PhysReg;
use crate::regfile::PortArbiter;
use crate::stateid::StateId;
use msp_isa::ArchReg;

/// What the MSP keeps for one in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MspTag {
    /// The processor state the instruction belongs to.
    pub state: StateId,
    /// The register an allocating instruction renamed its destination to.
    pub dest: Option<PhysReg>,
    /// The register whose use bit holds a non-allocating instruction's state
    /// until it completes.
    pub anchor: Option<PhysReg>,
    /// The source registers whose use bit the instruction holds until issue.
    uses: [Option<PhysReg>; 2],
    /// The IQ slot those bits occupy.
    slot: usize,
}

/// The MSP's state-management component: the state manager and the
/// register-file port arbiter.
#[derive(Debug, Clone)]
pub struct MspScheme {
    manager: MspStateManager,
    /// `None` on a machine without the arbitration stage.
    arbiter: Option<PortArbiter>,
}

impl MspScheme {
    /// A component for `config`, with port arbitration when `arbitration`.
    pub fn new(config: MspConfig, arbitration: bool) -> Self {
        MspScheme {
            arbiter: arbitration.then(|| PortArbiter::new(config.banks)),
            manager: MspStateManager::new(config),
        }
    }

    /// The state manager (oracles and audits read it).
    pub fn manager(&self) -> &MspStateManager {
        &self.manager
    }

    /// Starts a cycle: every bank port is free again.
    pub fn begin_cycle(&mut self) {
        if let Some(arbiter) = &mut self.arbiter {
            arbiter.begin_cycle();
        }
    }

    /// Renames an instruction writing `dest` and reading up to two
    /// `sources`, which enters the instruction queue at `slot`, and sets its
    /// use bits.
    ///
    /// # Errors
    ///
    /// [`RenameError::BankFull`] when `dest`'s bank has no free register.
    pub fn rename(
        &mut self,
        dest: Option<ArchReg>,
        mut sources: impl Iterator<Item = ArchReg>,
        slot: usize,
    ) -> Result<(RenamedInst, MspTag), RenameError> {
        let sources = [sources.next(), sources.next()];
        let renamed = self.manager.rename(&RenameRequest { dest, sources })?;
        let dest = renamed.dest.map(|d| d.phys);
        let anchor = dest.is_none().then_some(renamed.anchor);
        let mut uses = [None, None];
        for (bit, mapping) in uses.iter_mut().zip(renamed.sources.iter().flatten()) {
            // A source that aliases the anchor is covered by the anchor's
            // bit, which must survive until the later release point,
            // completion: a bit of its own would be cleared at issue and
            // release the state while the instruction is in flight.
            if anchor == Some(mapping.phys) {
                continue;
            }
            self.manager.note_use(mapping.phys, slot);
            *bit = Some(mapping.phys);
        }
        if let Some(anchor) = anchor {
            self.manager.note_use(anchor, slot);
        }
        let tag = MspTag {
            state: renamed.state_id,
            dest,
            anchor,
            uses,
            slot,
        };
        Ok((renamed, tag))
    }

    /// The distinct banks an issuing instruction reads, one per source use
    /// bit (two sources in one bank are one register, read once), after
    /// requesting this cycle's read port of each. `None` is a port conflict:
    /// the instruction retries next cycle.
    pub fn read(&mut self, tag: &MspTag) -> Option<[Option<usize>; 2]> {
        let [first, second] = tag.uses.map(|phys| phys.map(|p| p.bank()));
        let second = second.filter(|bank| Some(*bank) != first);
        let mut granted = true;
        if let Some(arbiter) = &mut self.arbiter {
            for bank in [first, second].into_iter().flatten() {
                granted &= arbiter.request_read(bank);
            }
        }
        granted.then_some([first, second])
    }

    /// Issue: clears the source use bits. Returns whether the instruction
    /// keeps its IQ slot until completion, where its anchor bit lives.
    pub fn issue(&mut self, tag: &mut MspTag) -> bool {
        for phys in std::mem::take(&mut tag.uses).into_iter().flatten() {
            self.manager.clear_use(phys, tag.slot);
        }
        tag.anchor.is_some()
    }

    /// Completion: an allocating instruction writes its register, which
    /// becomes ready; a non-allocating one clears its anchor bit. `false` is
    /// a conflict on the bank's write port this cycle: completion waits.
    pub fn complete(&mut self, tag: &MspTag) -> bool {
        if let Some(dest) = tag.dest {
            if let Some(arbiter) = &mut self.arbiter {
                if !arbiter.request_write(dest.bank()) {
                    return false;
                }
            }
            self.manager.mark_ready(dest);
        } else if let Some(anchor) = tag.anchor {
            self.manager.clear_use(anchor, tag.slot);
        }
        true
    }

    /// Squashes an instruction that still holds its IQ slot: clears the use
    /// bits it holds there, its sources until issue and its anchor until
    /// completion. Those are the slot's whole RelIQ column, so no column is
    /// swept across the banks.
    pub fn squash(&mut self, tag: &MspTag) {
        #[cfg(msp_check_mutation)]
        if crate::mutation::fire_once("skip-reliq-clear") {
            return;
        }
        for phys in tag.uses.into_iter().chain([tag.anchor]).flatten() {
            self.manager.clear_use(phys, tag.slot);
        }
    }

    /// Precise recovery once the branch with `branch` mispredicted and every
    /// younger instruction was squashed: `squash_stores` removes the younger
    /// stores from the store queue, and the manager rewinds to the branch's
    /// state, releasing to `on_release`.
    pub fn recover(
        &mut self,
        branch: &MspTag,
        squash_stores: impl FnOnce(),
        on_release: impl FnMut(PhysReg),
    ) {
        #[cfg(msp_check_mutation)]
        let squash_stores = || {
            if !crate::mutation::is_active("skip-storequeue-squash") {
                squash_stores();
            }
        };
        squash_stores();
        self.manager.recover(branch.state, on_release);
    }

    /// One commit clock over the in-flight `window`, oldest first as
    /// (sequence number, state, completed): the manager releases committed
    /// registers to `on_release` and reduces the LCS, and the completed
    /// instructions older than it retire, without a width limit. Returns how
    /// many retire and the drain boundary, the first instruction that stays
    /// (`next_seq` if none): older stores may write to memory. The LCS alone
    /// is no safe boundary: with a pipelined LCS, a store can join the current
    /// state after a younger minimum was computed, and drain before it ran.
    pub fn commit(
        &mut self,
        window: impl IntoIterator<Item = (u64, StateId, bool)>,
        next_seq: u64,
        on_release: impl FnMut(PhysReg),
    ) -> (usize, u64) {
        let lcs = self.manager.clock_commit(on_release);
        let mut retiring = 0;
        for (seq, state, done) in window {
            if !done || state >= lcs {
                return (retiring, seq);
            }
            retiring += 1;
        }
        (retiring, next_seq)
    }
}
