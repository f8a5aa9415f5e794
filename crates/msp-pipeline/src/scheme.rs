//! The state-management component of each scheme, as the simulator core
//! (generic over [`Scheme`], so no call is dynamic) drives it: [`Rob`], the
//! Baseline's counted ROB; [`Cpr`], CPR's checkpoint stack over counted
//! pools with aggressive register release; and [`MspScheme`], which lives in
//! msp-state so that the model checker drives the same code.

use crate::config::{MachineKind, SimConfig};
use crate::simulator::{window_index, Fetched, InFlight, Status, Window};
use crate::stats::SimStats;
use msp_isa::{ArchReg, Instruction, RegClass};
use msp_mem::StoreQueue;
use msp_state::{MspScheme, MspTag, RenameError};
use std::collections::VecDeque;

/// Structural in-flight bound for the ideal MSP's otherwise unbounded
/// window. The bound is a runaway breaker, not a modelled resource: an LCS
/// pinned by a busy architectural bank (a loop-invariant register with
/// sleeping readers always in flight) lets dispatch race arbitrarily far
/// ahead of commit, which can become self-sustaining — every dispatched
/// iteration adds new sleeping readers that keep the bank busy. Exact runs
/// peak well below this value (≈6.8k in-flight on the reference kernels at
/// 200k instructions), so the bound only engages to convert a runaway into
/// a bursty drain-and-refill.
const IDEAL_WINDOW_CAP: usize = 16_384;

/// One state-management scheme, as the pipeline stages call it.
pub(crate) trait Scheme: Sized {
    /// What the scheme keeps for each in-flight instruction.
    type Tag: Copy;
    /// The scheme of `config`, measuring from trace index `start`.
    fn new(config: &SimConfig, start: u64) -> Self;

    /// The most instructions in flight, and renamings of one logical
    /// register per cycle, that the scheme admits.
    fn dispatch_limits(_config: &SimConfig) -> (usize, usize) {
        (usize::MAX, usize::MAX)
    }

    /// Starts a cycle.
    fn begin_cycle(&mut self) {}

    /// Admits and renames the head of the fetch queue as sequence number
    /// `seq` in IQ slot `slot`; a stall is counted and returns `None`.
    fn rename(&mut self, f: &Fetched, seq: u64, slot: usize, s: &mut SimStats)
        -> Option<Self::Tag>;

    /// The window's youngest instruction dispatched; it renamed the
    /// destination of the in-flight correct-path writer `superseded` again.
    fn dispatched(&mut self, _window: &mut Window<Self::Tag>, _superseded: Option<u64>) {}

    /// The distinct register banks an issuing instruction reads, or `None`
    /// on a read-port conflict. Logical registers by default.
    fn read(&mut self, _tag: &Self::Tag, inst: &Instruction) -> Option<[Option<usize>; 2]> {
        let mut banks = inst.sources().map(|src| src.flat_index());
        let first = banks.next();
        Some([first, banks.next().filter(|bank| Some(*bank) != first)])
    }

    /// Issues the instruction at window index `idx`; returns whether it
    /// keeps its IQ slot until completion.
    fn issue(&mut self, _window: &mut Window<Self::Tag>, _idx: usize) -> bool {
        false
    }

    /// Completes the instruction `seq`, or returns `false` on a write-port
    /// conflict.
    fn complete(&mut self, _seq: u64, _tag: &Self::Tag) -> bool {
        true
    }

    /// The first squashed sequence number and the trace index fetch restarts
    /// at, once the branch `seq` at trace index `oracle` mispredicted.
    /// Precise by default: everything younger.
    fn squash_point(&mut self, seq: u64, oracle: u64, _: &mut SimStats) -> (u64, u64) {
        (seq + 1, oracle + 1)
    }

    /// An instruction left the window, retired or squashed.
    fn release(&mut self, _inst: &InFlight<Self::Tag>) {}

    /// Ends a recovery to the branch with tag `branch` once everything from
    /// `squash_from` on was squashed: younger stores leave the store queue.
    fn recover(&mut self, _branch: &Self::Tag, squash_from: u64, stores: &mut dyn StoreQueue) {
        stores.squash_younger(squash_from.saturating_sub(1));
    }

    /// One cycle of commit: how many of the oldest instructions retire, and
    /// the drain boundary below which stores write to memory. `drained` says
    /// fetch has passed the program's end with an empty fetch queue.
    fn commit(
        &mut self,
        window: &mut Window<Self::Tag>,
        next_seq: u64,
        drained: bool,
        stats: &mut SimStats,
    ) -> (usize, u64);

    /// Audits an instruction that survived a recovery to the branch with tag
    /// `recovered`; `youngest` says no younger survivor writes its register.
    #[cfg(any(debug_assertions, feature = "invariant_audit"))]
    fn audit_survivor(&self, _recovered: &Self::Tag, _inst: &InFlight<Self::Tag>, _youngest: bool) {
    }
}

/// `retiring` with the drain boundary it implies: the first instruction
/// that stays.
fn first_staying<T>(window: &Window<T>, retiring: usize, next_seq: u64) -> (usize, u64) {
    (retiring, window.get(retiring).map_or(next_seq, |i| i.seq))
}

/// Counted physical register pools, one per class, each capped at its own
/// register count.
struct Pools {
    free: [usize; 2],
    size: [usize; 2],
}

impl Pools {
    fn new(config: &SimConfig) -> Self {
        let regs = config.resources.regs_per_class;
        let size = [
            regs.saturating_sub(msp_isa::NUM_INT_REGS),
            regs.saturating_sub(msp_isa::NUM_FP_REGS),
        ];
        Pools { free: size, size }
    }

    fn class(reg: ArchReg) -> usize {
        usize::from(reg.class() == RegClass::Fp)
    }

    /// Whether `dest` can get a register; counts the stall when not.
    fn admits(&self, dest: Option<ArchReg>, stats: &mut SimStats) -> bool {
        let full = dest.is_some_and(|d| self.free[Self::class(d)] == 0);
        stats.stalls.regs_full += u64::from(full);
        !full
    }

    fn take(&mut self, dest: Option<ArchReg>) {
        if let Some(d) = dest {
            self.free[Self::class(d)] -= 1;
        }
    }

    fn give(&mut self, reg: Option<ArchReg>) {
        if let Some(r) = reg {
            let class = Self::class(r);
            self.free[class] = (self.free[class] + 1).min(self.size[class]);
        }
    }
}

/// The Baseline's counted ROB.
pub(crate) struct Rob {
    pools: Pools,
    retire_width: usize,
}

impl Scheme for Rob {
    type Tag = ();

    fn new(config: &SimConfig, _: u64) -> Self {
        Rob {
            pools: Pools::new(config),
            retire_width: config.frontend.retire_width,
        }
    }

    fn dispatch_limits(config: &SimConfig) -> (usize, usize) {
        (config.resources.rob_size, usize::MAX)
    }

    fn rename(&mut self, f: &Fetched, _: u64, _: usize, s: &mut SimStats) -> Option<()> {
        let dest = f.rec.inst.dest();
        self.pools.admits(dest, s).then(|| self.pools.take(dest))
    }

    fn release(&mut self, inst: &InFlight<()>) {
        self.pools.give(inst.dest);
    }

    /// In-order retirement of completed instructions.
    fn commit(
        &mut self,
        window: &mut Window<()>,
        next_seq: u64,
        _: bool,
        _: &mut SimStats,
    ) -> (usize, u64) {
        let oldest = window.iter().take(self.retire_width);
        let retiring = oldest.take_while(|i| i.status == Status::Done).count();
        first_staying(window, retiring, next_seq)
    }
}

/// A CPR checkpoint: a rollback point before the instruction at
/// `oracle_idx`, created when the instruction with `start_seq` dispatched.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    oracle_idx: u64,
    start_seq: u64,
}

/// What CPR keeps for each in-flight instruction: its aggressive-release
/// state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CprTag {
    /// A younger correct-path instruction writes the same register.
    superseded: bool,
    /// Dispatched consumers that have not issued.
    consumers: u32,
    /// The register went back to the pool while the instruction was in
    /// flight.
    released: bool,
}

/// CPR's checkpoint stack over counted register pools.
pub(crate) struct Cpr {
    pools: Pools,
    checkpoints: VecDeque<Checkpoint>,
    max_checkpoints: usize,
    max_insts_per_checkpoint: u64,
    insts_since_checkpoint: u64,
    /// Aggressive-release candidates: completed instructions with a younger
    /// writer of their register, waiting for their last consumer to issue.
    release_pending: Vec<u64>,
    /// Every in-flight instruction below this sequence number is `Done`. The
    /// cursor only moves forward (a recovery clamps it to the squash point),
    /// so the bulk-commit check resumes where it last stopped.
    done_prefix_seq: u64,
}

impl Cpr {
    /// Advances `done_prefix_seq` towards `limit_seq` and reports whether
    /// every in-flight instruction older than `limit_seq` has completed.
    fn done_below(&mut self, window: &Window<CprTag>, limit_seq: u64) -> bool {
        let head_seq = window.front().map_or(limit_seq, |f| f.seq);
        let mut seq = self.done_prefix_seq.max(head_seq);
        while seq < limit_seq {
            match window.get((seq - head_seq) as usize) {
                Some(inst) if inst.status != Status::Done => {
                    self.done_prefix_seq = seq;
                    return false;
                }
                Some(_) => seq += 1,
                // Past the window's tail: nothing older remains in flight.
                None => break,
            }
        }
        self.done_prefix_seq = seq.max(self.done_prefix_seq);
        true
    }

    /// Aggressive register release (reference-counter semantics): a
    /// candidate's register returns to the pool once all its known consumers
    /// have issued.
    fn release_registers(&mut self, window: &mut Window<CprTag>) {
        let pools = &mut self.pools;
        self.release_pending.retain(|&seq| {
            // Gone from the window (committed or squashed): the commit or
            // recovery path owns the register now.
            let Some(idx) = window_index(window, seq) else {
                return false;
            };
            let inst = &mut window[idx];
            if inst.tag.released || inst.tag.consumers > 0 {
                return !inst.tag.released;
            }
            inst.tag.released = inst.dest.is_some();
            pools.give(inst.dest);
            false
        });
    }
}

impl Scheme for Cpr {
    type Tag = CprTag;

    fn new(config: &SimConfig, start: u64) -> Self {
        Cpr {
            pools: Pools::new(config),
            // The first rollback point is the measurement start: an early
            // recovery re-fetches from here, never from a skipped prefix.
            checkpoints: VecDeque::from([Checkpoint {
                oracle_idx: start,
                start_seq: 0,
            }]),
            max_checkpoints: config.resources.checkpoints,
            max_insts_per_checkpoint: config.resources.max_insts_per_checkpoint,
            insts_since_checkpoint: 0,
            release_pending: Vec::new(),
            done_prefix_seq: 0,
        }
    }

    /// Admission allocates a checkpoint at a correct-path low-confidence
    /// conditional branch or indirect jump, and forces one every
    /// `max_insts_per_checkpoint` instructions.
    fn rename(&mut self, f: &Fetched, seq: u64, _: usize, s: &mut SimStats) -> Option<CprTag> {
        let (inst, dest) = (f.rec.inst, f.rec.inst.dest());
        if !self.pools.admits(dest, s) {
            return None;
        }
        let wants_checkpoint = f.oracle_idx.is_some()
            && ((inst.is_conditional_branch() && f.low_confidence) || inst.is_indirect());
        let forced = self.insts_since_checkpoint >= self.max_insts_per_checkpoint;
        if (wants_checkpoint || forced) && self.checkpoints.len() < self.max_checkpoints {
            if let Some(oracle_idx) = f.oracle_idx {
                let start_seq = seq;
                self.checkpoints.push_back(Checkpoint {
                    oracle_idx,
                    start_seq,
                });
                s.checkpoints_allocated += 1;
                s.activity.checkpoint_allocs += 1;
                self.insts_since_checkpoint = 0;
            }
        } else if forced {
            s.stalls.checkpoints_full += 1;
            return None;
        }
        // A low-confidence branch without a free checkpoint proceeds without
        // one: its recovery will be imprecise.
        self.pools.take(dest);
        self.insts_since_checkpoint += 1;
        Some(CprTag::default())
    }

    fn dispatched(&mut self, window: &mut Window<CprTag>, superseded: Option<u64>) {
        let deps = window.back().expect("just dispatched").deps;
        for producer in deps.iter().flatten() {
            if let Some(idx) = window_index(window, *producer) {
                window[idx].tag.consumers += 1;
            }
        }
        if let Some(idx) = superseded.and_then(|prev| window_index(window, prev)) {
            window[idx].tag.superseded = true;
            // An already-completed writer is a candidate right away;
            // completion handles the other order.
            if window[idx].status == Status::Done {
                self.release_pending.push(window[idx].seq);
            }
        }
    }

    fn issue(&mut self, window: &mut Window<CprTag>, idx: usize) -> bool {
        let deps = window[idx].deps;
        for producer in deps.iter().flatten() {
            if let Some(pidx) = window_index(window, *producer) {
                let consumers = &mut window[pidx].tag.consumers;
                *consumers = consumers.saturating_sub(1);
            }
        }
        false
    }

    fn complete(&mut self, seq: u64, tag: &CprTag) -> bool {
        if tag.superseded {
            self.release_pending.push(seq);
        }
        true
    }

    /// Rolls back to the youngest checkpoint at or before the branch:
    /// everything younger, correctly executed correct-path work included, is
    /// squashed and re-fetched.
    fn squash_point(&mut self, _: u64, branch_oracle: u64, stats: &mut SimStats) -> (u64, u64) {
        while self.checkpoints.len() > 1
            && self
                .checkpoints
                .back()
                .is_some_and(|c| c.oracle_idx > branch_oracle)
        {
            self.checkpoints.pop_back();
            stats.activity.checkpoint_releases += 1;
        }
        let chk = *self
            .checkpoints
            .back()
            .expect("CPR always keeps at least one checkpoint");
        if chk.oracle_idx < branch_oracle {
            stats.imprecise_recoveries += 1;
        }
        self.insts_since_checkpoint = 0;
        self.release_pending.retain(|seq| *seq < chk.start_seq);
        self.done_prefix_seq = self.done_prefix_seq.min(chk.start_seq);
        (chk.start_seq, chk.oracle_idx)
    }

    fn release(&mut self, inst: &InFlight<CprTag>) {
        if !inst.tag.released {
            self.pools.give(inst.dest);
        }
    }

    /// Pending releases go first. Then the oldest checkpoint interval
    /// commits in bulk once every instruction dispatched before the next
    /// checkpoint has completed. The final interval has no successor: it
    /// commits once fetch has passed the program's end and everything in
    /// flight has completed.
    fn commit(
        &mut self,
        window: &mut Window<CprTag>,
        next_seq: u64,
        drained: bool,
        stats: &mut SimStats,
    ) -> (usize, u64) {
        self.release_registers(window);
        let head_seq = window.front().map_or(next_seq, |f| f.seq);
        let mut boundary_seq = head_seq;
        while self.checkpoints.len() >= 2 && self.done_below(window, self.checkpoints[1].start_seq)
        {
            boundary_seq = self.checkpoints[1].start_seq;
            self.checkpoints.pop_front();
            stats.activity.checkpoint_releases += 1;
        }
        let mut retiring = boundary_seq.saturating_sub(head_seq) as usize;
        if self.checkpoints.len() == 1 && drained && window.iter().all(|i| i.status == Status::Done)
        {
            retiring = window.len();
        }
        first_staying(window, retiring, next_seq)
    }
}

impl Scheme for MspScheme {
    type Tag = MspTag;

    fn new(config: &SimConfig, _: u64) -> Self {
        MspScheme::new(config.msp_config(), config.arbitration)
    }

    /// The same-register limit of Section 3.3, and the ideal MSP's runaway
    /// breaker.
    fn dispatch_limits(config: &SimConfig) -> (usize, usize) {
        let cap = match config.machine {
            MachineKind::IdealMsp => IDEAL_WINDOW_CAP,
            _ => usize::MAX,
        };
        (cap, config.max_same_reg_renames)
    }

    fn begin_cycle(&mut self) {
        MspScheme::begin_cycle(self);
    }

    fn rename(&mut self, f: &Fetched, _: u64, slot: usize, s: &mut SimStats) -> Option<MspTag> {
        let inst = f.rec.inst;
        match MspScheme::rename(self, inst.dest(), inst.sources(), slot) {
            Ok((renamed, tag)) => {
                s.activity.sct_lookups += renamed.sct_lookups();
                Some(tag)
            }
            Err(RenameError::BankFull(reg)) => {
                s.stalls.bank_full[reg.flat_index()] += 1;
                None
            }
        }
    }

    fn read(&mut self, tag: &MspTag, _: &Instruction) -> Option<[Option<usize>; 2]> {
        MspScheme::read(self, tag)
    }

    fn issue(&mut self, window: &mut Window<MspTag>, idx: usize) -> bool {
        MspScheme::issue(self, &mut window[idx].tag)
    }

    fn complete(&mut self, _: u64, tag: &MspTag) -> bool {
        MspScheme::complete(self, tag)
    }

    /// A squashed instruction that still holds its IQ slot clears it.
    fn release(&mut self, inst: &InFlight<MspTag>) {
        if inst.iq_slot.is_some() {
            MspScheme::squash(self, &inst.tag);
        }
    }

    fn recover(&mut self, branch: &MspTag, squash_from: u64, stores: &mut dyn StoreQueue) {
        let squash_stores = || {
            stores.squash_younger(squash_from - 1);
        };
        MspScheme::recover(self, branch, squash_stores, |_| {});
    }

    fn commit(
        &mut self,
        window: &mut Window<MspTag>,
        next_seq: u64,
        _: bool,
        stats: &mut SimStats,
    ) -> (usize, u64) {
        // The LCS unit propagates its reduction once per commit clock.
        stats.activity.lcs_propagations += 1;
        let oldest_first = window
            .iter()
            .map(|i| (i.seq, i.tag.state, i.status == Status::Done));
        MspScheme::commit(self, oldest_first, next_seq, |_| {})
    }

    /// No survivor carries a squashed state, and the rename map rewound
    /// exactly: the youngest surviving writer of a register is its mapping.
    #[cfg(any(debug_assertions, feature = "invariant_audit"))]
    fn audit_survivor(&self, recovered: &MspTag, inst: &InFlight<MspTag>, youngest: bool) {
        assert!(
            inst.tag.state <= recovered.state,
            "surviving instruction seq {} carries squashed state {} (recovered to {})",
            inst.seq,
            inst.tag.state,
            recovered.state
        );
        if let (true, Some(reg), Some(dest)) = (youngest, inst.dest, inst.tag.dest) {
            let mapped = self.manager().source_mapping(reg).phys;
            assert_eq!(
                mapped, dest,
                "rename map points {reg} at {mapped} but its youngest surviving \
                 writer (seq {}) allocated {dest}",
                inst.seq
            );
        }
    }
}
