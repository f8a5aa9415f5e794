//! The MSP machine under check: the **real** [`MspStateManager`] (SCT banks,
//! RelIQ matrices, LCS unit, StateId counter) and the **real**
//! [`SimpleStoreQueue`], driven through the exact dispatch / issue /
//! writeback / commit / recovery discipline of the timing simulator, plus a
//! checker-side value ledger and committed-path reference interpreter that
//! serve as the correctness oracles.
//!
//! Nothing here re-implements MSP mechanisms: every rename, use bit, commit
//! clock and recovery goes through the production structures, so a defect in
//! them is a defect the explorer can reach.

use crate::explore::Model;
use crate::fingerprint::WordHasher;
use msp_isa::ArchReg;
use msp_mem::{SimpleStoreQueue, StoreQueue, StoreQueueEntry};
use msp_state::{MspConfig, MspStateManager, PhysReg, RenameRequest, StateId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One instruction of the checked program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An ALU instruction writing `dest` from up to two sources (allocates a
    /// new physical register and a new processor state).
    Alu {
        /// Destination logical register (flat index `< banks`).
        dest: usize,
        /// Source logical registers.
        srcs: [Option<usize>; 2],
    },
    /// A store of `src` to `addr` (non-allocating: anchored to the current
    /// state via a RelIQ use bit).
    Store {
        /// Effective byte address.
        addr: u64,
        /// Source logical register holding the stored value.
        src: usize,
    },
    /// A conditional branch reading `src`; every branch may resolve as
    /// mispredicted once, squashing all younger instructions.
    Branch {
        /// Source logical register the branch condition reads.
        src: usize,
    },
}

impl Op {
    fn dest(&self) -> Option<usize> {
        match self {
            Op::Alu { dest, .. } => Some(*dest),
            _ => None,
        }
    }

    /// The source logical registers, `None`-padded.
    pub(crate) fn sources(&self) -> [Option<usize>; 2] {
        match self {
            Op::Alu { srcs, .. } => *srcs,
            Op::Store { src, .. } | Op::Branch { src } => [Some(*src), None],
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Alu { dest, srcs } => {
                write!(f, "alu r{dest} <-")?;
                for s in srcs.iter().flatten() {
                    write!(f, " r{s}")?;
                }
                Ok(())
            }
            Op::Store { addr, src } => write!(f, "store [{addr:#x}] <- r{src}"),
            Op::Branch { src } => write!(f, "branch (r{src})"),
        }
    }
}

/// The default checked program: seven instructions over two logical
/// registers with two branches, exercising same-register renaming chains, a
/// store anchored to a shared state, and nested unresolved branches.
pub fn default_program() -> Vec<Op> {
    vec![
        Op::Alu {
            dest: 0,
            srcs: [Some(0), None],
        },
        Op::Alu {
            dest: 1,
            srcs: [Some(0), Some(1)],
        },
        Op::Branch { src: 1 },
        Op::Alu {
            dest: 0,
            srcs: [Some(0), Some(1)],
        },
        Op::Store {
            addr: 0x100,
            src: 0,
        },
        Op::Branch { src: 0 },
        Op::Alu {
            dest: 0,
            srcs: [Some(0), Some(1)],
        },
    ]
}

/// Geometry and budget of one exhaustive check.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Number of logical registers (SCT banks).
    pub banks: usize,
    /// Physical registers per bank.
    pub regs_per_bank: usize,
    /// Instruction-queue slots (RelIQ columns).
    pub iq_size: usize,
    /// Store-queue capacity.
    pub sq_size: usize,
    /// LCS propagation delay in cycles.
    pub lcs_delay: usize,
    /// The program to run (every instruction must respect `banks`).
    pub program: Vec<Op>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            banks: 2,
            regs_per_bank: 3,
            iq_size: 4,
            sq_size: 2,
            lcs_delay: 1,
            program: default_program(),
        }
    }
}

/// The initial architectural value of a logical register (an arbitrary but
/// fixed constant so value mix-ups are detectable).
pub(crate) fn initial_value(bank: usize) -> u64 {
    0x1000_0000 + 0x111 * bank as u64
}

/// A deterministic value an ALU instruction at `pc` produces from its source
/// values; also used by the reference interpreter, so a wrong renaming shows
/// up as a value mismatch.
pub(crate) fn mix(pc: usize, srcs: impl IntoIterator<Item = u64>) -> u64 {
    let mut x = (pc as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d;
    for s in srcs {
        x = (x ^ s.rotate_left(23)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 29;
    }
    x
}

/// The checker keeps its sets as `u64` bitmasks: IQ slots, physical
/// registers (`bank * regs_per_bank + slot`) and program counters each
/// number at most this many. An exhaustively checkable geometry is far
/// smaller.
pub(crate) const MAX_SET: usize = 64;

/// The set of the `n` lowest bits (`n <= 64`).
pub(crate) fn low_bits(n: usize) -> u64 {
    u64::MAX.checked_shr(64 - n as u32).unwrap_or(0)
}

/// The bits of a bitmask set, ascending.
pub(crate) fn bits(mut set: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = set.trailing_zeros() as usize;
        set &= set.wrapping_sub(1);
        (bit < 64).then_some(bit)
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Status {
    Waiting,
    Executing,
    Done,
}

/// One dispatched (and not squashed) instruction. Committed instructions are
/// kept — programs are tiny — so the reference interpreter can always replay
/// the full surviving history.
#[derive(Debug, Clone, Copy)]
struct Flight {
    pc: usize,
    seq: u64,
    state: StateId,
    dest: Option<PhysReg>,
    /// Source registers in program order, `None`-padded.
    srcs: [Option<PhysReg>; 2],
    /// The state-anchoring RelIQ row of a non-allocating instruction.
    anchor: Option<PhysReg>,
    iq_slot: Option<usize>,
    status: Status,
    /// ALU: produced value; store: stored value; branch: condition value.
    value: u64,
}

/// An event of the MSP machine. `seq` identifies the instruction (dynamic
/// sequence numbers rewind across recoveries exactly like the simulator's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MspEvent {
    /// Rename and insert the next program instruction into the queue.
    Dispatch,
    /// Wake up a waiting instruction whose sources are all ready.
    Issue {
        /// Sequence number of the issuing instruction.
        seq: u64,
    },
    /// Writeback / completion of an executing instruction.
    Complete {
        /// Sequence number of the completing instruction.
        seq: u64,
    },
    /// An executing branch resolves as mispredicted: squash younger
    /// instructions and recover the manager to the branch's state.
    Mispredict {
        /// Sequence number of the mispredicted branch.
        seq: u64,
    },
    /// One commit/release clock: advance release pointers, reduce the LCS,
    /// release committed registers and drain committed stores.
    Commit,
}

impl fmt::Display for MspEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MspEvent::Dispatch => write!(f, "dispatch"),
            MspEvent::Issue { seq } => write!(f, "issue seq={seq}"),
            MspEvent::Complete { seq } => write!(f, "complete seq={seq}"),
            MspEvent::Mispredict { seq } => write!(f, "mispredict seq={seq}"),
            MspEvent::Commit => write!(f, "commit-clock"),
        }
    }
}

/// Value ledger: the value each *live* physical register holds (or will
/// hold once produced), indexed by `bank * regs_per_bank + slot`, with one
/// presence bit per register.
#[derive(Clone)]
struct Ledger {
    regs_per_bank: usize,
    present: u64,
    values: Vec<u64>,
}

impl Ledger {
    fn new(banks: usize, regs_per_bank: usize) -> Self {
        Ledger {
            regs_per_bank,
            present: 0,
            values: vec![0; banks * regs_per_bank],
        }
    }

    fn index(&self, phys: PhysReg) -> usize {
        phys.bank() * self.regs_per_bank + phys.slot()
    }

    fn get(&self, phys: PhysReg) -> Option<u64> {
        let i = self.index(phys);
        (self.present >> i & 1 == 1).then(|| self.values[i])
    }

    fn insert(&mut self, phys: PhysReg, value: u64) {
        let i = self.index(phys);
        self.present |= 1 << i;
        self.values[i] = value;
    }

    fn remove(&mut self, phys: PhysReg) -> Option<u64> {
        let value = self.get(phys)?;
        self.present &= !(1 << self.index(phys));
        Some(value)
    }

    /// The register a presence bit stands for.
    fn phys(&self, index: usize) -> PhysReg {
        PhysReg::new(index / self.regs_per_bank, index % self.regs_per_bank)
    }

    /// A bitmask set of registers as an ordered set, for messages.
    fn regs_of(&self, set: u64) -> BTreeSet<PhysReg> {
        bits(set).map(|i| self.phys(i)).collect()
    }
}

/// The checked machine: real MSP structures plus checker-side mirrors.
#[derive(Clone)]
pub struct MspMachine {
    /// Geometry and program, shared by every explored state.
    config: Arc<CheckConfig>,
    manager: MspStateManager,
    stores: SimpleStoreQueue,
    insts: Vec<Flight>,
    next_pc: usize,
    next_seq: u64,
    /// One bit per free IQ slot (checker-side mirror of the simulator's free
    /// list; the manager itself has no notion of slot occupancy).
    iq_free: u64,
    /// Maintained from rename/release/recovery outcomes, so a leaked or
    /// misreleased register desynchronises it.
    ledger: Ledger,
    /// Memory as committed by drained stores.
    committed_mem: BTreeMap<u64, u64>,
    /// Sequence numbers drained to memory, in drain order.
    drained: Vec<u64>,
    /// One bit per program counter whose branch has already taken its one
    /// mispredict.
    mispredicted: u64,
}

impl MspMachine {
    /// Builds the initial state: a fresh manager in the tiny geometry with
    /// the initial architectural value ledgered for every bank.
    ///
    /// # Panics
    ///
    /// Panics if the program touches a register outside the geometry, or if
    /// the IQ slots, the physical registers or the program exceed 64.
    pub fn new(config: CheckConfig) -> Self {
        for op in &config.program {
            for &src in op.sources().iter().flatten() {
                assert!(src < config.banks, "program reads r{src} outside geometry");
            }
            if let Some(dest) = op.dest() {
                assert!(
                    dest < config.banks,
                    "program writes r{dest} outside geometry"
                );
            }
        }
        assert!(
            config.iq_size <= MAX_SET
                && config.banks * config.regs_per_bank <= MAX_SET
                && config.program.len() <= MAX_SET,
            "the checker tracks at most {MAX_SET} IQ slots, registers and instructions"
        );
        let mut msp_config = MspConfig::tiny(config.banks, config.regs_per_bank, config.iq_size);
        msp_config.lcs_delay = config.lcs_delay;
        let manager = MspStateManager::new(msp_config);
        let mut ledger = Ledger::new(config.banks, config.regs_per_bank);
        for bank in 0..config.banks {
            ledger.insert(PhysReg::new(bank, 0), initial_value(bank));
        }
        let stores = SimpleStoreQueue::new(config.sq_size);
        MspMachine {
            iq_free: low_bits(config.iq_size),
            config: Arc::new(config),
            manager,
            stores,
            insts: Vec::new(),
            next_pc: 0,
            next_seq: 0,
            ledger,
            committed_mem: BTreeMap::new(),
            drained: Vec::new(),
            mispredicted: 0,
        }
    }

    /// Read access to the wrapped manager (diagnostics in tests).
    pub fn manager(&self) -> &MspStateManager {
        &self.manager
    }

    fn flight(&self, seq: u64) -> Option<&Flight> {
        self.insts.iter().find(|i| i.seq == seq)
    }

    fn flight_mut(&mut self, seq: u64) -> Option<usize> {
        self.insts.iter().position(|i| i.seq == seq)
    }

    /// Replays the surviving instruction history on an architectural
    /// reference interpreter, handing `visit` each instruction with the
    /// value the reference computes for it (ALU result, stored value or
    /// branch condition); returns the final register values by bank.
    fn reference_replay(
        &self,
        mut visit: impl FnMut(&Flight, u64) -> Result<(), String>,
    ) -> Result<[u64; MAX_SET], String> {
        let mut regs = [0; MAX_SET];
        for (bank, reg) in regs.iter_mut().enumerate().take(self.config.banks) {
            *reg = initial_value(bank);
        }
        for flight in &self.insts {
            let value = match self.config.program[flight.pc] {
                Op::Alu { dest, srcs } => {
                    let v = mix(flight.pc, srcs.iter().flatten().map(|&s| regs[s]));
                    regs[dest] = v;
                    v
                }
                Op::Store { src, .. } | Op::Branch { src } => regs[src],
            };
            visit(flight, value)?;
        }
        Ok(regs)
    }

    /// The invariant oracle suite run after every event.
    fn check_invariants(&self) -> Result<(), String> {
        // (b) structural occupancy of the real structures.
        self.manager.verify_occupancy()?;

        // (b) a freed IQ slot must have no residual RelIQ bits anywhere —
        // this is exactly what a skipped squash-path `clear_iq_slot` leaks.
        for slot in bits(self.iq_free) {
            if !self.manager.slot_uses(slot).is_empty() {
                return Err(format!(
                    "freed IQ slot {slot} still holds RelIQ use bits {:?}",
                    self.manager.slot_uses(slot)
                ));
            }
        }
        let held = self
            .insts
            .iter()
            .filter_map(|i| i.iq_slot)
            .fold(0u64, |set, slot| set | 1 << slot);
        // Every slot must be exactly one of free and held.
        let mismatched = !(self.iq_free ^ held) & low_bits(self.config.iq_size);
        if let Some(slot) = bits(mismatched).next() {
            return Err(format!("IQ slot {slot} free-list/holder mismatch"));
        }

        // (c) the StateId counter must equal the youngest surviving state.
        let youngest = self
            .insts
            .iter()
            .map(|i| i.state)
            .max()
            .unwrap_or(StateId::ZERO);
        if self.manager.current_state() != youngest {
            return Err(format!(
                "StateId counter {} disagrees with youngest surviving state {youngest}",
                self.manager.current_state()
            ));
        }
        if self.manager.committed_floor() > self.manager.current_state().next() {
            return Err(format!(
                "committed floor {} ran past the current state {}",
                self.manager.committed_floor(),
                self.manager.current_state()
            ));
        }

        // (a) every surviving instruction's dispatched value must equal the
        // committed-path reference interpreter's value for it, and every
        // bank's current renaming must ledger the reference register value.
        let regs = self.reference_replay(|flight, want| {
            if flight.value != want {
                return Err(format!(
                    "seq {} (pc {}) dispatched with value {:#x}, reference says {want:#x} \
                     — a source renaming resolved to the wrong physical register",
                    flight.seq, flight.pc, flight.value
                ));
            }
            Ok(())
        })?;
        for (bank, &reference) in regs.iter().enumerate().take(self.config.banks) {
            let mapping = self.manager.source_mapping(ArchReg::from_flat_index(bank));
            match self.ledger.get(mapping.phys) {
                None => {
                    return Err(format!(
                        "current mapping {} of r{bank} has no ledgered value",
                        mapping.phys
                    ))
                }
                Some(v) if v != reference => {
                    return Err(format!(
                        "r{bank} maps to {} holding {v:#x}, reference value is {reference:#x}",
                        mapping.phys
                    ))
                }
                Some(_) => {}
            }
        }

        // The ledger and the live SCT entries must coincide exactly: a
        // register released while still ledgered (or live while unledgered)
        // is a lost or leaked renaming.
        let mut live = 0u64;
        for bank in 0..self.manager.num_banks() {
            for (slot, _) in self.manager.sct(bank).iter_live() {
                live |= 1 << self.ledger.index(PhysReg::new(bank, slot));
            }
        }
        if live != self.ledger.present {
            return Err(format!(
                "live registers {:?} and value ledger {:?} diverged",
                self.ledger.regs_of(live),
                self.ledger.regs_of(self.ledger.present)
            ));
        }

        // Every store-queue entry must belong to a surviving store, carry its
        // value and be tagged with its StateId.
        for entry in self.stores.iter() {
            let flight = self.flight(entry.seq).ok_or_else(|| {
                format!(
                    "store queue holds seq {} which is not a surviving instruction \
                     — a squashed store survived recovery",
                    entry.seq
                )
            })?;
            let ok = matches!(self.config.program[flight.pc], Op::Store { addr, .. }
                if addr == entry.addr)
                && entry.value == flight.value
                && entry.tag == flight.seq;
            if !ok {
                return Err(format!(
                    "store queue entry seq {} does not match its instruction",
                    entry.seq
                ));
            }
        }
        Ok(())
    }

    fn dispatch_enabled(&self) -> bool {
        let Some(&op) = self.config.program.get(self.next_pc) else {
            return false;
        };
        if self.iq_free == 0 {
            return false;
        }
        match op {
            // A full destination bank is a rename stall.
            Op::Alu { dest, .. } => self.manager.free_registers(ArchReg::from_flat_index(dest)) > 0,
            Op::Store { .. } => !self.stores.is_full(),
            Op::Branch { .. } => true,
        }
    }

    fn apply_dispatch(&mut self) -> Result<(), String> {
        let pc = self.next_pc;
        let op = self.config.program[pc];
        let slot = bits(self.iq_free)
            .next()
            .ok_or("dispatch with no free IQ slot")?;
        let dest_arch = op.dest().map(ArchReg::from_flat_index);
        let mut src_arch = [ArchReg::from_flat_index(0); 2];
        let mut arity = 0;
        for &src in op.sources().iter().flatten() {
            src_arch[arity] = ArchReg::from_flat_index(src);
            arity += 1;
        }
        let renamed = self
            .manager
            .rename(&RenameRequest::new(dest_arch, &src_arch[..arity]))
            .map_err(|e| format!("rename stalled despite enabledness check: {e}"))?;
        let srcs = renamed.sources.map(|m| m.map(|m| m.phys));
        // Exactly the simulator's dispatch discipline: a use bit per source,
        // plus the state-anchoring bit for non-allocating instructions. A
        // source that aliases the anchor is covered by the anchor's bit,
        // which survives until completion (the later release point).
        let dest = renamed.dest.map(|d| d.phys);
        let anchor = if dest.is_none() {
            Some(renamed.anchor)
        } else {
            None
        };
        for &src in srcs.iter().flatten() {
            if anchor == Some(src) {
                continue;
            }
            self.manager.note_use(src, slot);
        }
        if let Some(anchor) = anchor {
            self.manager.note_use(anchor, slot);
        }
        let mut src_values = [0; 2];
        for (value, &src) in src_values.iter_mut().zip(srcs.iter().flatten()) {
            *value = self
                .ledger
                .get(src)
                .ok_or_else(|| format!("source {src} unledgered"))?;
        }
        let src_values = &src_values[..arity];
        let value = match op {
            Op::Alu { .. } => {
                let v = mix(pc, src_values.iter().copied());
                self.ledger.insert(dest.expect("ALU allocates"), v);
                v
            }
            Op::Store { addr, .. } => {
                let v = src_values[0];
                if !self.stores.insert(StoreQueueEntry {
                    seq: self.next_seq,
                    tag: self.next_seq,
                    addr,
                    width: 8,
                    value: v,
                }) {
                    return Err("store queue rejected an insert despite enabledness".into());
                }
                v
            }
            Op::Branch { .. } => src_values[0],
        };
        self.iq_free &= !(1 << slot);
        self.insts.push(Flight {
            pc,
            seq: self.next_seq,
            state: renamed.state_id,
            dest,
            srcs,
            anchor,
            iq_slot: Some(slot),
            status: Status::Waiting,
            value,
        });
        self.next_seq += 1;
        self.next_pc += 1;
        Ok(())
    }

    fn apply_issue(&mut self, seq: u64) -> Result<(), String> {
        let idx = self
            .flight_mut(seq)
            .ok_or_else(|| format!("issue of unknown seq {seq}"))?;
        let (srcs, anchor, slot, allocating) = {
            let f = &self.insts[idx];
            if f.status != Status::Waiting {
                return Err(format!("issue of non-waiting seq {seq}"));
            }
            (
                f.srcs,
                f.anchor,
                f.iq_slot.ok_or("waiting inst without slot")?,
                f.dest.is_some(),
            )
        };
        for &src in srcs.iter().flatten() {
            if !self.manager.is_ready(src) {
                return Err(format!("seq {seq} issued with unready source {src}"));
            }
            // An anchor-aliased source has no bit of its own: the anchor's
            // bit is cleared at completion.
            if anchor == Some(src) {
                continue;
            }
            self.manager.clear_use(src, slot);
        }
        // The simulator frees the IQ slot at issue for allocating
        // instructions (no anchor bit remains); non-allocating ones keep the
        // slot until completion clears the anchor.
        if allocating {
            self.iq_free |= 1 << slot;
            self.insts[idx].iq_slot = None;
        }
        self.insts[idx].status = Status::Executing;
        Ok(())
    }

    fn apply_complete(&mut self, seq: u64) -> Result<(), String> {
        let idx = self
            .flight_mut(seq)
            .ok_or_else(|| format!("complete of unknown seq {seq}"))?;
        if self.insts[idx].status != Status::Executing {
            return Err(format!("complete of non-executing seq {seq}"));
        }
        match (self.insts[idx].dest, self.insts[idx].anchor) {
            (Some(dest), _) => self.manager.mark_ready(dest),
            (None, Some(anchor)) => {
                let slot = self.insts[idx]
                    .iq_slot
                    .ok_or("anchored inst without slot")?;
                self.manager.clear_use(anchor, slot);
                self.iq_free |= 1 << slot;
                self.insts[idx].iq_slot = None;
            }
            (None, None) => return Err("instruction with neither dest nor anchor".into()),
        }
        self.insts[idx].status = Status::Done;
        Ok(())
    }

    fn apply_mispredict(&mut self, seq: u64) -> Result<(), String> {
        // The branch itself completes (resolves) while detecting the
        // misprediction, exactly like the simulator's writeback path.
        self.apply_complete(seq)?;
        let idx = self
            .flight_mut(seq)
            .ok_or_else(|| format!("mispredict of unknown seq {seq}"))?;
        let branch = self.insts[idx];
        self.mispredicted |= 1 << branch.pc;

        // 1. Squash younger instructions (youngest first), clearing the
        //    RelIQ column of every slot still held — the simulator's squash
        //    loop in `recover_from`.
        while self.insts.len() > idx + 1 {
            let squashed = self.insts.pop().expect("length checked");
            if let Some(slot) = squashed.iq_slot {
                self.manager.clear_iq_slot(slot);
                self.iq_free |= 1 << slot;
            }
        }
        // 2. Squash younger stores.
        #[allow(unused_mut)]
        let mut squash_stores = true;
        #[cfg(msp_check_mutation)]
        if msp_state::mutation::is_active("skip-storequeue-squash") {
            squash_stores = false;
        }
        if squash_stores {
            self.stores.squash_younger(branch.seq);
        }
        // 3. Precise state recovery to the branch's state.
        let outcome = self.manager.recover(branch.state);
        for &phys in &outcome.released {
            if self.ledger.remove(phys).is_none() {
                return Err(format!("recovery released unledgered register {phys}"));
            }
        }
        // The recovery audit, run explicitly so it also guards release
        // builds of the checker.
        self.manager.verify_recovery(branch.state)?;
        // 4. Redirect the front end: re-fetch the correct path.
        self.next_seq = branch.seq + 1;
        self.next_pc = branch.pc + 1;
        Ok(())
    }

    fn apply_commit(&mut self) -> Result<(), String> {
        let mut released = Vec::new();
        let lcs = self.manager.clock_commit(|phys| released.push(phys));
        for phys in released {
            if self.ledger.remove(phys).is_none() {
                return Err(format!("commit released unledgered register {phys}"));
            }
        }
        // Retirement-gated drain, exactly like `commit_msp`: stores older
        // than the first instruction that has not yet retired (done with a
        // committed state) may write to memory. Gating by the raw LCS alone
        // is the hazard the checker originally caught: with a pipelined LCS
        // a store can join the current state after a younger minimum was
        // computed, and would drain before executing.
        let boundary = self
            .insts
            .iter()
            .find(|f| !(f.status == Status::Done && f.state < lcs))
            .map_or(self.next_seq, |f| f.seq);
        let mut drained = Vec::new();
        self.stores
            .drain_committed_with(boundary, &mut |e| drained.push(e));
        for entry in drained {
            let flight = self
                .flight(entry.seq)
                .ok_or_else(|| format!("drained store seq {} has no instruction", entry.seq))?;
            if flight.status != Status::Done {
                return Err(format!(
                    "store seq {} drained to memory before it executed — its anchor \
                     bit failed to hold state {} below the LCS",
                    entry.seq, flight.state
                ));
            }
            if self.drained.last().is_some_and(|&last| last >= entry.seq) {
                return Err(format!(
                    "stores drained out of program order (seq {} after {:?})",
                    entry.seq,
                    self.drained.last()
                ));
            }
            self.drained.push(entry.seq);
            self.committed_mem.insert(entry.addr, entry.value);
        }
        Ok(())
    }
}

impl Model for MspMachine {
    type Event = MspEvent;

    fn enabled_events(&self) -> Vec<MspEvent> {
        let mut events = Vec::new();
        if self.dispatch_enabled() {
            events.push(MspEvent::Dispatch);
        }
        for flight in &self.insts {
            match flight.status {
                Status::Waiting => {
                    if flight
                        .srcs
                        .iter()
                        .flatten()
                        .all(|&s| self.manager.is_ready(s))
                    {
                        events.push(MspEvent::Issue { seq: flight.seq });
                    }
                }
                Status::Executing => {
                    events.push(MspEvent::Complete { seq: flight.seq });
                    let is_branch = matches!(self.config.program[flight.pc], Op::Branch { .. });
                    if is_branch && self.mispredicted >> flight.pc & 1 == 0 {
                        events.push(MspEvent::Mispredict { seq: flight.seq });
                    }
                }
                Status::Done => {}
            }
        }
        // The commit clock is always enabled; once there is nothing left to
        // commit or drain it is a stutter, and the explorer drops it, so a
        // fully drained machine is terminal instead of self-looping.
        events.push(MspEvent::Commit);
        events
    }

    fn apply(&mut self, event: &MspEvent) -> Result<(), String> {
        match *event {
            MspEvent::Dispatch => self.apply_dispatch()?,
            MspEvent::Issue { seq } => self.apply_issue(seq)?,
            MspEvent::Complete { seq } => self.apply_complete(seq)?,
            MspEvent::Mispredict { seq } => self.apply_mispredict(seq)?,
            MspEvent::Commit => self.apply_commit()?,
        }
        self.check_invariants()
    }

    fn fingerprint(&self) -> u64 {
        let mut hasher = WordHasher::default();
        self.manager.hash_canonical(&mut hasher);
        self.next_pc.hash(&mut hasher);
        self.next_seq.hash(&mut hasher);
        self.iq_free.hash(&mut hasher);
        self.insts.len().hash(&mut hasher);
        for f in &self.insts {
            (f.pc, f.seq, f.state.as_u64(), f.status, f.iq_slot, f.value).hash(&mut hasher);
            f.dest.hash(&mut hasher);
            f.anchor.hash(&mut hasher);
        }
        for e in self.stores.iter() {
            (e.seq, e.tag, e.addr, e.value).hash(&mut hasher);
        }
        self.committed_mem.hash(&mut hasher);
        self.drained.hash(&mut hasher);
        self.mispredicted.hash(&mut hasher);
        hasher.finish()
    }

    fn check_terminal(&self) -> Result<(), String> {
        if self.next_pc != self.config.program.len() {
            return Err(format!(
                "terminal state with undispatched instructions (pc {})",
                self.next_pc
            ));
        }
        if let Some(f) = self.insts.iter().find(|f| f.status != Status::Done) {
            return Err(format!("terminal state with unfinished seq {}", f.seq));
        }
        // Quiescence: every bank must have released down to exactly one
        // (ready) architectural mapping with a clean RelIQ row, the LCS must
        // have converged past the youngest state with an empty propagation
        // pipeline, and the store queue must have fully drained.
        for bank in 0..self.manager.num_banks() {
            let sct = self.manager.sct(bank);
            if sct.live_entries() != 1 {
                return Err(format!(
                    "bank {bank} quiesced with {} live registers (leaked {})",
                    sct.live_entries(),
                    sct.live_entries() - 1
                ));
            }
            let (slot, entry) = sct.iter_live().next().expect("one live entry");
            if !entry.is_ready() {
                return Err(format!("bank {bank} quiesced with an unproduced mapping"));
            }
            let reliq = self.manager.reliq(bank);
            for row in 0..sct.capacity() {
                if reliq.any_use(row) {
                    return Err(format!(
                        "bank {bank} row {row} quiesced with stale RelIQ use bits \
                         (live mapping is slot {slot})"
                    ));
                }
            }
        }
        let settled = self.manager.current_state().next();
        if self.manager.lcs() != settled {
            return Err(format!(
                "LCS quiesced at {} instead of {settled} — commit is stuck",
                self.manager.lcs()
            ));
        }
        // Note: `lcs_pending()` is legitimately non-zero here — a pipelined
        // LCS holds `delay` settled values in flight at quiescence. The
        // pending==0 invariant only holds right after a recovery flush,
        // where `verify_recovery` asserts it.
        if self.manager.lcs_pending() > self.config.lcs_delay {
            return Err(format!(
                "LCS pipeline quiesced with {} in-flight minimums (delay {})",
                self.manager.lcs_pending(),
                self.config.lcs_delay
            ));
        }
        if self.manager.committed_floor() != settled {
            return Err(format!(
                "committed floor quiesced at {} instead of {settled}",
                self.manager.committed_floor()
            ));
        }
        if !self.stores.is_empty() {
            return Err(format!(
                "store queue quiesced with {} undrained stores",
                self.stores.len()
            ));
        }
        let mut mem = BTreeMap::new();
        self.reference_replay(|flight, value| {
            if let Op::Store { addr, .. } = self.config.program[flight.pc] {
                mem.insert(addr, value);
            }
            Ok(())
        })?;
        if self.committed_mem != mem {
            return Err(format!(
                "committed memory {:?} differs from the reference {mem:?}",
                self.committed_mem
            ));
        }
        Ok(())
    }

    fn summary(&self) -> String {
        format!(
            "pc={} in-flight={} state={} lcs={} floor={} sq={} live=[{}]",
            self.next_pc,
            self.insts
                .iter()
                .filter(|f| f.status != Status::Done)
                .count(),
            self.manager.current_state(),
            self.manager.lcs(),
            self.manager.committed_floor(),
            self.stores.len(),
            (0..self.manager.num_banks())
                .map(|b| self.manager.sct(b).live_entries().to_string())
                .collect::<Vec<_>>()
                .join(","),
        )
    }
}
