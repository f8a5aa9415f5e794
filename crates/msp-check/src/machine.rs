//! The MSP machine under check: the **real** [`MspScheme`], the state
//! management component the timing simulator drives (the [`MspStateManager`]
//! with its SCT banks, RelIQ matrices, LCS unit and StateId counter, plus the
//! use-bit and anchor rule, recovery, the commit clock and the drain
//! boundary), over the **real** [`SimpleStoreQueue`].
//!
//! This module keeps only what the simulator does not have: the event
//! alphabet, which lets dispatch, issue, completion, mispredicts and commit
//! clocks interleave in every order, a value ledger, and a committed-path
//! reference interpreter that serve as the correctness oracles. Every rename,
//! use bit, squash, recovery, commit clock and drain goes through the
//! simulator's own code, so a defect in it is a defect the explorer can
//! reach.

use crate::explore::Model;
use crate::fingerprint::WordHasher;
use msp_isa::ArchReg;
use msp_mem::{SimpleStoreQueue, StoreQueue, StoreQueueEntry};
use msp_state::{MspConfig, MspScheme, MspStateManager, MspTag, PhysReg, StateId};
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
/// the full surviving history, and an instruction's sequence number is its
/// index.
#[derive(Debug, Clone, Copy)]
struct Flight {
    pc: usize,
    /// What the MSP component keeps for the instruction.
    tag: MspTag,
    /// Source registers in program order, `None`-padded.
    srcs: [Option<PhysReg>; 2],
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

/// The checked machine: the real MSP component plus checker-side mirrors.
#[derive(Clone)]
pub struct MspMachine {
    /// Geometry and program, shared by every explored state.
    config: Arc<CheckConfig>,
    scheme: MspScheme,
    stores: SimpleStoreQueue,
    insts: Vec<Flight>,
    next_pc: usize,
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
        let scheme = MspScheme::new(msp_config, false);
        let mut ledger = Ledger::new(config.banks, config.regs_per_bank);
        for bank in 0..config.banks {
            ledger.insert(PhysReg::new(bank, 0), initial_value(bank));
        }
        let stores = SimpleStoreQueue::new(config.sq_size);
        MspMachine {
            iq_free: low_bits(config.iq_size),
            config: Arc::new(config),
            scheme,
            stores,
            insts: Vec::new(),
            next_pc: 0,
            ledger,
            committed_mem: BTreeMap::new(),
            drained: Vec::new(),
            mispredicted: 0,
        }
    }

    /// Read access to the wrapped manager (diagnostics in tests).
    pub fn manager(&self) -> &MspStateManager {
        self.scheme.manager()
    }

    fn flight(&self, seq: u64) -> Option<&Flight> {
        self.insts.get(seq as usize)
    }

    /// Replays the surviving instruction history on an architectural
    /// reference interpreter, handing `visit` each instruction with the
    /// value the reference computes for it (ALU result, stored value or
    /// branch condition); returns the final register values by bank.
    fn reference_replay(
        &self,
        mut visit: impl FnMut(u64, &Flight, u64) -> Result<(), String>,
    ) -> Result<[u64; MAX_SET], String> {
        let mut regs = [0; MAX_SET];
        for (bank, reg) in regs.iter_mut().enumerate().take(self.config.banks) {
            *reg = initial_value(bank);
        }
        for (seq, flight) in (0..).zip(&self.insts) {
            let value = match self.config.program[flight.pc] {
                Op::Alu { dest, srcs } => {
                    let v = mix(flight.pc, srcs.iter().flatten().map(|&s| regs[s]));
                    regs[dest] = v;
                    v
                }
                Op::Store { src, .. } | Op::Branch { src } => regs[src],
            };
            visit(seq, flight, value)?;
        }
        Ok(regs)
    }

    /// The invariant oracle suite run after every event.
    fn check_invariants(&self) -> Result<(), String> {
        // (b) structural occupancy of the real structures.
        self.manager().verify_occupancy()?;

        // (b) a freed IQ slot must have no residual RelIQ bits anywhere —
        // this is exactly what a skipped squash-path clear leaks.
        for slot in bits(self.iq_free) {
            for bank in 0..self.config.banks {
                for row in 0..self.config.regs_per_bank {
                    if self.manager().reliq(bank).is_set(row, slot) {
                        let phys = PhysReg::new(bank, row);
                        return Err(format!(
                            "freed IQ slot {slot} still holds a use bit of {phys}"
                        ));
                    }
                }
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
            .map(|i| i.tag.state)
            .max()
            .unwrap_or(StateId::ZERO);
        if self.manager().current_state() != youngest {
            return Err(format!(
                "StateId counter {} disagrees with youngest surviving state {youngest}",
                self.manager().current_state()
            ));
        }
        if self.manager().committed_floor() > self.manager().current_state().next() {
            return Err(format!(
                "committed floor {} ran past the current state {}",
                self.manager().committed_floor(),
                self.manager().current_state()
            ));
        }

        // (a) every surviving instruction's dispatched value must equal the
        // committed-path reference interpreter's value for it, and every
        // bank's current renaming must ledger the reference register value.
        let regs = self.reference_replay(|seq, flight, want| {
            if flight.value != want {
                return Err(format!(
                    "seq {seq} (pc {}) dispatched with value {:#x}, reference says {want:#x} \
                     — a source renaming resolved to the wrong physical register",
                    flight.pc, flight.value
                ));
            }
            Ok(())
        })?;
        for (bank, &reference) in regs.iter().enumerate().take(self.config.banks) {
            let mapping = self
                .manager()
                .source_mapping(ArchReg::from_flat_index(bank));
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
        for bank in 0..self.manager().num_banks() {
            for (slot, _) in self.manager().sct(bank).iter_live() {
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
                && entry.tag == entry.seq;
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
            Op::Alu { dest, .. } => {
                self.manager()
                    .free_registers(ArchReg::from_flat_index(dest))
                    > 0
            }
            Op::Store { .. } => !self.stores.is_full(),
            Op::Branch { .. } => true,
        }
    }

    fn apply_dispatch(&mut self) -> Result<(), String> {
        let (pc, seq) = (self.next_pc, self.insts.len() as u64);
        let op = self.config.program[pc];
        let slot = bits(self.iq_free)
            .next()
            .ok_or("dispatch with no free IQ slot")?;
        let sources = op.sources().into_iter().flatten();
        let (renamed, tag) = self
            .scheme
            .rename(
                op.dest().map(ArchReg::from_flat_index),
                sources.map(ArchReg::from_flat_index),
                slot,
            )
            .map_err(|e| format!("rename stalled despite enabledness check: {e}"))?;
        let srcs = renamed.sources.map(|m| m.map(|m| m.phys));
        let mut src_values = [0; 2];
        let mut arity = 0;
        for (value, &src) in src_values.iter_mut().zip(srcs.iter().flatten()) {
            *value = self
                .ledger
                .get(src)
                .ok_or_else(|| format!("source {src} unledgered"))?;
            arity += 1;
        }
        let src_values = &src_values[..arity];
        let value = match op {
            Op::Alu { .. } => {
                let v = mix(pc, src_values.iter().copied());
                self.ledger.insert(tag.dest.expect("ALU allocates"), v);
                v
            }
            Op::Store { addr, .. } => {
                let v = src_values[0];
                if !self.stores.insert(StoreQueueEntry {
                    seq,
                    tag: seq,
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
            tag,
            srcs,
            iq_slot: Some(slot),
            status: Status::Waiting,
            value,
        });
        self.next_pc += 1;
        Ok(())
    }

    fn apply_issue(&mut self, seq: u64) -> Result<(), String> {
        let flight = self
            .insts
            .get_mut(seq as usize)
            .ok_or_else(|| format!("issue of unknown seq {seq}"))?;
        if flight.status != Status::Waiting {
            return Err(format!("issue of non-waiting seq {seq}"));
        }
        for &src in flight.srcs.iter().flatten() {
            if !self.scheme.manager().is_ready(src) {
                return Err(format!("seq {seq} issued with unready source {src}"));
            }
        }
        if !self.scheme.issue(&mut flight.tag) {
            let slot = flight.iq_slot.take().ok_or("waiting inst without slot")?;
            self.iq_free |= 1 << slot;
        }
        flight.status = Status::Executing;
        Ok(())
    }

    fn apply_complete(&mut self, seq: u64) -> Result<(), String> {
        let flight = self
            .insts
            .get_mut(seq as usize)
            .ok_or_else(|| format!("complete of unknown seq {seq}"))?;
        if flight.status != Status::Executing {
            return Err(format!("complete of non-executing seq {seq}"));
        }
        self.scheme.complete(&flight.tag);
        if let Some(slot) = flight.iq_slot.take() {
            self.iq_free |= 1 << slot;
        }
        flight.status = Status::Done;
        Ok(())
    }

    fn apply_mispredict(&mut self, seq: u64) -> Result<(), String> {
        // The branch itself completes (resolves) while detecting the
        // misprediction, exactly like the simulator's writeback path.
        self.apply_complete(seq)?;
        let branch = self.insts[seq as usize];
        self.mispredicted |= 1 << branch.pc;
        // Squash the younger instructions, youngest first, then recover.
        while self.insts.len() as u64 > seq + 1 {
            let squashed = self.insts.pop().expect("length checked");
            if let Some(slot) = squashed.iq_slot {
                self.scheme.squash(&squashed.tag);
                self.iq_free |= 1 << slot;
            }
        }
        let mut released = Vec::new();
        let stores = &mut self.stores;
        let squash_stores = || {
            stores.squash_younger(seq);
        };
        self.scheme
            .recover(&branch.tag, squash_stores, |phys| released.push(phys));
        for phys in released {
            if self.ledger.remove(phys).is_none() {
                return Err(format!("recovery released unledgered register {phys}"));
            }
        }
        // The recovery audit, run explicitly so it also guards release
        // builds of the checker.
        self.scheme.manager().verify_recovery(branch.tag.state)?;
        // Redirect the front end: re-fetch the correct path.
        self.next_pc = branch.pc + 1;
        Ok(())
    }

    fn apply_commit(&mut self) -> Result<(), String> {
        // Committed instructions stay in `insts` and retire again at every
        // clock: their states stay below the LCS.
        let mut released = Vec::new();
        let next_seq = self.insts.len() as u64;
        let window = (0..).zip(&self.insts);
        let oldest_first = window.map(|(seq, f)| (seq, f.tag.state, f.status == Status::Done));
        let (_, boundary) = self
            .scheme
            .commit(oldest_first, next_seq, |phys| released.push(phys));
        for phys in released {
            if self.ledger.remove(phys).is_none() {
                return Err(format!("commit released unledgered register {phys}"));
            }
        }
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
                    entry.seq, flight.tag.state
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
        for (seq, flight) in (0..).zip(&self.insts) {
            match flight.status {
                Status::Waiting => {
                    if flight
                        .srcs
                        .iter()
                        .flatten()
                        .all(|&s| self.manager().is_ready(s))
                    {
                        events.push(MspEvent::Issue { seq });
                    }
                }
                Status::Executing => {
                    events.push(MspEvent::Complete { seq });
                    let is_branch = matches!(self.config.program[flight.pc], Op::Branch { .. });
                    if is_branch && self.mispredicted >> flight.pc & 1 == 0 {
                        events.push(MspEvent::Mispredict { seq });
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
        self.manager().hash_canonical(&mut hasher);
        self.next_pc.hash(&mut hasher);
        self.iq_free.hash(&mut hasher);
        self.insts.len().hash(&mut hasher);
        for f in &self.insts {
            (f.pc, f.tag.state.as_u64(), f.status, f.iq_slot, f.value).hash(&mut hasher);
            f.tag.dest.hash(&mut hasher);
            f.tag.anchor.hash(&mut hasher);
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
        if let Some(seq) = self.insts.iter().position(|f| f.status != Status::Done) {
            return Err(format!("terminal state with unfinished seq {seq}"));
        }
        // Quiescence: every bank must have released down to exactly one
        // (ready) architectural mapping with a clean RelIQ row, the LCS must
        // have converged past the youngest state with an empty propagation
        // pipeline, and the store queue must have fully drained.
        for bank in 0..self.manager().num_banks() {
            let sct = self.manager().sct(bank);
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
            let reliq = self.manager().reliq(bank);
            for row in 0..sct.capacity() {
                if reliq.any_use(row) {
                    return Err(format!(
                        "bank {bank} row {row} quiesced with stale RelIQ use bits \
                         (live mapping is slot {slot})"
                    ));
                }
            }
        }
        let settled = self.manager().current_state().next();
        if self.manager().lcs() != settled {
            return Err(format!(
                "LCS quiesced at {} instead of {settled} — commit is stuck",
                self.manager().lcs()
            ));
        }
        // Note: `lcs_pending()` is legitimately non-zero here — a pipelined
        // LCS holds `delay` settled values in flight at quiescence. The
        // pending==0 invariant only holds right after a recovery flush,
        // where `verify_recovery` asserts it.
        if self.manager().lcs_pending() > self.config.lcs_delay {
            return Err(format!(
                "LCS pipeline quiesced with {} in-flight minimums (delay {})",
                self.manager().lcs_pending(),
                self.config.lcs_delay
            ));
        }
        if self.manager().committed_floor() != settled {
            return Err(format!(
                "committed floor quiesced at {} instead of {settled}",
                self.manager().committed_floor()
            ));
        }
        if !self.stores.is_empty() {
            return Err(format!(
                "store queue quiesced with {} undrained stores",
                self.stores.len()
            ));
        }
        let mut mem = BTreeMap::new();
        self.reference_replay(|_, flight, value| {
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
            self.manager().current_state(),
            self.manager().lcs(),
            self.manager().committed_floor(),
            self.stores.len(),
            (0..self.manager().num_banks())
                .map(|b| self.manager().sct(b).live_entries().to_string())
                .collect::<Vec<_>>()
                .join(","),
        )
    }
}
