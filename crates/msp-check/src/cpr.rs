//! The CPR comparison machine: a checkpoint stack over a counted physical
//! register pool (Akkary et al.'s CPR, the paper's main baseline).
//!
//! Unlike the MSP machine, CPR has no distributed state structures to wrap —
//! the simulator models it as counted pools plus a checkpoint stack inside
//! the pipeline — so this model reproduces those semantics directly: a
//! checkpoint (register-map + value snapshot) at every unresolved branch,
//! in-order region commit that frees superseded registers, and rollback that
//! restores the snapshot and returns every register allocated past it to the
//! pool. The oracles check the counted-pool accounting (no leaked or
//! double-freed registers), value restoration against a reference
//! interpreter, and committed memory.

use crate::explore::Model;
use crate::fingerprint::WordHasher;
use crate::machine::{initial_value, mix, MspEvent, Op, MAX_SET};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Geometry of the CPR machine.
#[derive(Debug, Clone)]
pub struct CprConfig {
    /// Number of architectural registers.
    pub arch_regs: usize,
    /// Physical register pool size (shared, counted).
    pub total_regs: usize,
    /// Checkpoint storage depth: dispatch stalls at an unresolved branch
    /// when the stack is full.
    pub max_ckpts: usize,
    /// The program to run.
    pub program: Vec<Op>,
}

impl Default for CprConfig {
    fn default() -> Self {
        CprConfig {
            arch_regs: 2,
            total_regs: 5,
            max_ckpts: 2,
            program: crate::machine::default_program(),
        }
    }
}

#[derive(Debug, Clone)]
struct CprFlight {
    pc: usize,
    seq: u64,
    /// The physical register this instruction allocated, if any.
    dest: Option<u64>,
    /// The mapping `dest` superseded (freed when this instruction commits).
    prev: Option<u64>,
    done: bool,
    value: u64,
}

#[derive(Debug, Clone)]
struct Checkpoint {
    pc: usize,
    branch_seq: u64,
    /// Length of `insts` when the snapshot was taken (the branch itself is
    /// the first instruction of the checkpointed region).
    inst_len: usize,
    map: Vec<u64>,
    regs: Vec<u64>,
    next_phys: u64,
}

/// The CPR machine: counted pool, checkpoint stack, in-order region commit.
#[derive(Clone)]
pub struct CprMachine {
    /// Geometry and program, shared by every explored state.
    config: Arc<CprConfig>,
    free: usize,
    next_phys: u64,
    /// Every currently allocated physical register id.
    live: BTreeSet<u64>,
    /// Speculative rename map (arch -> phys id).
    map: Vec<u64>,
    /// Speculative architectural values.
    regs: Vec<u64>,
    ckpts: Vec<Checkpoint>,
    insts: Vec<CprFlight>,
    next_pc: usize,
    next_seq: u64,
    /// Instructions `[0, committed_upto)` have committed in order.
    committed_upto: usize,
    committed_mem: BTreeMap<u64, u64>,
    /// One bit per program counter whose branch has already taken its one
    /// mispredict.
    mispredicted: u64,
}

impl CprMachine {
    /// Builds the initial state: identity mappings live, the rest of the
    /// pool free.
    ///
    /// # Panics
    ///
    /// Panics if the pool does not exceed the architectural mappings, or if
    /// the program is longer than the checker's 64-instruction bound.
    pub fn new(config: CprConfig) -> Self {
        assert!(
            config.total_regs > config.arch_regs,
            "the pool must exceed the architectural mappings"
        );
        assert!(
            config.program.len() <= MAX_SET,
            "the checker tracks at most {MAX_SET} instructions"
        );
        let arch = config.arch_regs;
        CprMachine {
            free: config.total_regs - arch,
            next_phys: arch as u64,
            live: (0..arch as u64).collect(),
            map: (0..arch as u64).collect(),
            regs: (0..arch).map(initial_value).collect(),
            ckpts: Vec::new(),
            insts: Vec::new(),
            next_pc: 0,
            next_seq: 0,
            committed_upto: 0,
            committed_mem: BTreeMap::new(),
            config: Arc::new(config),
            mispredicted: 0,
        }
    }

    /// The first speculative instruction index: commit may not pass the
    /// oldest checkpoint until it retires.
    fn commit_boundary(&self) -> usize {
        self.ckpts.first().map_or(self.insts.len(), |c| c.inst_len)
    }

    fn commit_step_enabled(&self) -> bool {
        let boundary = self.commit_boundary();
        if self.committed_upto < boundary && self.insts[self.committed_upto].done {
            return true;
        }
        // Oldest checkpoint retires once its whole prefix committed and the
        // branch resolved.
        self.ckpts
            .first()
            .is_some_and(|c| self.committed_upto == c.inst_len && self.insts[c.inst_len].done)
    }

    fn apply_commit(&mut self) -> Result<(), String> {
        let boundary = self.commit_boundary();
        while self.committed_upto < boundary && self.insts[self.committed_upto].done {
            let flight = self.insts[self.committed_upto].clone();
            if let Op::Store { addr, .. } = self.config.program[flight.pc] {
                self.committed_mem.insert(addr, flight.value);
            }
            if let Some(prev) = flight.prev {
                if !self.live.remove(&prev) {
                    return Err(format!("commit double-freed physical register {prev}"));
                }
                self.free += 1;
            }
            self.committed_upto += 1;
        }
        if let Some(c) = self.ckpts.first() {
            if self.committed_upto == c.inst_len && self.insts[c.inst_len].done {
                // The branch resolved correctly: its checkpoint storage is
                // reclaimed and commit proceeds into the region next clock.
                self.ckpts.remove(0);
            }
        }
        Ok(())
    }

    fn apply_dispatch(&mut self) -> Result<(), String> {
        let pc = self.next_pc;
        let op = self.config.program[pc];
        let (dest, prev, value) = match op {
            Op::Alu { dest, srcs } => {
                let value = mix(pc, srcs.iter().flatten().map(|&s| self.regs[s]));
                let phys = self.next_phys;
                self.next_phys += 1;
                self.live.insert(phys);
                self.free = self
                    .free
                    .checked_sub(1)
                    .ok_or("allocation from an empty pool")?;
                let prev = self.map[dest];
                self.map[dest] = phys;
                self.regs[dest] = value;
                (Some(phys), Some(prev), value)
            }
            Op::Store { src, .. } => (None, None, self.regs[src]),
            Op::Branch { src } => {
                // Unresolved branches checkpoint; a branch that already took
                // its one misprediction re-dispatches resolved (confident).
                if self.mispredicted >> pc & 1 == 0 {
                    self.ckpts.push(Checkpoint {
                        pc,
                        branch_seq: self.next_seq,
                        inst_len: self.insts.len(),
                        map: self.map.clone(),
                        regs: self.regs.clone(),
                        next_phys: self.next_phys,
                    });
                }
                (None, None, self.regs[src])
            }
        };
        self.insts.push(CprFlight {
            pc,
            seq: self.next_seq,
            dest,
            prev,
            done: false,
            value,
        });
        self.next_seq += 1;
        self.next_pc += 1;
        Ok(())
    }

    fn apply_complete(&mut self, seq: u64) -> Result<(), String> {
        let flight = self
            .insts
            .iter_mut()
            .find(|i| i.seq == seq)
            .ok_or_else(|| format!("complete of unknown seq {seq}"))?;
        if flight.done {
            return Err(format!("double completion of seq {seq}"));
        }
        flight.done = true;
        Ok(())
    }

    fn apply_mispredict(&mut self, seq: u64) -> Result<(), String> {
        let k = self
            .ckpts
            .iter()
            .position(|c| c.branch_seq == seq)
            .ok_or_else(|| format!("mispredict of seq {seq} without a checkpoint"))?;
        let ckpt = self.ckpts[k].clone();
        self.mispredicted |= 1 << ckpt.pc;

        // The imprecise CPR rollback: every register allocated past the
        // checkpoint — across *all* younger regions — returns to the pool.
        let region_end = self
            .ckpts
            .get(k + 1)
            .map_or(self.insts.len(), |c| c.inst_len);
        for (idx, flight) in self.insts.iter().enumerate().skip(ckpt.inst_len) {
            let Some(phys) = flight.dest else { continue };
            #[cfg(msp_check_mutation)]
            if msp_state::mutation::is_active("leak-cpr-checkpoint") && idx < region_end {
                // Seeded defect: the rollback forgets to return the rolled-
                // back checkpoint's own region to the counted pool.
                continue;
            }
            let _ = (idx, region_end);
            if !self.live.remove(&phys) {
                return Err(format!("rollback freed unallocated register {phys}"));
            }
            self.free += 1;
        }
        self.map = ckpt.map.clone();
        self.regs = ckpt.regs.clone();
        self.next_phys = ckpt.next_phys;
        self.insts.truncate(ckpt.inst_len);
        self.ckpts.truncate(k);
        self.next_pc = ckpt.pc;
        self.next_seq = ckpt.branch_seq;
        Ok(())
    }

    /// Reference interpreter over the surviving history.
    fn reference_replay(&self) -> (Vec<u64>, Vec<u64>, BTreeMap<u64, u64>) {
        let mut regs: Vec<u64> = (0..self.config.arch_regs).map(initial_value).collect();
        let mut mem = BTreeMap::new();
        let mut expected = Vec::with_capacity(self.insts.len());
        for flight in &self.insts {
            let value = match self.config.program[flight.pc] {
                Op::Alu { dest, srcs } => {
                    let v = mix(flight.pc, srcs.iter().flatten().map(|&s| regs[s]));
                    regs[dest] = v;
                    v
                }
                Op::Store { addr, src } => {
                    mem.insert(addr, regs[src]);
                    regs[src]
                }
                Op::Branch { src } => regs[src],
            };
            expected.push(value);
        }
        (expected, regs, mem)
    }

    fn check_invariants(&self) -> Result<(), String> {
        // Counted-pool accounting: allocated + free must always equal the
        // pool, and the allocated set must be exactly the committed mappings
        // plus every uncommitted allocation.
        if self.live.len() + self.free != self.config.total_regs {
            return Err(format!(
                "pool accounting broken: {} live + {} free != {}",
                self.live.len(),
                self.free,
                self.config.total_regs
            ));
        }
        let mut expected: BTreeSet<u64> = (0..self.config.arch_regs as u64).collect();
        let mut cmap: Vec<u64> = (0..self.config.arch_regs as u64).collect();
        for flight in &self.insts[..self.committed_upto] {
            if let (Some(phys), Op::Alu { dest, .. }) =
                (flight.dest, self.config.program[flight.pc])
            {
                expected.remove(&cmap[dest]);
                cmap[dest] = phys;
                expected.insert(phys);
            }
        }
        for flight in &self.insts[self.committed_upto..] {
            if let Some(phys) = flight.dest {
                expected.insert(phys);
            }
        }
        if self.live != expected {
            let leaked: Vec<u64> = self.live.difference(&expected).copied().collect();
            let lost: Vec<u64> = expected.difference(&self.live).copied().collect();
            return Err(format!(
                "counted pool diverged (leaked {leaked:?}, lost {lost:?})"
            ));
        }
        for (arch, &phys) in self.map.iter().enumerate() {
            if !self.live.contains(&phys) {
                return Err(format!("r{arch} maps to freed register {phys}"));
            }
        }

        // Value correctness against the reference interpreter.
        let (expected_values, regs, _) = self.reference_replay();
        for (flight, want) in self.insts.iter().zip(&expected_values) {
            if flight.value != *want {
                return Err(format!(
                    "seq {} (pc {}) carries value {:#x}, reference says {want:#x}",
                    flight.seq, flight.pc, flight.value
                ));
            }
        }
        if self.regs != regs {
            return Err(format!(
                "speculative register values {:x?} diverged from reference {regs:x?} \
                 — a rollback restored the wrong snapshot",
                self.regs
            ));
        }

        // Committed memory equals the committed prefix's stores.
        let mut mem = BTreeMap::new();
        for flight in &self.insts[..self.committed_upto] {
            if let Op::Store { addr, .. } = self.config.program[flight.pc] {
                mem.insert(addr, flight.value);
            }
        }
        if self.committed_mem != mem {
            return Err(format!(
                "committed memory {:?} diverged from the committed prefix {mem:?}",
                self.committed_mem
            ));
        }
        Ok(())
    }
}

impl Model for CprMachine {
    type Event = MspEvent;

    fn enabled_events(&self) -> Vec<MspEvent> {
        let mut events = Vec::new();
        if let Some(&op) = self.config.program.get(self.next_pc) {
            let enabled = match op {
                Op::Alu { .. } => self.free > 0,
                Op::Store { .. } => true,
                Op::Branch { .. } => {
                    self.mispredicted >> self.next_pc & 1 == 1
                        || self.ckpts.len() < self.config.max_ckpts
                }
            };
            if enabled {
                events.push(MspEvent::Dispatch);
            }
        }
        for flight in &self.insts {
            if !flight.done {
                events.push(MspEvent::Complete { seq: flight.seq });
            }
        }
        for ckpt in &self.ckpts {
            if !self.insts[ckpt.inst_len].done {
                events.push(MspEvent::Mispredict {
                    seq: ckpt.branch_seq,
                });
            }
        }
        if self.commit_step_enabled() {
            events.push(MspEvent::Commit);
        }
        events
    }

    fn apply(&mut self, event: &MspEvent) -> Result<(), String> {
        match *event {
            MspEvent::Dispatch => self.apply_dispatch()?,
            MspEvent::Complete { seq } => self.apply_complete(seq)?,
            MspEvent::Mispredict { seq } => self.apply_mispredict(seq)?,
            MspEvent::Commit => self.apply_commit()?,
            MspEvent::Issue { .. } => return Err("CPR has no issue event".into()),
        }
        self.check_invariants()
    }

    fn fingerprint(&self) -> u64 {
        let mut hasher = WordHasher::default();
        self.free.hash(&mut hasher);
        self.next_phys.hash(&mut hasher);
        self.live.hash(&mut hasher);
        self.map.hash(&mut hasher);
        self.regs.hash(&mut hasher);
        self.next_pc.hash(&mut hasher);
        self.next_seq.hash(&mut hasher);
        self.committed_upto.hash(&mut hasher);
        self.committed_mem.hash(&mut hasher);
        self.mispredicted.hash(&mut hasher);
        self.ckpts.len().hash(&mut hasher);
        for c in &self.ckpts {
            (c.pc, c.branch_seq, c.inst_len, c.next_phys).hash(&mut hasher);
            c.map.hash(&mut hasher);
            c.regs.hash(&mut hasher);
        }
        self.insts.len().hash(&mut hasher);
        for f in &self.insts {
            (f.pc, f.seq, f.dest, f.prev, f.done, f.value).hash(&mut hasher);
        }
        hasher.finish()
    }

    fn check_terminal(&self) -> Result<(), String> {
        if self.next_pc != self.config.program.len() {
            return Err(format!("terminal with undispatched pc {}", self.next_pc));
        }
        if let Some(f) = self.insts.iter().find(|f| !f.done) {
            return Err(format!("terminal with unfinished seq {}", f.seq));
        }
        if !self.ckpts.is_empty() {
            return Err(format!(
                "terminal with {} unreclaimed checkpoints",
                self.ckpts.len()
            ));
        }
        if self.committed_upto != self.insts.len() {
            return Err(format!(
                "commit quiesced at {} of {} instructions",
                self.committed_upto,
                self.insts.len()
            ));
        }
        // At quiescence only the final architectural mappings may hold
        // registers: everything else must have returned to the pool.
        let mappings: BTreeSet<u64> = self.map.iter().copied().collect();
        if self.live != mappings {
            return Err(format!(
                "pool quiesced with leaked registers: live {:?}, mappings {mappings:?}",
                self.live
            ));
        }
        let (_, _, mem) = self.reference_replay();
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
            "pc={} in-flight={} free={} ckpts={} committed={}",
            self.next_pc,
            self.insts.iter().filter(|f| !f.done).count(),
            self.free,
            self.ckpts.len(),
            self.committed_upto,
        )
    }
}
