//! The cycle-level out-of-order timing simulator.
//!
//! One [`Simulator`] models one machine (Baseline, CPR or MSP) running one
//! program. The per-cycle loop processes, in order: writeback (and branch
//! recovery), commit/retire, issue, rename/dispatch and fetch. Correct-path
//! instructions carry their functional results from the [`Oracle`];
//! wrong-path instructions are fetched from the static program image beyond
//! the mispredicted branch and executed with synthetic operands, so the
//! wrong-path work of Fig. 9 is measured rather than estimated.

use crate::config::{MachineKind, SimConfig};
use crate::oracle::{Oracle, TraceSource};
use crate::stats::SimStats;
use msp_branch::{build_predictor, Btb, ConfidenceEstimator, DirectionPredictor, ReturnStack};
use msp_isa::{ArchReg, ExecutedInst, FuClass, Program, RegClass};
use msp_mem::{
    HierarchicalStoreQueue, LoadQueue, MemoryHierarchy, SimpleStoreQueue, StoreQueue,
    StoreQueueEntry,
};
use msp_state::{MspStateManager, PhysReg, PortArbiter, RenameRequest, StateId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Label of the simulated machine (e.g. `"16-SP"`).
    pub machine: String,
    /// The direction predictor used.
    pub predictor: String,
    /// Whether the run was cut short by the no-forward-progress watchdog
    /// rather than reaching its instruction budget or the end of the
    /// program. A truncated result is **not** a valid datapoint: the
    /// simulated machine wedged.
    pub truncated_by_watchdog: bool,
    /// All collected statistics.
    pub stats: SimStats,
}

impl SimResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Execution status of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Dispatched, waiting in the issue queue.
    Waiting,
    /// Issued to a functional unit, executing.
    Executing,
    /// Execution finished.
    Done,
}

/// One in-flight dynamic instruction.
///
/// The struct is fully inline (no heap indirection): the at-most-two MSP
/// source use bits live in a fixed array, so pushing, squashing and
/// retiring window entries never allocates.
#[derive(Debug, Clone)]
struct InFlight {
    seq: u64,
    oracle_idx: Option<u64>,
    rec: ExecutedInst,
    status: Status,
    complete_cycle: u64,
    deps: [Option<u64>; 2],
    /// Sticky operand-readiness flag: once every producer in `deps` has
    /// completed this can never revert (producers are older than their
    /// consumers, so any squash that removed a producer removed this
    /// instruction too), letting the issue stage skip re-deriving readiness
    /// for instructions it already proved ready.
    deps_ready: bool,
    /// Number of producers this instruction is *sleeping* on (it is absent
    /// from the waiting list and registered in each producer's `waiters`).
    /// Zero for instructions in the waiting list.
    deps_pending: u8,
    /// Seqs of dispatched consumers sleeping on this instruction's
    /// completion, woken (re-inserted into the waiting list) the moment
    /// writeback marks it `Done`. Consumers beyond the inline capacity
    /// simply stay in the waiting list and poll, as all of them used to.
    waiters: [u64; MAX_WAITERS],
    waiter_count: u8,
    iq_slot: Option<usize>,
    dest: Option<ArchReg>,
    /// Misprediction discovered at fetch time, resolved at completion.
    mispredicted: bool,
    // MSP bookkeeping.
    msp_state: Option<StateId>,
    msp_dest: Option<PhysReg>,
    msp_source_bits: [Option<(PhysReg, usize)>; 2],
    msp_anchor_bit: Option<(PhysReg, usize)>,
    // CPR aggressive-release bookkeeping.
    superseded_by: Option<u64>,
    pending_consumers: u32,
    reg_released: bool,
}

impl InFlight {
    /// The distinct register banks this MSP instruction reads, one per
    /// source operand. Two operands in one bank are necessarily the same
    /// physical register and read it once, so the bank's single read port
    /// suffices: the rule both read-port arbitration and the register-file
    /// read count follow.
    fn msp_read_banks(&self) -> [Option<usize>; 2] {
        let first = self.msp_source_bits[0].map(|(phys, _)| phys.bank());
        let second = self.msp_source_bits[1]
            .map(|(phys, _)| phys.bank())
            .filter(|bank| Some(*bank) != first);
        [first, second]
    }
}

/// Inline per-producer wakeup-list capacity (see `InFlight::waiters`).
const MAX_WAITERS: usize = 4;

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

/// An instruction waiting in the front end between fetch and rename.
#[derive(Debug, Clone)]
struct Fetched {
    oracle_idx: Option<u64>,
    rec: ExecutedInst,
    ready_cycle: u64,
    mispredicted: bool,
    low_confidence: bool,
}

/// A CPR checkpoint: a rollback point before the instruction at
/// `oracle_idx`, created when the instruction with `start_seq` dispatched.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    oracle_idx: u64,
    start_seq: u64,
}

/// The microarchitectural **warm** state of a machine: the structures whose
/// contents persist across instructions but are not architectural — caches,
/// direction predictor, confidence estimator, BTB and return stack.
///
/// Sampled simulation separates state into three tiers (see DESIGN.md):
/// *architectural* state lives in the trace's
/// [`ArchState`](msp_isa::ArchState) checkpoints,
/// *warm* state lives here and is rebuilt by functionally absorbing
/// committed records ([`WarmState::absorb`]), and *occupancy* state (the
/// in-flight window, queues, rename backend) always starts empty at a
/// resume. A `WarmState` can be absorbed forward along a trace and cloned
/// at interval boundaries, which is how `Lab::run` gives every sampled
/// interval the warm history of the entire prefix at a functional — not
/// detailed — price.
pub struct WarmState {
    memory: MemoryHierarchy,
    predictor: Box<dyn DirectionPredictor>,
    confidence: ConfidenceEstimator,
    btb: Btb,
    ras: ReturnStack,
    /// I-cache line of the last absorbed fetch: consecutive records on one
    /// line touch the I-cache once (the absorb hot path — straight-line
    /// code would otherwise pay a cache lookup per instruction for lines
    /// that are resident throughout).
    last_fetch_line: u64,
}

impl Clone for WarmState {
    fn clone(&self) -> Self {
        WarmState {
            memory: self.memory.clone(),
            predictor: self.predictor.clone_box(),
            confidence: self.confidence.clone(),
            btb: self.btb.clone(),
            ras: self.ras.clone(),
            last_fetch_line: self.last_fetch_line,
        }
    }
}

impl std::fmt::Debug for WarmState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmState")
            .field("predictor", &self.predictor.name())
            .finish_non_exhaustive()
    }
}

impl WarmState {
    /// Fresh warm structures for `config`, pre-warmed with the program's
    /// **static** working set: the text segment (I-side) and the per-PC
    /// wrong-path pseudo addresses of [`Simulator`]'s wrong-path model
    /// (D-side). Both are resident in any long-running machine; without the
    /// pre-warm, a resumed interval would take a memory-latency miss on
    /// every early misprediction and wedge its window on wrong-path loads.
    pub fn for_config(program: &Program, config: &SimConfig) -> WarmState {
        let mut warm = WarmState {
            memory: MemoryHierarchy::new(config.memory),
            predictor: build_predictor(config.predictor),
            confidence: ConfidenceEstimator::paper(),
            btb: Btb::default_config(),
            ras: ReturnStack::default(),
            last_fetch_line: u64::MAX,
        };
        for (pc, inst) in program.iter() {
            warm.memory.fetch_latency(pc);
            if inst.is_load() {
                warm.memory.load_latency(Simulator::wrong_path_address(pc));
            } else if inst.is_store() {
                warm.memory.store_commit(Simulator::wrong_path_address(pc));
            }
        }
        warm
    }

    /// Absorbs one committed record: touches the caches and trains the
    /// branch machinery exactly as correct-path fetch would
    /// (`Simulator::predict`), without any cycle accounting.
    pub fn absorb(&mut self, rec: &ExecutedInst) {
        let line = rec.pc / self.memory.config().il1.line_bytes as u64;
        if line != self.last_fetch_line {
            self.memory.fetch_latency(rec.pc);
            self.last_fetch_line = line;
        }
        if let Some(addr) = rec.mem_addr {
            if rec.inst.is_load() {
                self.memory.load_latency(addr);
            } else {
                self.memory.store_commit(addr);
            }
        }
        if rec.inst.is_conditional_branch() {
            let predicted = self.predictor.predict(rec.pc);
            self.predictor.update(rec.pc, rec.taken);
            self.confidence
                .update(rec.pc, predicted == rec.taken, rec.taken);
        } else if rec.inst.is_indirect() {
            if rec.inst.is_return() {
                if self.ras.pop().is_none() {
                    self.btb.lookup(rec.pc);
                }
            } else {
                self.btb.lookup(rec.pc);
            }
            self.btb.update(rec.pc, rec.next_pc);
        } else if rec.inst.is_call() {
            self.ras.push(rec.pc.wrapping_add(4));
        }
    }
}

/// Register-management backend state.
enum Backend {
    /// ROB baseline / CPR: counted register pools per class.
    Counted { int_free: usize, fp_free: usize },
    /// MSP: the full state manager plus the register-file port arbiter.
    Msp {
        manager: Box<MspStateManager>,
        arbiter: PortArbiter,
    },
}

/// The timing simulator for one machine and one program.
pub struct Simulator<'p> {
    config: SimConfig,
    oracle: Oracle<'p>,
    program: &'p Program,
    // Front end.
    predictor: Box<dyn DirectionPredictor>,
    confidence: ConfidenceEstimator,
    btb: Btb,
    ras: ReturnStack,
    fetch_queue: VecDeque<Fetched>,
    next_oracle_idx: u64,
    /// First oracle index of the measured region: 0 for a full run, the
    /// post-warm-up trace cursor for a [`Simulator::resume_from`] run. No
    /// fetched correct-path index is ever below it, so per-index bookkeeping
    /// (`executed_once`) is stored relative to it.
    oracle_origin: u64,
    wrong_path_pc: Option<u64>,
    fetch_stalled_until: u64,
    oracle_done: bool,
    // Back end.
    //
    // The window holds a *contiguous* run of sequence numbers (recoveries
    // rewind `next_seq` to the squash point), so locating an instruction is
    // a constant-time `seq - head_seq` offset instead of a binary search.
    window: VecDeque<InFlight>,
    /// Dispatched-but-not-issued sequence numbers the issue stage polls,
    /// oldest first. Always sorted: dispatch appends ascending seqs,
    /// squashes truncate a suffix, and wakeups insert at the seq's sorted
    /// position. Instructions sleeping on in-flight producers
    /// (`deps_pending > 0`) are *not* listed — writeback re-inserts them in
    /// the same cycle their last producer completes, which is exactly the
    /// cycle a poll would first have observed them ready.
    waiting: Vec<u64>,
    /// Pending completion events as `Reverse((complete_cycle, seq))`:
    /// writeback pops due events instead of scanning every executing
    /// instruction. Events whose instruction was squashed or rescheduled
    /// (write-port conflict) are dropped lazily when popped.
    completion_events: BinaryHeap<Reverse<(u64, u64)>>,
    /// CPR aggressive-release candidates: completed instructions with a
    /// younger same-register writer, waiting for their last consumer to
    /// issue. Replaces a full window scan per cycle.
    cpr_release_pending: Vec<u64>,
    /// Per-cycle scratch for the same-logical-register rename limit.
    rename_scratch: Vec<(ArchReg, usize)>,
    iq_free: Vec<usize>,
    iq_occupancy: usize,
    last_writer: [Option<u64>; msp_isa::NUM_LOGICAL_REGS],
    backend: Backend,
    checkpoints: VecDeque<Checkpoint>,
    insts_since_checkpoint: u64,
    memory: MemoryHierarchy,
    load_queue: LoadQueue,
    store_queue: Box<dyn StoreQueue>,
    // Progress tracking.
    cycle: u64,
    next_seq: u64,
    /// Every in-flight instruction with a sequence number below this is
    /// `Done`. The cursor only moves forward (completion is monotone; a
    /// recovery clamps it to the squash point before seqs are reassigned),
    /// so the CPR bulk-commit check resumes where it last stopped instead of
    /// rescanning the whole checkpoint interval every cycle.
    done_prefix_seq: u64,
    executed_once: Vec<bool>,
    stats: SimStats,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator for `program` with the given configuration and a
    /// private oracle: the functional model executes lazily inside this
    /// simulator alone.
    pub fn new(program: &'p Program, config: SimConfig) -> Self {
        Simulator::with_oracle(program, config, Oracle::new(program))
    }

    /// Creates a simulator whose correct-path instruction stream is served
    /// from an immutable trace of `program` — a shared in-memory
    /// `Arc<Trace>`, a streaming `TraceCursor` over an on-disk trace file,
    /// or any [`TraceSource`] (see [`Oracle::with_trace`]). Any number of
    /// simulators — across machine kinds, predictors and sweep threads —
    /// can share one `Arc<Trace>`; the timing behaviour and statistics are
    /// bit-identical to a private oracle (and across source tiers) because
    /// the records themselves are identical.
    pub fn with_trace(
        program: &'p Program,
        config: SimConfig,
        trace: impl Into<TraceSource>,
    ) -> Self {
        Simulator::with_oracle(program, config, Oracle::with_trace(program, trace))
    }

    /// Creates a simulator that resumes mid-trace from an architectural
    /// checkpoint (see [`msp_isa::Trace::checkpoint_at`]) — the detailed-simulation
    /// unit of SMARTS-style sampled simulation.
    ///
    /// The checkpoint seeds the full architectural state (register file,
    /// data memory, PC) at trace index `checkpoint_index`. From it, up to
    /// `warmup_len` committed records are absorbed into a fresh
    /// [`WarmState`] ([`WarmState::absorb`]: the cache hierarchy, the
    /// direction predictor, the confidence estimator, the BTB and the return
    /// stack train exactly as correct-path fetch would train them, without
    /// cycle accounting). The records come from the simulator's own oracle,
    /// which extends functionally past the trace's end. Measurement starts
    /// at the first un-warmed instruction: the result equals
    /// [`Simulator::resume_warmed`] at `checkpoint_index + warmup_len` with
    /// those records absorbed. [`Simulator::measurement_start`] returns that
    /// index (less if the program ends inside the warm-up), and
    /// [`Simulator::run`] counts committed instructions from there.
    ///
    /// Microarchitectural *occupancy* (in-flight window, issue queue,
    /// load/store queues, MSP state manager, CPR checkpoints) starts empty:
    /// it is re-established within the first few hundred measured
    /// instructions and is the residual cold-start bias the warm-up window
    /// does not cover. `resume_from(trace, 0, 0)` is bit-identical to
    /// [`Simulator::with_trace`].
    ///
    /// # Panics
    ///
    /// Panics if the trace records no checkpoint at `checkpoint_index`.
    pub fn resume_from(
        program: &'p Program,
        config: SimConfig,
        trace: impl Into<TraceSource>,
        checkpoint_index: u64,
        warmup_len: u64,
    ) -> Self {
        let mut trace = trace.into();
        Self::checkpoint_or_panic(program, &mut trace, checkpoint_index, warmup_len);
        let mut oracle = Oracle::with_trace(program, trace);
        if warmup_len == 0 {
            // No warm-up: a cold machine, bit-identical to `with_trace` when
            // the cursor is 0.
            return Self::resume_at(program, config, oracle, checkpoint_index);
        }
        let mut warm = WarmState::for_config(program, &config);
        let mut start = checkpoint_index;
        while start - checkpoint_index < warmup_len {
            let Some(rec) = oracle.get(start) else {
                break;
            };
            warm.absorb(rec);
            start += 1;
        }
        let mut sim = Self::resume_at(program, config, oracle, start);
        sim.install_warm(warm);
        sim
    }

    /// [`Simulator::resume_from`] with an externally built [`WarmState`]
    /// (typically a snapshot of a cumulative warm trajectory over the whole
    /// trace prefix — the `Lab`'s sampled execution path). Measurement
    /// starts exactly at `checkpoint_index`.
    ///
    /// # Panics
    ///
    /// Panics if the trace records no checkpoint at `checkpoint_index`.
    pub fn resume_warmed(
        program: &'p Program,
        config: SimConfig,
        trace: impl Into<TraceSource>,
        checkpoint_index: u64,
        warm: WarmState,
    ) -> Self {
        let mut trace = trace.into();
        Self::checkpoint_or_panic(program, &mut trace, checkpoint_index, 0);
        let oracle = Oracle::with_trace(program, trace);
        let mut sim = Self::resume_at(program, config, oracle, checkpoint_index);
        sim.install_warm(warm);
        sim
    }

    /// Panics unless the trace records a checkpoint at `checkpoint_index`.
    /// In debug builds the checkpoint invariant is re-proved on **every**
    /// resume (`resume_from` and `resume_warmed` alike): functional
    /// execution from the checkpoint must reproduce the trace's own records
    /// bit-identically over the longer of 512 records and the warm-up
    /// window, as far as the trace reaches.
    fn checkpoint_or_panic(
        program: &Program,
        trace: &mut TraceSource,
        checkpoint_index: u64,
        warmup_len: u64,
    ) {
        let checkpoint = trace.checkpoint_at(checkpoint_index).unwrap_or_else(|| {
            panic!(
                "resume_from requires an architectural checkpoint at index \
                 {checkpoint_index} (trace interval: {})",
                trace.checkpoint_interval()
            )
        });
        debug_assert_eq!(
            checkpoint.retired(),
            checkpoint_index,
            "a checkpoint's position is its retired-instruction count"
        );
        #[cfg(debug_assertions)]
        {
            const VALIDATION_WINDOW: u64 = 512;
            let end = checkpoint_index.saturating_add(warmup_len.max(VALIDATION_WINDOW));
            let mut state = checkpoint;
            for index in checkpoint_index..end {
                let Some(&expected) = trace.get(program, index) else {
                    break;
                };
                let rec = msp_isa::execute_step(&mut state, program)
                    .expect("checkpointed execution reproduces the trace");
                debug_assert_eq!(expected, rec, "checkpoint-replay record {index}");
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = (program, warmup_len);
    }

    /// Positions a fresh simulator on `oracle` so measurement starts at
    /// trace index `start`.
    fn resume_at(program: &'p Program, config: SimConfig, oracle: Oracle<'p>, start: u64) -> Self {
        let mut sim = Simulator::with_oracle(program, config, oracle);
        sim.next_oracle_idx = start;
        sim.oracle_origin = start;
        // CPR's initial rollback point must be the measurement start, not
        // trace index 0: an early recovery with no younger checkpoint
        // re-fetches from here, never from the skipped prefix.
        if let Some(chk) = sim.checkpoints.front_mut() {
            chk.oracle_idx = start;
        }
        sim
    }

    fn install_warm(&mut self, warm: WarmState) {
        self.memory = warm.memory;
        self.predictor = warm.predictor;
        self.confidence = warm.confidence;
        self.btb = warm.btb;
        self.ras = warm.ras;
    }

    /// First trace index of the measured region (0 for a non-resumed run).
    pub fn measurement_start(&self) -> u64 {
        self.oracle_origin
    }

    fn with_oracle(program: &'p Program, config: SimConfig, oracle: Oracle<'p>) -> Self {
        let backend = match config.machine {
            MachineKind::Baseline | MachineKind::Cpr { .. } => Backend::Counted {
                int_free: config
                    .resources
                    .regs_per_class
                    .saturating_sub(msp_isa::NUM_INT_REGS),
                fp_free: config
                    .resources
                    .regs_per_class
                    .saturating_sub(msp_isa::NUM_FP_REGS),
            },
            MachineKind::Msp { .. } | MachineKind::IdealMsp => Backend::Msp {
                manager: Box::new(MspStateManager::new(config.msp_config())),
                arbiter: PortArbiter::new(msp_isa::NUM_LOGICAL_REGS),
            },
        };
        let store_queue: Box<dyn StoreQueue> = if config.resources.sq_l2_size == 0 {
            Box::new(SimpleStoreQueue::new(config.resources.sq_l1_size))
        } else {
            Box::new(HierarchicalStoreQueue::new(
                config.resources.sq_l1_size,
                config.resources.sq_l2_size,
                config.resources.sq_l2_scan_latency,
            ))
        };
        let mut checkpoints = VecDeque::new();
        if matches!(config.machine, MachineKind::Cpr { .. }) {
            checkpoints.push_back(Checkpoint {
                oracle_idx: 0,
                start_seq: 0,
            });
        }
        Simulator {
            oracle,
            program,
            predictor: build_predictor(config.predictor),
            confidence: ConfidenceEstimator::paper(),
            btb: Btb::default_config(),
            ras: ReturnStack::default(),
            fetch_queue: VecDeque::new(),
            next_oracle_idx: 0,
            oracle_origin: 0,
            wrong_path_pc: None,
            fetch_stalled_until: 0,
            oracle_done: false,
            window: VecDeque::new(),
            waiting: Vec::new(),
            completion_events: BinaryHeap::new(),
            cpr_release_pending: Vec::new(),
            rename_scratch: Vec::new(),
            iq_free: (0..config.resources.iq_size).rev().collect(),
            iq_occupancy: 0,
            last_writer: [None; msp_isa::NUM_LOGICAL_REGS],
            backend,
            checkpoints,
            insts_since_checkpoint: 0,
            memory: MemoryHierarchy::new(config.memory),
            load_queue: LoadQueue::new(config.resources.lq_size),
            store_queue,
            cycle: 0,
            next_seq: 0,
            done_prefix_seq: 0,
            executed_once: Vec::new(),
            stats: SimStats::default(),
            config,
        }
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Runs the simulation until `max_instructions` correct-path instructions
    /// have committed, the program finishes, or progress stops (watchdog).
    pub fn run(&mut self, max_instructions: u64) -> SimResult {
        let mut last_committed = 0;
        let mut idle_cycles = 0u64;
        let mut truncated = false;
        while self.stats.committed < max_instructions {
            self.step_cycle();
            if self.stats.committed == last_committed {
                idle_cycles += 1;
                if idle_cycles > 20_000 {
                    // Watchdog: no forward progress (should not happen). The
                    // break is counted so a wedged configuration cannot
                    // masquerade as a valid datapoint.
                    self.stats.watchdog_breaks += 1;
                    truncated = true;
                    break;
                }
            } else {
                idle_cycles = 0;
                last_committed = self.stats.committed;
            }
            if self.oracle_done && self.window.is_empty() && self.fetch_queue.is_empty() {
                break;
            }
        }
        SimResult {
            machine: self.config.machine.label(),
            predictor: self.config.predictor.label().to_string(),
            truncated_by_watchdog: truncated,
            stats: self.stats.clone(),
        }
    }

    /// Advances the machine by one clock cycle.
    pub fn step_cycle(&mut self) {
        self.cycle += 1;
        self.stats.cycles += 1;
        if let Backend::Msp { arbiter, .. } = &mut self.backend {
            arbiter.begin_cycle();
        }
        self.writeback_stage();
        self.commit_stage();
        self.issue_stage();
        self.dispatch_stage();
        self.fetch_stage();
    }

    // ----------------------------------------------------------------- util

    /// Locates an in-flight instruction in O(1): the window is a contiguous
    /// run of sequence numbers, so the index is the offset from the head.
    fn window_index(&self, seq: u64) -> Option<usize> {
        let head = self.window.front()?.seq;
        let idx = seq.checked_sub(head)? as usize;
        if idx < self.window.len() {
            debug_assert_eq!(self.window[idx].seq, seq, "window must stay seq-contiguous");
            Some(idx)
        } else {
            None
        }
    }

    /// Wakes every consumer sleeping on the (just completed) instruction at
    /// window index `idx`: their pending-producer count drops and, when it
    /// reaches zero, they re-enter the waiting list at their sorted
    /// position.
    fn wake_waiters(&mut self, idx: usize) {
        let count = self.window[idx].waiter_count as usize;
        if count == 0 {
            return;
        }
        self.stats.activity.reliq_wakeups += count as u64;
        let waiters = self.window[idx].waiters;
        self.window[idx].waiter_count = 0;
        for &waiter in &waiters[..count] {
            let Some(widx) = self.window_index(waiter) else {
                debug_assert!(false, "sleeping consumers outlive their producers");
                continue;
            };
            let inst = &mut self.window[widx];
            debug_assert!(inst.deps_pending > 0 && inst.status == Status::Waiting);
            inst.deps_pending -= 1;
            if inst.deps_pending == 0 {
                inst.deps_ready = true;
                let pos = self.waiting.partition_point(|&s| s < waiter);
                self.waiting.insert(pos, waiter);
            }
        }
    }

    fn is_seq_done(&self, seq: u64) -> bool {
        match self.window_index(seq) {
            Some(idx) => self.window[idx].status == Status::Done,
            // Not in the window any more: it committed (or was squashed, in
            // which case no surviving instruction depends on it).
            None => true,
        }
    }

    fn wrong_path_address(pc: u64) -> u64 {
        // Deterministic pseudo effective address for wrong-path memory
        // instructions: stays in the data region, 8-byte aligned.
        0x10_0000 + (pc.wrapping_mul(0x9e37_79b9_7f4a_7c15) & 0xf_fff8)
    }

    fn free_counted_register(&mut self, class: RegClass) {
        let limit = self
            .config
            .resources
            .regs_per_class
            .saturating_sub(msp_isa::NUM_INT_REGS);
        if let Backend::Counted { int_free, fp_free } = &mut self.backend {
            match class {
                RegClass::Int => *int_free = (*int_free + 1).min(limit),
                RegClass::Fp => *fp_free = (*fp_free + 1).min(limit),
            }
        }
    }

    // ------------------------------------------------------------ writeback

    fn writeback_stage(&mut self) {
        // Pop the completion events due this cycle. The heap orders by
        // (cycle, seq), and no event survives past its cycle (a write-port
        // conflict re-schedules to the next cycle), so completions are
        // processed oldest-seq first exactly as a full sort would.
        let mut recovery: Option<u64> = None;
        while let Some(&Reverse((event_cycle, seq))) = self.completion_events.peek() {
            if event_cycle > self.cycle {
                break;
            }
            self.completion_events.pop();
            // Lazy deletion: squashed instructions and stale (rescheduled)
            // events simply fall through.
            let Some(idx) = self.window_index(seq) else {
                continue;
            };
            if self.window[idx].status != Status::Executing
                || self.window[idx].complete_cycle != event_cycle
            {
                continue;
            }
            // MSP write-port arbitration: a completion may be delayed a cycle
            // when its bank's single write port is already taken.
            if self.config.arbitration {
                if let (Some(dest), Backend::Msp { arbiter, .. }) =
                    (self.window[idx].msp_dest, &mut self.backend)
                {
                    if !arbiter.request_write(dest.bank()) {
                        self.stats.port_conflicts += 1;
                        self.window[idx].complete_cycle = self.cycle + 1;
                        self.completion_events.push(Reverse((self.cycle + 1, seq)));
                        continue;
                    }
                }
            }
            self.window[idx].status = Status::Done;
            self.wake_waiters(idx);
            let (msp_dest, anchor, oracle_idx, mispredicted, is_load, superseded, dest) = {
                let i = &self.window[idx];
                (
                    i.msp_dest,
                    i.msp_anchor_bit,
                    i.oracle_idx,
                    i.mispredicted,
                    i.rec.inst.is_load(),
                    i.superseded_by.is_some(),
                    i.dest,
                )
            };
            // Register-file write accounting: the produced value drains to
            // its bank this cycle (post-grant on arbitrated machines). MSP
            // writes go to the renamed physical bank; Baseline/CPR writes
            // are attributed to the logical register's flat index.
            if let Some(phys) = msp_dest {
                self.stats.activity.rf_writes[phys.bank()] += 1;
            } else if let (Backend::Counted { .. }, Some(dest)) = (&self.backend, dest) {
                self.stats.activity.rf_writes[dest.flat_index()] += 1;
            }
            // Backend-specific completion bookkeeping.
            if let Backend::Msp { manager, .. } = &mut self.backend {
                if let Some(phys) = msp_dest {
                    manager.mark_ready(phys);
                } else if let Some((phys, slot)) = anchor {
                    manager.clear_use(phys, slot);
                }
            }
            // A completed instruction that already has a younger writer of
            // its destination becomes a CPR release candidate.
            if superseded && matches!(self.config.machine, MachineKind::Cpr { .. }) {
                self.cpr_release_pending.push(seq);
            }
            // A non-allocating instruction keeps its IQ slot for anchor
            // tracking until completion; release it now.
            if let Some(slot) = self.window[idx].iq_slot.take() {
                self.iq_free.push(slot);
            }
            if is_load {
                self.stats.activity.lq_searches += 1;
                self.load_queue.remove(seq);
            }
            // Branch resolution: the oldest mispredicted branch on the
            // correct path triggers a recovery.
            if mispredicted && oracle_idx.is_some() && recovery.is_none() {
                recovery = Some(seq);
            }
        }
        self.release_cpr_registers();
        if let Some(branch_seq) = recovery {
            self.recover_from(branch_seq);
        }
    }

    /// CPR aggressive register release (reference-counter semantics): an
    /// instruction's destination register returns to the pool once the value
    /// has been produced, all its known consumers have issued, and a younger
    /// correct-path instruction writing the same logical register exists.
    ///
    /// Candidates enter `cpr_release_pending` the moment they are both
    /// completed and superseded (at writeback or at the superseding
    /// dispatch), so only the handful of instructions still waiting on a
    /// consumer are rescanned each cycle — not the whole window.
    fn release_cpr_registers(&mut self) {
        if self.cpr_release_pending.is_empty() {
            return;
        }
        let mut kept = 0;
        for i in 0..self.cpr_release_pending.len() {
            let seq = self.cpr_release_pending[i];
            // Dropped from the window (committed or squashed): the commit or
            // recovery path owns the register now.
            let Some(idx) = self.window_index(seq) else {
                continue;
            };
            let inst = &self.window[idx];
            if inst.reg_released {
                continue;
            }
            if inst.pending_consumers > 0 {
                self.cpr_release_pending[kept] = seq;
                kept += 1;
                continue;
            }
            if let Some(dest) = inst.dest {
                self.window[idx].reg_released = true;
                self.free_counted_register(dest.class());
            }
        }
        self.cpr_release_pending.truncate(kept);
    }

    // -------------------------------------------------------------- recover

    fn recover_from(&mut self, branch_seq: u64) {
        let branch_idx = self
            .window_index(branch_seq)
            .expect("recovering branch is in flight");
        let branch_oracle = self.window[branch_idx]
            .oracle_idx
            .expect("only correct-path branches trigger recovery");
        self.stats.recoveries += 1;

        // Determine the squash point and the fetch restart point.
        let (squash_from_seq, restart_oracle_idx) = match self.config.machine {
            MachineKind::Cpr { .. } => {
                // Roll back to the youngest checkpoint at or before the
                // faulting branch; everything younger — including correctly
                // executed correct-path work — is squashed and re-fetched.
                while self.checkpoints.len() > 1
                    && self
                        .checkpoints
                        .back()
                        .map(|c| c.oracle_idx > branch_oracle)
                        .unwrap_or(false)
                {
                    self.checkpoints.pop_back();
                    self.stats.activity.checkpoint_releases += 1;
                }
                let chk = *self
                    .checkpoints
                    .back()
                    .expect("CPR always keeps at least one checkpoint");
                if chk.oracle_idx < branch_oracle {
                    self.stats.imprecise_recoveries += 1;
                }
                self.insts_since_checkpoint = 0;
                (chk.start_seq, chk.oracle_idx)
            }
            // Baseline and MSP recover precisely: only instructions younger
            // than the branch (the wrong path) are squashed.
            _ => (branch_seq + 1, branch_oracle + 1),
        };

        // MSP: the precise Recovery StateId is the state of the branch.
        let msp_recovery_state = self.window[branch_idx].msp_state;

        // Squash every in-flight instruction at or beyond the squash point
        // (youngest first), processing each entry as it is popped.
        while self
            .window
            .back()
            .map(|i| i.seq >= squash_from_seq)
            .unwrap_or(false)
        {
            let inst = self.window.pop_back().expect("back checked above");
            if inst.status == Status::Waiting {
                self.iq_occupancy -= 1;
            }
            if let Some(slot) = inst.iq_slot {
                self.iq_free.push(slot);
                if let Backend::Msp { manager, .. } = &mut self.backend {
                    manager.clear_iq_slot(slot);
                }
            }
            if let Some(dest) = inst.dest {
                if !inst.reg_released && !matches!(self.backend, Backend::Msp { .. }) {
                    self.free_counted_register(dest.class());
                }
            }
        }
        // Rewind the sequence counter so the window stays contiguous: the
        // squashed numbers are reassigned to the re-fetched instructions.
        // Every structure keyed by a squashed seq is purged here so a stale
        // entry can never alias a reassigned number.
        self.next_seq = squash_from_seq;
        self.done_prefix_seq = self.done_prefix_seq.min(squash_from_seq);
        self.waiting
            .truncate(self.waiting.partition_point(|seq| *seq < squash_from_seq));
        self.completion_events
            .retain(|&Reverse((_, seq))| seq < squash_from_seq);
        self.cpr_release_pending
            .retain(|seq| *seq < squash_from_seq);
        let youngest_surviving_seq = squash_from_seq.saturating_sub(1);
        self.load_queue.squash_younger(youngest_surviving_seq);
        self.store_queue.squash_younger(youngest_surviving_seq);

        // Backend-specific state restoration.
        if let Backend::Msp { manager, .. } = &mut self.backend {
            let state = match self.config.machine {
                MachineKind::Msp { .. } | MachineKind::IdealMsp => {
                    msp_recovery_state.expect("MSP instructions always carry a state")
                }
                _ => unreachable!("MSP backend on a non-MSP machine"),
            };
            manager.recover(state, |_| {});
        }

        // Rebuild the logical-register writer map from surviving
        // instructions (generic dependence tracking), and drop waiter
        // registrations of squashed consumers — their seqs are about to be
        // reassigned and must never receive a wakeup meant for a dead
        // instruction.
        self.last_writer = [None; msp_isa::NUM_LOGICAL_REGS];
        for inst in self.window.iter_mut() {
            if let Some(dest) = inst.dest {
                self.last_writer[dest.flat_index()] = Some(inst.seq);
            }
            let mut kept = 0;
            for i in 0..inst.waiter_count as usize {
                if inst.waiters[i] < squash_from_seq {
                    inst.waiters[kept] = inst.waiters[i];
                    kept += 1;
                }
            }
            inst.waiter_count = kept as u8;
        }

        // Redirect the front end.
        self.fetch_queue.clear();
        self.wrong_path_pc = None;
        self.next_oracle_idx = restart_oracle_idx;
        self.oracle_done = false;
        self.fetch_stalled_until = self.cycle + 1;

        #[cfg(any(debug_assertions, feature = "invariant_audit"))]
        self.audit_recovery(msp_recovery_state);
    }

    /// Post-recovery invariant audit (the full-scale sibling of the
    /// `msp-check` explorer's assertions): the window stayed contiguous,
    /// every seq-keyed side structure was purged of squashed entries, and —
    /// on MSP machines — the rename map rewound exactly to the recovery
    /// state. Compiled only into debug builds and `invariant_audit` builds;
    /// release hot paths never execute it.
    #[cfg(any(debug_assertions, feature = "invariant_audit"))]
    fn audit_recovery(&self, recovery_state: Option<StateId>) {
        let mut expected = self.window.front().map(|i| i.seq);
        for inst in &self.window {
            assert_eq!(
                Some(inst.seq),
                expected,
                "window seqs must stay contiguous after a squash"
            );
            expected = Some(inst.seq + 1);
        }
        if let Some(back) = self.window.back() {
            assert_eq!(
                back.seq + 1,
                self.next_seq,
                "sequence counter must rewind to the youngest survivor + 1"
            );
        }
        let waiting_in_window = self
            .window
            .iter()
            .filter(|i| i.status == Status::Waiting)
            .count();
        assert_eq!(
            waiting_in_window, self.iq_occupancy,
            "IQ occupancy must match the surviving waiting instructions"
        );
        assert!(
            self.waiting.windows(2).all(|w| w[0] < w[1]),
            "issue wait-list must stay strictly sorted across a squash"
        );
        assert!(
            self.waiting.iter().all(|s| self.window_index(*s).is_some()),
            "issue wait-list must not retain squashed seqs"
        );
        for &Reverse((_, seq)) in &self.completion_events {
            assert!(
                seq < self.next_seq,
                "completion event survived for squashed seq {seq}"
            );
        }
        let (Backend::Msp { manager, .. }, Some(state)) = (&self.backend, recovery_state) else {
            return;
        };
        for inst in &self.window {
            if let Some(s) = inst.msp_state {
                assert!(
                    s <= state,
                    "surviving instruction seq {} carries squashed state {s} \
                     (recovered to {state})",
                    inst.seq
                );
            }
        }
        // The rename map rewound exactly: every logical register whose
        // youngest surviving writer is still in flight must map to that
        // writer's physical register.
        for (flat, writer) in self.last_writer.iter().enumerate() {
            let Some(seq) = writer else { continue };
            let idx = self
                .window_index(*seq)
                .expect("writer map is rebuilt from the surviving window");
            if let Some(dest) = self.window[idx].msp_dest {
                let mapped = manager.source_mapping(ArchReg::from_flat_index(flat)).phys;
                assert_eq!(
                    mapped, dest,
                    "rename map points r{flat} at {mapped} but its youngest surviving \
                     writer (seq {seq}) allocated {dest}"
                );
            }
        }
    }

    // --------------------------------------------------------------- commit

    fn commit_stage(&mut self) {
        match self.config.machine {
            MachineKind::Baseline => self.commit_baseline(),
            MachineKind::Cpr { .. } => self.commit_cpr(),
            MachineKind::Msp { .. } | MachineKind::IdealMsp => self.commit_msp(),
        }
    }

    fn retire_front(&mut self) -> InFlight {
        let inst = self
            .window
            .pop_front()
            .expect("caller checked that the window front exists");
        if inst.oracle_idx.is_some() {
            self.stats.committed += 1;
        }
        inst
    }

    fn commit_baseline(&mut self) {
        let mut retired = 0;
        while retired < self.config.frontend.retire_width {
            match self.window.front() {
                Some(front) if front.status == Status::Done => {}
                _ => break,
            }
            let inst = self.retire_front();
            let seq = inst.seq;
            if let (Some(dest), false) = (inst.dest, inst.reg_released) {
                self.free_counted_register(dest.class());
            }
            self.drain_committed_stores(seq + 1);
            retired += 1;
        }
    }

    /// Drains every committed store older than `boundary_seq` to memory:
    /// one D-cache access each, plus an L2 access when the line was not
    /// resident in the D-cache.
    fn drain_committed_stores(&mut self, boundary_seq: u64) {
        let memory = &mut self.memory;
        let activity = &mut self.stats.activity;
        self.store_queue
            .drain_committed_with(boundary_seq, &mut |drained| {
                activity.dcache_accesses += 1;
                if !memory.store_commit(drained.addr) {
                    activity.l2_accesses += 1;
                }
            });
    }

    /// Advances [`Simulator::done_prefix_seq`] towards `limit_seq` and
    /// reports whether every in-flight instruction older than `limit_seq`
    /// has completed. Already-verified seqs are never re-examined.
    fn window_done_below(&mut self, limit_seq: u64) -> bool {
        if self.done_prefix_seq >= limit_seq {
            return true;
        }
        let Some(head_seq) = self.window.front().map(|f| f.seq) else {
            self.done_prefix_seq = self.done_prefix_seq.max(limit_seq);
            return true;
        };
        let mut seq = self.done_prefix_seq.max(head_seq);
        while seq < limit_seq {
            match self.window.get((seq - head_seq) as usize) {
                Some(inst) if inst.status == Status::Done => seq += 1,
                Some(_) => {
                    self.done_prefix_seq = seq;
                    return false;
                }
                // Past the window's tail: nothing older remains in flight.
                None => break,
            }
        }
        self.done_prefix_seq = seq.max(self.done_prefix_seq);
        true
    }

    fn commit_cpr(&mut self) {
        // The oldest checkpoint interval commits in bulk when every
        // instruction dispatched before the next checkpoint has completed.
        loop {
            if self.checkpoints.len() < 2 {
                break;
            }
            let boundary_seq = self.checkpoints[1].start_seq;
            if !self.window_done_below(boundary_seq) {
                break;
            }
            while self
                .window
                .front()
                .map(|i| i.seq < boundary_seq)
                .unwrap_or(false)
            {
                let inst = self.retire_front();
                if let (Some(dest), false) = (inst.dest, inst.reg_released) {
                    self.free_counted_register(dest.class());
                }
            }
            self.drain_committed_stores(boundary_seq);
            self.checkpoints.pop_front();
            self.stats.activity.checkpoint_releases += 1;
        }
        // End of program: the final checkpoint interval has no successor, so
        // commit it once everything in flight has completed.
        if self.checkpoints.len() == 1
            && self.oracle_done
            && self.fetch_queue.is_empty()
            && !self.window.is_empty()
            && self.window.iter().all(|i| i.status == Status::Done)
        {
            while self.window.front().is_some() {
                self.retire_front();
            }
            self.drain_committed_stores(u64::MAX);
        }
    }

    fn commit_msp(&mut self) {
        let lcs = match &mut self.backend {
            Backend::Msp { manager, .. } => manager.clock_commit(|_| {}),
            Backend::Counted { .. } => unreachable!("MSP commit with a counted backend"),
        };
        // The LCS unit propagates its reduction once per commit clock.
        self.stats.activity.lcs_propagations += 1;
        // Retire every correct-path instruction older than the LCS from the
        // window head (bulk commit: no retire-width limit, Table I).
        let mut retired_any = false;
        while let Some(front) = self.window.front() {
            let state = front.msp_state.unwrap_or(StateId::ZERO);
            if state < lcs && front.status == Status::Done {
                self.retire_front();
                retired_any = true;
            } else {
                break;
            }
        }
        // Draining the (potentially huge) store queue is only needed when
        // the commit point actually moved. The drain is gated by window
        // *retirement* (everything older than the remaining window head),
        // not by the raw LCS: with a pipelined LCS a store can dispatch into
        // the current state after a younger minimum was already computed, so
        // `state < lcs` alone does not imply the store has executed — the
        // model checker's `store drained before it executed` oracle catches
        // exactly that hazard. Retirement requires completion, so the
        // boundary is always safe.
        if retired_any {
            let boundary_seq = self.window.front().map_or(self.next_seq, |f| f.seq);
            self.drain_committed_stores(boundary_seq);
        }
    }

    // ---------------------------------------------------------------- issue

    fn issue_stage(&mut self) {
        let mut issued = 0;
        let mut int_used = 0;
        let mut fp_used = 0;
        let mut mem_used = 0;
        // Oldest-first selection: the waiting list is sorted by construction
        // (dispatch appends ascending seqs; squashes truncate a suffix), so
        // it is walked in place. Issued entries are marked with a sentinel
        // and compacted in one pass afterwards.
        const ISSUED: u64 = u64::MAX;
        let mut picked_any = false;
        for i in 0..self.waiting.len() {
            if issued >= self.config.frontend.issue_width {
                break;
            }
            let seq = self.waiting[i];
            let Some(idx) = self.window_index(seq) else {
                continue;
            };
            if self.window[idx].status != Status::Waiting {
                continue;
            }
            // Operand readiness (cached once proven: see `deps_ready`).
            if !self.window[idx].deps_ready {
                let deps_ready = self.window[idx]
                    .deps
                    .iter()
                    .flatten()
                    .all(|producer| self.is_seq_done(*producer));
                if !deps_ready {
                    continue;
                }
                self.window[idx].deps_ready = true;
            }
            // Functional-unit availability.
            let class = self.window[idx].rec.inst.fu_class();
            let (pool_used, pool_size) = match class {
                FuClass::IntAlu | FuClass::IntMul | FuClass::Branch => {
                    (&mut int_used, self.config.resources.int_units)
                }
                FuClass::FpAlu | FuClass::FpMul | FuClass::FpDiv => {
                    (&mut fp_used, self.config.resources.fp_units)
                }
                FuClass::Mem => (&mut mem_used, self.config.resources.ldst_units),
            };
            if *pool_used >= pool_size {
                continue;
            }
            // MSP read-port arbitration: one read port per bank per cycle,
            // requested once for each distinct source bank.
            if self.config.arbitration {
                if let Backend::Msp { arbiter, .. } = &mut self.backend {
                    let mut all_granted = true;
                    for bank in self.window[idx].msp_read_banks().into_iter().flatten() {
                        if !arbiter.request_read(bank) {
                            all_granted = false;
                        }
                    }
                    if !all_granted {
                        self.stats.port_conflicts += 1;
                        continue;
                    }
                }
            }
            *pool_used += 1;
            issued += 1;
            self.waiting[i] = ISSUED;
            picked_any = true;
            self.issue_instruction(idx);
        }
        if picked_any {
            self.waiting.retain(|seq| *seq != ISSUED);
        }
    }

    fn issue_instruction(&mut self, idx: usize) {
        let seq = self.window[idx].seq;
        let class = self.window[idx].rec.inst.fu_class();
        let mut latency = self.config.latency.for_class(class);
        let rec = self.window[idx].rec;
        // Register-file read accounting: one access per distinct source
        // bank, exactly what the 1R-port arbitration rule charges. MSP
        // reads are attributed to the renamed physical bank; Baseline/CPR
        // reads to the logical register's flat index.
        let read_banks = match &self.backend {
            Backend::Msp { .. } => self.window[idx].msp_read_banks(),
            Backend::Counted { .. } => {
                let mut read_banks = [None, None];
                for (slot, src) in rec.inst.sources().take(2).enumerate() {
                    let bank = src.flat_index();
                    if slot == 0 || read_banks[0] != Some(bank) {
                        read_banks[slot] = Some(bank);
                    }
                }
                read_banks
            }
        };
        for bank in read_banks.into_iter().flatten() {
            self.stats.activity.rf_reads[bank] += 1;
        }
        if rec.inst.is_load() {
            let addr = rec
                .mem_addr
                .unwrap_or_else(|| Self::wrong_path_address(rec.pc));
            self.stats.activity.sq_searches += 1;
            let fwd = self
                .store_queue
                .forward(addr, rec.inst.width().bytes(), seq);
            if fwd.is_hit() {
                self.stats.store_forwards += 1;
                latency += fwd.latency() + 1;
            } else {
                self.stats.activity.dcache_accesses += 1;
                let mem_latency = self.memory.load_latency(addr);
                if mem_latency > self.memory.config().dl1.hit_latency {
                    self.stats.dcache_misses += 1;
                    self.stats.activity.l2_accesses += 1;
                }
                latency += fwd.latency() + mem_latency;
            }
        }
        // Executed-instruction accounting (Fig. 9): counted at issue. The
        // table is indexed relative to the measurement origin so a resumed
        // simulation does not allocate bits for the skipped prefix.
        match self.window[idx].oracle_idx {
            Some(oidx) => {
                debug_assert!(
                    oidx >= self.oracle_origin,
                    "fetch never precedes the origin"
                );
                let oidx = (oidx - self.oracle_origin) as usize;
                if self.executed_once.len() <= oidx {
                    self.executed_once.resize(oidx + 1, false);
                }
                if self.executed_once[oidx] {
                    self.stats.executed.correct_path_reexecuted += 1;
                } else {
                    self.executed_once[oidx] = true;
                    self.stats.executed.correct_path += 1;
                }
            }
            None => self.stats.executed.wrong_path += 1,
        }
        // Free the issue-queue entry and clear the source use bits.
        self.iq_occupancy -= 1;
        let source_bits = std::mem::take(&mut self.window[idx].msp_source_bits);
        if let Backend::Msp { manager, .. } = &mut self.backend {
            for (phys, slot) in source_bits.into_iter().flatten() {
                manager.clear_use(phys, slot);
            }
        }
        // Keep the IQ slot reserved for anchor tracking of non-allocating
        // instructions until completion; others release it now.
        if self.window[idx].msp_anchor_bit.is_none() {
            if let Some(slot) = self.window[idx].iq_slot.take() {
                self.iq_free.push(slot);
            }
        }
        // Decrement producer reference counts (CPR release tracking).
        let deps = self.window[idx].deps;
        for producer in deps.iter().flatten() {
            if let Some(pidx) = self.window_index(*producer) {
                self.window[pidx].pending_consumers =
                    self.window[pidx].pending_consumers.saturating_sub(1);
            }
        }
        self.window[idx].status = Status::Executing;
        let complete_cycle = self.cycle + latency.max(1);
        self.window[idx].complete_cycle = complete_cycle;
        self.completion_events.push(Reverse((complete_cycle, seq)));
    }

    // ------------------------------------------------------------- dispatch

    fn dispatch_stage(&mut self) {
        let width = self.config.frontend.rename_width;
        let mut dispatched = 0;
        // Per-cycle same-logical-register rename limit (MSP, Section 3.3).
        // The tracking list is a reusable scratch buffer on the simulator
        // (at most `rename_width` entries per cycle).
        self.rename_scratch.clear();
        while dispatched < width {
            let Some(front) = self.fetch_queue.front() else {
                self.stats.stalls.frontend_empty += 1;
                break;
            };
            if front.ready_cycle > self.cycle {
                self.stats.stalls.frontend_empty += 1;
                break;
            }
            // MSP same-register-per-cycle admission.
            if self.config.machine.is_msp() {
                if let Some(dest) = front.rec.inst.dest() {
                    let count = self
                        .rename_scratch
                        .iter()
                        .find(|(r, _)| *r == dest)
                        .map(|(_, c)| *c)
                        .unwrap_or(0);
                    if count >= self.config.max_same_reg_renames {
                        self.stats.stalls.same_reg_limit += 1;
                        break;
                    }
                }
            }
            if !self.structural_resources_available() {
                break;
            }
            if !self.cpr_checkpoint_admission() {
                break;
            }
            let dest = self.fetch_queue.front().and_then(|f| f.rec.inst.dest());
            if !self.rename_and_dispatch_front() {
                break;
            }
            if let Some(dest) = dest {
                match self.rename_scratch.iter_mut().find(|(r, _)| *r == dest) {
                    Some((_, c)) => *c += 1,
                    None => self.rename_scratch.push((dest, 1)),
                }
            }
            dispatched += 1;
        }
    }

    /// Checks machine-independent structural resources for the instruction at
    /// the head of the fetch queue, recording stall causes.
    fn structural_resources_available(&mut self) -> bool {
        let front = self
            .fetch_queue
            .front()
            .expect("caller checked the fetch queue is non-empty");
        let is_load = front.rec.inst.is_load();
        let is_store = front.rec.inst.is_store();
        let dest = front.rec.inst.dest();
        if self.iq_free.is_empty() || self.iq_occupancy >= self.config.resources.iq_size {
            self.stats.stalls.iq_full += 1;
            return false;
        }
        if matches!(self.config.machine, MachineKind::Baseline)
            && self.window.len() >= self.config.resources.rob_size
        {
            self.stats.stalls.rob_full += 1;
            return false;
        }
        if matches!(self.config.machine, MachineKind::IdealMsp)
            && self.window.len() >= IDEAL_WINDOW_CAP
        {
            self.stats.stalls.rob_full += 1;
            return false;
        }
        if is_load && self.load_queue.is_full() {
            self.stats.stalls.lq_full += 1;
            return false;
        }
        if is_store && self.store_queue.is_full() {
            self.stats.stalls.sq_full += 1;
            return false;
        }
        // Register availability for the counted backends.
        if let (Backend::Counted { int_free, fp_free }, Some(dest)) = (&self.backend, dest) {
            let free = match dest.class() {
                RegClass::Int => *int_free,
                RegClass::Fp => *fp_free,
            };
            if free == 0 {
                self.stats.stalls.regs_full += 1;
                return false;
            }
        }
        true
    }

    /// Handles CPR checkpoint allocation for the instruction at the head of
    /// the fetch queue. Returns false if dispatch must stall this cycle.
    fn cpr_checkpoint_admission(&mut self) -> bool {
        if !matches!(self.config.machine, MachineKind::Cpr { .. }) {
            return true;
        }
        let front = self
            .fetch_queue
            .front()
            .expect("caller checked the fetch queue is non-empty");
        let correct_path = front.oracle_idx.is_some();
        let wants_checkpoint = correct_path
            && ((front.rec.inst.is_conditional_branch() && front.low_confidence)
                || front.rec.inst.is_indirect());
        let forced = self.insts_since_checkpoint >= self.config.resources.max_insts_per_checkpoint;
        if !wants_checkpoint && !forced {
            return true;
        }
        if self.checkpoints.len() >= self.config.resources.checkpoints {
            if forced {
                self.stats.stalls.checkpoints_full += 1;
                return false;
            }
            // Low-confidence branch but no free checkpoint: proceed without
            // one (recovery will be imprecise).
            return true;
        }
        if let Some(oracle_idx) = front.oracle_idx {
            self.checkpoints.push_back(Checkpoint {
                oracle_idx,
                start_seq: self.next_seq,
            });
            self.stats.checkpoints_allocated += 1;
            self.stats.activity.checkpoint_allocs += 1;
            self.insts_since_checkpoint = 0;
        }
        true
    }

    /// Renames and dispatches the head of the fetch queue. Returns false on a
    /// rename stall (MSP bank full).
    fn rename_and_dispatch_front(&mut self) -> bool {
        let front = self
            .fetch_queue
            .front()
            .expect("caller checked the fetch queue is non-empty")
            .clone();
        let inst = front.rec.inst;
        let dest = inst.dest();

        // Backend renaming (allocation-free: sources are gathered into a
        // fixed two-element buffer and the returned mappings stay inline).
        let (msp_state, msp_dest, msp_source_bits, msp_anchor_bit) = match &mut self.backend {
            Backend::Msp { manager, .. } => {
                let mut sources = [ArchReg::ZERO; 2];
                let mut source_count = 0;
                for src in inst.sources().take(2) {
                    sources[source_count] = src;
                    source_count += 1;
                }
                let request = RenameRequest::new(dest, &sources[..source_count]);
                match manager.rename(&request) {
                    Ok(renamed) => {
                        self.stats.activity.sct_lookups += renamed.sct_lookups();
                        let slot = *self.iq_free.last().expect("IQ capacity checked earlier");
                        let mut source_bits = [None, None];
                        for (bit, mapping) in
                            source_bits.iter_mut().zip(renamed.sources.iter().flatten())
                        {
                            // When a non-allocating instruction's source
                            // mapping aliases its state anchor, the single
                            // RelIQ bit covers both roles and must survive
                            // until the *later* release point — completion.
                            // The anchor owns it; no source-side bit is
                            // recorded, so issue will not clear it early and
                            // release the state while the instruction is
                            // still in flight (Section 3.4).
                            if renamed.dest.is_none() && mapping.phys == renamed.anchor {
                                continue;
                            }
                            manager.note_use(mapping.phys, slot);
                            *bit = Some((mapping.phys, slot));
                        }
                        let anchor = if renamed.dest.is_none() {
                            manager.note_use(renamed.anchor, slot);
                            Some((renamed.anchor, slot))
                        } else {
                            None
                        };
                        (
                            Some(renamed.state_id),
                            renamed.dest.map(|d| d.phys),
                            source_bits,
                            anchor,
                        )
                    }
                    Err(msp_state::RenameError::BankFull(reg)) => {
                        self.stats.stalls.bank_full[reg.flat_index()] += 1;
                        return false;
                    }
                }
            }
            Backend::Counted { int_free, fp_free } => {
                if let Some(d) = dest {
                    match d.class() {
                        RegClass::Int => *int_free -= 1,
                        RegClass::Fp => *fp_free -= 1,
                    }
                }
                (None, None, [None, None], None)
            }
        };

        let front = self.fetch_queue.pop_front().expect("front inspected above");
        self.stats.activity.rename_lookups += 1;
        let iq_slot = self.iq_free.pop().expect("IQ capacity checked earlier");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.iq_occupancy += 1;
        self.insts_since_checkpoint += 1;

        // Generic dependence tracking against the youngest in-flight writer.
        let mut deps = [None, None];
        for (i, src) in inst.sources().enumerate().take(2) {
            if let Some(writer) = self.last_writer[src.flat_index()] {
                if !self.is_seq_done(writer) {
                    deps[i] = Some(writer);
                    if let Some(widx) = self.window_index(writer) {
                        self.window[widx].pending_consumers += 1;
                    }
                }
            }
        }
        // Sleep/wakeup registration: if every (not-yet-done) producer has a
        // free inline waiter slot, this instruction sleeps until the last of
        // them completes instead of polling from the waiting list. All-or-
        // nothing: with any producer's list full, the instruction polls (a
        // partial registration would let a wakeup double-insert it). An
        // instruction whose two sources name the same producer (`r2 * r2`)
        // registers once — both operands become ready at that single
        // completion, and a double registration could overflow the slot a
        // lone capacity check reserved.
        let distinct_producers = match deps {
            [Some(a), Some(b)] if a == b => [Some(a), None],
            other => other,
        };
        let mut deps_pending = 0u8;
        let can_sleep = distinct_producers.iter().flatten().all(|producer| {
            self.window_index(*producer)
                .map(|pidx| (self.window[pidx].waiter_count as usize) < MAX_WAITERS)
                .unwrap_or(false)
        });
        if can_sleep {
            for producer in distinct_producers.iter().flatten() {
                let pidx = self
                    .window_index(*producer)
                    .expect("checked by can_sleep above");
                let inst = &mut self.window[pidx];
                inst.waiters[inst.waiter_count as usize] = seq;
                inst.waiter_count += 1;
                deps_pending += 1;
            }
        }
        // Mark the previous writer of this destination as superseded (CPR
        // aggressive release). Only correct-path supersessions count, so a
        // squashed wrong path cannot strand the release accounting.
        if let (Some(d), Some(_)) = (dest, front.oracle_idx) {
            if let Some(prev) = self.last_writer[d.flat_index()] {
                if let Some(pidx) = self.window_index(prev) {
                    self.window[pidx].superseded_by = Some(seq);
                    // An already-completed previous writer becomes a CPR
                    // release candidate right away (writeback handles the
                    // completes-after-supersede order).
                    if self.window[pidx].status == Status::Done
                        && matches!(self.config.machine, MachineKind::Cpr { .. })
                    {
                        self.cpr_release_pending.push(prev);
                    }
                }
            }
        }
        if let Some(d) = dest {
            self.last_writer[d.flat_index()] = Some(seq);
        }

        // Memory-queue occupancy.
        if inst.is_load() {
            self.stats.activity.lq_searches += 1;
            self.load_queue.insert(seq);
        }
        if inst.is_store() {
            self.stats.activity.sq_searches += 1;
            let addr = front
                .rec
                .mem_addr
                .unwrap_or_else(|| Self::wrong_path_address(front.rec.pc));
            // Every backend tags stores with the sequence number: commit
            // drains up to a retirement boundary, which for the MSP is the
            // oldest instruction still in the window (see `commit_msp`).
            // Records carry no values, and a load reads only whether and how
            // fast a store forwards, so every entry holds value 0.
            let tag = seq;
            self.store_queue.insert(StoreQueueEntry {
                seq,
                tag,
                addr,
                width: inst.width().bytes(),
                value: 0,
            });
        }

        // Branch statistics are counted at dispatch of correct-path branches.
        if front.oracle_idx.is_some() && (inst.is_conditional_branch() || inst.is_indirect()) {
            self.stats.branches += 1;
            if front.mispredicted {
                self.stats.mispredictions += 1;
            }
        }

        debug_assert!(
            self.window.back().map(|b| b.seq + 1 == seq).unwrap_or(true),
            "dispatch must keep the window seq-contiguous"
        );
        self.window.push_back(InFlight {
            seq,
            oracle_idx: front.oracle_idx,
            rec: front.rec,
            status: Status::Waiting,
            complete_cycle: 0,
            deps_ready: deps == [None, None],
            deps,
            deps_pending,
            waiters: [0; MAX_WAITERS],
            waiter_count: 0,
            iq_slot: Some(iq_slot),
            dest,
            mispredicted: front.mispredicted,
            msp_state,
            msp_dest,
            msp_source_bits,
            msp_anchor_bit,
            superseded_by: None,
            pending_consumers: 0,
            reg_released: false,
        });
        if deps_pending == 0 {
            self.waiting.push(seq);
        }
        true
    }

    // ---------------------------------------------------------------- fetch

    fn fetch_stage(&mut self) {
        if self.cycle < self.fetch_stalled_until {
            return;
        }
        // Bound the in-flight front end (fetch/decode buffer).
        if self.fetch_queue.len() >= 4 * self.config.frontend.fetch_width {
            return;
        }
        let mut fetched = 0;
        let mut first_pc: Option<u64> = None;
        while fetched < self.config.frontend.fetch_width {
            let (rec, oracle_idx) = match self.wrong_path_pc {
                Some(pc) => (self.synthesize_wrong_path(pc), None),
                None => {
                    if self.oracle_done {
                        break;
                    }
                    match self.oracle.get(self.next_oracle_idx) {
                        Some(&rec) => (rec, Some(self.next_oracle_idx)),
                        None => {
                            self.oracle_done = true;
                            break;
                        }
                    }
                }
            };
            // Charge the I-cache once per fetch cycle, for the first access.
            let icache_extra = if first_pc.is_none() {
                first_pc = Some(rec.pc);
                self.stats.activity.icache_accesses += 1;
                let il1_hit = self.memory.config().il1.hit_latency;
                let latency = self.memory.fetch_latency(rec.pc);
                if latency > il1_hit {
                    self.stats.activity.l2_accesses += 1;
                }
                latency.saturating_sub(il1_hit)
            } else {
                0
            };
            let ready_cycle = self.cycle + self.config.frontend_delay() + icache_extra;

            let (mispredicted, low_confidence, predicted_next_pc) = self.predict(&rec, oracle_idx);

            self.fetch_queue.push_back(Fetched {
                oracle_idx,
                rec,
                ready_cycle,
                mispredicted: mispredicted && oracle_idx.is_some(),
                low_confidence,
            });
            fetched += 1;

            // Advance the fetch stream.
            match self.wrong_path_pc {
                Some(_) => {
                    self.wrong_path_pc = Some(predicted_next_pc);
                }
                None => {
                    self.next_oracle_idx += 1;
                    if mispredicted {
                        // Subsequent fetch goes down the predicted (wrong)
                        // path until the branch resolves.
                        self.wrong_path_pc = Some(predicted_next_pc);
                    }
                }
            }
            // A predicted-taken control transfer ends the fetch block.
            if rec.inst.is_control() && predicted_next_pc != rec.pc.wrapping_add(4) {
                break;
            }
        }
    }

    /// Synthesizes a wrong-path dynamic record for the instruction at `pc`.
    fn synthesize_wrong_path(&self, pc: u64) -> ExecutedInst {
        let inst = self.program.fetch_or_halt(pc);
        ExecutedInst {
            pc,
            inst,
            next_pc: pc.wrapping_add(4),
            taken: false,
            mem_addr: if inst.is_mem() {
                Some(Self::wrong_path_address(pc))
            } else {
                None
            },
            halted: false,
        }
    }

    /// Produces the branch prediction for a fetched instruction. Returns
    /// `(mispredicted, low_confidence, predicted_next_pc)`.
    fn predict(&mut self, rec: &ExecutedInst, oracle_idx: Option<u64>) -> (bool, bool, u64) {
        let inst = rec.inst;
        let correct_path = oracle_idx.is_some();
        let fallthrough = rec.pc.wrapping_add(4);
        if !inst.is_control() {
            return (
                false,
                false,
                if correct_path {
                    rec.next_pc
                } else {
                    fallthrough
                },
            );
        }
        // A branch whose outcome was already resolved by a previous execution
        // (CPR re-fetch after rollback) does not re-mispredict: the machine
        // reuses the recorded outcome.
        let already_resolved = oracle_idx
            .map(|idx| {
                debug_assert!(idx >= self.oracle_origin, "fetch never precedes the origin");
                self.executed_once
                    .get((idx - self.oracle_origin) as usize)
                    .copied()
                    .unwrap_or(false)
            })
            .unwrap_or(false);
        if inst.is_conditional_branch() {
            self.stats.activity.predictor_lookups += 1;
            let predicted_taken = self.predictor.predict(rec.pc);
            let low_confidence = !self.confidence.is_high_confidence(rec.pc);
            let predicted_target = if predicted_taken {
                inst.target().expect("conditional branches carry a target")
            } else {
                fallthrough
            };
            if correct_path {
                let actual = rec.taken;
                if already_resolved {
                    // Re-fetched after a checkpoint rollback: the outcome is
                    // known, and the predictor was already trained by the
                    // first execution.
                    return (false, low_confidence, rec.next_pc);
                }
                self.stats.activity.predictor_lookups += 1;
                self.predictor.update(rec.pc, actual);
                self.confidence
                    .update(rec.pc, predicted_taken == actual, actual);
                let mispredicted = predicted_taken != actual;
                let next = if mispredicted {
                    predicted_target
                } else {
                    rec.next_pc
                };
                return (mispredicted, low_confidence, next);
            }
            return (false, low_confidence, predicted_target);
        }
        if inst.is_indirect() {
            // Returns consult the return stack first, other indirect jumps
            // the BTB.
            let predicted = if inst.is_return() {
                self.stats.activity.ras_ops += 1;
                match self.ras.pop() {
                    Some(target) => Some(target),
                    None => {
                        self.stats.activity.btb_lookups += 1;
                        self.btb.lookup(rec.pc)
                    }
                }
            } else {
                self.stats.activity.btb_lookups += 1;
                self.btb.lookup(rec.pc)
            };
            if correct_path {
                let actual = rec.next_pc;
                if already_resolved {
                    return (false, true, actual);
                }
                self.stats.activity.btb_lookups += 1;
                self.btb.update(rec.pc, actual);
                let mispredicted = predicted != Some(actual);
                let next = if mispredicted {
                    predicted.unwrap_or(fallthrough)
                } else {
                    actual
                };
                return (mispredicted, true, next);
            }
            return (false, true, predicted.unwrap_or(fallthrough));
        }
        // Direct jumps and calls: target known at fetch.
        if inst.is_call() {
            self.stats.activity.ras_ops += 1;
            self.ras.push(fallthrough);
        }
        let target = inst.target().expect("direct jumps and calls carry targets");
        let next = if correct_path { rec.next_pc } else { target };
        (false, false, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_branch::PredictorKind;
    use msp_isa::Trace;
    use msp_workloads::{by_name, microbenchmark, Variant};
    use std::sync::Arc;

    fn run_machine(program: &Program, machine: MachineKind, max: u64) -> SimResult {
        let config = SimConfig::machine(machine, PredictorKind::Gshare);
        Simulator::new(program, config).run(max)
    }

    #[test]
    fn microbenchmark_completes_on_every_machine() {
        let program = microbenchmark();
        for machine in [
            MachineKind::Baseline,
            MachineKind::cpr(),
            MachineKind::msp(16),
            MachineKind::IdealMsp,
        ] {
            let result = run_machine(&program, machine, 10_000);
            // The microbenchmark has 3 + 64*6 + 1 = 388 dynamic instructions.
            assert_eq!(
                result.stats.committed, 388,
                "{machine:?} must commit the whole program"
            );
            assert!(result.ipc() > 0.1, "{machine:?} made no progress");
            assert!(result.stats.cycles > 0);
        }
    }

    #[test]
    fn committed_instructions_reach_the_request() {
        let w = by_name("crafty", Variant::Original).unwrap();
        let result = run_machine(w.program(), MachineKind::msp(16), 3_000);
        assert!(result.stats.committed >= 3_000);
        assert!(result.stats.committed < 3_100);
    }

    #[test]
    fn mispredictions_and_wrong_path_work_appear() {
        let w = by_name("vpr", Variant::Original).unwrap();
        let result = run_machine(w.program(), MachineKind::msp(16), 5_000);
        assert!(result.stats.branches > 100);
        assert!(
            result.stats.misprediction_rate() > 0.05,
            "vpr's coin-flip branch must defeat gshare (rate {})",
            result.stats.misprediction_rate()
        );
        assert!(result.stats.executed.wrong_path > 0);
        assert_eq!(
            result.stats.executed.correct_path_reexecuted, 0,
            "precise recovery never re-executes correct-path work"
        );
    }

    #[test]
    fn cpr_reexecutes_correct_path_instructions() {
        let w = by_name("vpr", Variant::Original).unwrap();
        let result = run_machine(w.program(), MachineKind::cpr(), 5_000);
        assert!(result.stats.checkpoints_allocated > 0);
        assert!(
            result.stats.executed.correct_path_reexecuted > 0,
            "checkpoint rollback must re-execute correct-path instructions"
        );
        assert!(result.stats.recoveries > 0);
    }

    #[test]
    fn baseline_never_reexecutes_correct_path_work() {
        let w = by_name("gzip", Variant::Original).unwrap();
        let result = run_machine(w.program(), MachineKind::Baseline, 4_000);
        assert_eq!(result.stats.executed.correct_path_reexecuted, 0);
        assert!(result.stats.committed >= 4_000);
    }

    #[test]
    fn msp_bank_stalls_appear_with_tiny_banks() {
        let w = by_name("swim", Variant::Original).unwrap();
        let result = run_machine(w.program(), MachineKind::msp(4), 4_000);
        assert!(
            result.stats.stalls.bank_full_total() > 0,
            "4 registers per bank must stall the swim kernel"
        );
        // The ideal MSP never stalls on banks.
        let ideal = run_machine(w.program(), MachineKind::IdealMsp, 4_000);
        assert_eq!(ideal.stats.stalls.bank_full_total(), 0);
        assert!(ideal.ipc() >= result.ipc());
    }

    /// Section 3.3's limit on renamings of one logical register per cycle is
    /// enforced by the dispatch stage alone: a loop of back-to-back writes to
    /// one register stalls on it, more at a limit of 1 than of 2, never at a
    /// limit equal to the rename width, and never on Baseline or CPR.
    #[test]
    fn same_register_rename_limit_stalls_dispatch() {
        let r = ArchReg::int;
        let mut b = msp_workloads::ProgramBuilder::new("same-reg");
        b.inst(msp_isa::Instruction::li(r(1), 256));
        b.label("loop");
        for _ in 0..6 {
            b.inst(msp_isa::Instruction::addi(r(2), r(2), 1));
        }
        b.inst(msp_isa::Instruction::addi(r(1), r(1), -1));
        b.bne(r(1), ArchReg::ZERO, "loop");
        b.inst(msp_isa::Instruction::halt());
        let program = b.build();
        let stalls = |machine: MachineKind, limit: usize| {
            let mut config = SimConfig::machine(machine, PredictorKind::Gshare);
            config.max_same_reg_renames = limit;
            let result = Simulator::new(&program, config).run(10_000);
            assert!(!result.truncated_by_watchdog, "{machine:?} at {limit}");
            result.stats.stalls.same_reg_limit
        };
        let msp = MachineKind::msp(64);
        let (at_one, at_two) = (stalls(msp, 1), stalls(msp, 2));
        assert!(at_two > 0, "two renamings of r2 per cycle must stall");
        assert!(at_one > at_two, "limit 1 stalls {at_one}, limit 2 {at_two}");
        let width = SimConfig::machine(msp, PredictorKind::Gshare)
            .frontend
            .rename_width;
        assert_eq!(stalls(msp, width), 0, "a limit of the rename width");
        for machine in [MachineKind::Baseline, MachineKind::cpr()] {
            assert_eq!(stalls(machine, 1), 0, "{machine:?} has no such limit");
        }
    }

    #[test]
    fn larger_banks_do_not_hurt_ipc() {
        let w = by_name("mgrid", Variant::Original).unwrap();
        let small = run_machine(w.program(), MachineKind::msp(8), 4_000);
        let large = run_machine(w.program(), MachineKind::msp(64), 4_000);
        assert!(
            large.ipc() >= small.ipc() * 0.98,
            "64-SP ({}) must not be slower than 8-SP ({})",
            large.ipc(),
            small.ipc()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let w = by_name("gzip", Variant::Original).unwrap();
        let a = run_machine(w.program(), MachineKind::cpr(), 3_000);
        let b = run_machine(w.program(), MachineKind::cpr(), 3_000);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.executed.total(), b.stats.executed.total());
    }

    #[test]
    fn watchdog_truncation_is_surfaced() {
        // A machine with no integer units can never issue the first
        // instruction: no commit ever happens and the watchdog must fire —
        // and the result must say so instead of posing as a datapoint.
        let program = microbenchmark();
        let mut config = SimConfig::machine(MachineKind::Baseline, PredictorKind::Gshare);
        config.resources.int_units = 0;
        let result = Simulator::new(&program, config).run(1_000);
        assert!(result.truncated_by_watchdog);
        assert_eq!(result.stats.watchdog_breaks, 1);
        assert_eq!(result.stats.committed, 0);
        assert!(
            result
                .stats
                .canonical_string()
                .contains("WATCHDOG_TRUNCATED=1"),
            "a wedged run must never diff clean against a healthy golden"
        );
        // A healthy run reports no truncation and renders no marker.
        let healthy = run_machine(&program, MachineKind::Baseline, 388);
        assert!(!healthy.truncated_by_watchdog);
        assert_eq!(healthy.stats.watchdog_breaks, 0);
        assert!(!healthy.stats.canonical_string().contains("WATCHDOG"));
    }

    #[test]
    fn duplicate_source_producer_does_not_overflow_waiter_slots() {
        // A long-latency producer (missing load) accrues three sleeping
        // consumers, then a fourth whose *both* sources name it (`r3 * r3`).
        // The duplicate dependence must register a single waiter slot; a
        // double registration would index past the fixed-size waiter array.
        let r = ArchReg::int;
        let mut b = msp_workloads::ProgramBuilder::new("dup-dep");
        b.inst(msp_isa::Instruction::li(r(1), 64));
        b.inst(msp_isa::Instruction::li(r(2), 0x8000));
        b.label("loop");
        b.inst(msp_isa::Instruction::load(r(3), r(2), 0));
        b.inst(msp_isa::Instruction::add(r(4), r(3), r(1)));
        b.inst(msp_isa::Instruction::add(r(5), r(3), r(1)));
        b.inst(msp_isa::Instruction::add(r(6), r(3), r(1)));
        b.inst(msp_isa::Instruction::mul(r(7), r(3), r(3)));
        b.inst(msp_isa::Instruction::addi(r(2), r(2), 64));
        b.inst(msp_isa::Instruction::addi(r(1), r(1), -1));
        b.bne(r(1), ArchReg::ZERO, "loop");
        b.inst(msp_isa::Instruction::halt());
        let program = b.build();
        for machine in [
            MachineKind::Baseline,
            MachineKind::cpr(),
            MachineKind::msp(16),
            MachineKind::IdealMsp,
        ] {
            let result = run_machine(&program, machine, 10_000);
            // 2 + 64*8 + 1 dynamic instructions.
            assert_eq!(result.stats.committed, 515, "{machine:?}");
            assert!(!result.truncated_by_watchdog, "{machine:?}");
        }
    }

    #[test]
    fn shared_trace_simulation_is_bit_identical() {
        let w = by_name("gzip", Variant::Original).unwrap();
        let trace = std::sync::Arc::new(Trace::capture(w.program(), 3_500));
        for machine in [
            MachineKind::Baseline,
            MachineKind::cpr(),
            MachineKind::msp(16),
            MachineKind::IdealMsp,
        ] {
            let config = SimConfig::machine(machine, PredictorKind::Gshare);
            let private = Simulator::new(w.program(), config.clone()).run(3_000);
            let shared = Simulator::with_trace(w.program(), config, std::sync::Arc::clone(&trace))
                .run(3_000);
            assert_eq!(private.stats, shared.stats, "{machine:?}");
        }
    }

    /// An on-disk trace file that removes itself when dropped.
    struct TempTraceFile(std::path::PathBuf);

    impl TempTraceFile {
        fn write(tag: &str, program: &Program, trace: &Trace) -> Self {
            let path =
                std::env::temp_dir().join(format!("msp-sim-{tag}-{}.msptrace", std::process::id()));
            msp_isa::write_trace_to_path(&path, program, trace).unwrap();
            TempTraceFile(path)
        }

        fn reader(&self, program: &Program) -> Arc<msp_isa::TraceReader> {
            Arc::new(msp_isa::TraceReader::open(&self.0, program).unwrap())
        }
    }

    impl Drop for TempTraceFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn streaming_trace_simulation_is_bit_identical_to_materialised() {
        let w = by_name("gzip", Variant::Original).unwrap();
        let trace = Arc::new(Trace::capture(w.program(), 3_500));
        let file = TempTraceFile::write("stream", w.program(), &trace);
        let reader = file.reader(w.program());
        for machine in [
            MachineKind::Baseline,
            MachineKind::cpr(),
            MachineKind::msp(16),
            MachineKind::IdealMsp,
        ] {
            let config = SimConfig::machine(machine, PredictorKind::Gshare);
            let materialised =
                Simulator::with_trace(w.program(), config.clone(), Arc::clone(&trace)).run(3_000);
            let streaming =
                Simulator::with_trace(w.program(), config, reader.cursor().unwrap()).run(3_000);
            assert_eq!(materialised.stats, streaming.stats, "{machine:?}");
        }
    }

    #[test]
    fn streaming_resume_is_bit_identical_to_materialised_resume() {
        let w = by_name("vpr", Variant::Original).unwrap();
        let trace = Arc::new(Trace::capture_with_checkpoints(w.program(), 6_000, 1_000));
        let file = TempTraceFile::write("resume", w.program(), &trace);
        let reader = file.reader(w.program());
        for machine in [MachineKind::Baseline, MachineKind::msp(16)] {
            let config = SimConfig::machine(machine, PredictorKind::Gshare);
            let materialised =
                Simulator::resume_from(w.program(), config.clone(), Arc::clone(&trace), 3_000, 500)
                    .run(1_000);
            let streaming =
                Simulator::resume_from(w.program(), config, reader.cursor().unwrap(), 3_000, 500)
                    .run(1_000);
            assert_eq!(materialised.stats, streaming.stats, "{machine:?}");
        }
    }

    #[test]
    fn resume_from_checkpoint_zero_is_bit_identical_to_full_run() {
        let w = by_name("gzip", Variant::Original).unwrap();
        let trace = std::sync::Arc::new(Trace::capture_with_checkpoints(w.program(), 3_500, 1_000));
        for machine in [
            MachineKind::Baseline,
            MachineKind::cpr(),
            MachineKind::msp(16),
            MachineKind::IdealMsp,
        ] {
            let config = SimConfig::machine(machine, PredictorKind::Gshare);
            let full =
                Simulator::with_trace(w.program(), config.clone(), Arc::clone(&trace)).run(3_000);
            let resumed =
                Simulator::resume_from(w.program(), config, Arc::clone(&trace), 0, 0).run(3_000);
            assert_eq!(full.stats, resumed.stats, "{machine:?}");
        }
    }

    #[test]
    fn resume_from_mid_trace_is_deterministic_and_measures_the_suffix() {
        let w = by_name("vpr", Variant::Original).unwrap();
        let trace = std::sync::Arc::new(Trace::capture_with_checkpoints(w.program(), 6_000, 1_000));
        for machine in [
            MachineKind::Baseline,
            MachineKind::cpr(),
            MachineKind::msp(16),
            MachineKind::IdealMsp,
        ] {
            let config = SimConfig::machine(machine, PredictorKind::Gshare);
            let a =
                Simulator::resume_from(w.program(), config.clone(), Arc::clone(&trace), 3_000, 500);
            assert_eq!(a.measurement_start(), 3_500);
            let a = {
                let mut sim = a;
                sim.run(1_000)
            };
            let b = Simulator::resume_from(w.program(), config, Arc::clone(&trace), 3_000, 500)
                .run(1_000);
            assert_eq!(a.stats, b.stats, "{machine:?} resume determinism");
            // CPR bulk-commits whole checkpoint intervals, so the request
            // can be overshot by at most one interval (as in exact runs).
            assert!(
                a.stats.committed >= 1_000 && a.stats.committed < 1_500,
                "{machine:?} measures the request (committed {})",
                a.stats.committed
            );
        }
    }

    /// A warmed `resume_from` is the cold warm state plus the absorbed
    /// warm-up records, resumed where they end, on every machine kind. A
    /// trace that ends inside the warm-up window (3,200 records) gives the
    /// same machine: the records past its end come from the functional
    /// extension.
    #[test]
    fn resume_from_equals_absorbing_its_warm_up_then_resuming_warmed() {
        let w = by_name("vpr", Variant::Original).unwrap();
        let trace = Arc::new(Trace::capture_with_checkpoints(w.program(), 6_000, 500));
        let short = Arc::new(Trace::capture_with_checkpoints(w.program(), 3_200, 500));
        assert_eq!(short.len(), 3_200);
        for machine in [
            MachineKind::Baseline,
            MachineKind::cpr(),
            MachineKind::msp(16),
            MachineKind::IdealMsp,
        ] {
            let config = SimConfig::machine(machine, PredictorKind::Gshare);
            let mut warm = WarmState::for_config(w.program(), &config);
            for index in 3_000..3_500 {
                warm.absorb(trace.get(index).unwrap());
            }
            let expected = Simulator::resume_warmed(
                w.program(),
                config.clone(),
                Arc::clone(&trace),
                3_500,
                warm,
            )
            .run(1_000);
            for source in [&trace, &short] {
                let mut sim = Simulator::resume_from(
                    w.program(),
                    config.clone(),
                    Arc::clone(source),
                    3_000,
                    500,
                );
                assert_eq!(sim.measurement_start(), 3_500, "{machine:?}");
                let resumed = sim.run(1_000);
                assert_eq!(
                    resumed.stats,
                    expected.stats,
                    "{machine:?} over {} records",
                    source.len()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "resume_from requires an architectural checkpoint")]
    fn resume_from_unrecorded_index_panics() {
        let w = by_name("gzip", Variant::Original).unwrap();
        let trace = std::sync::Arc::new(Trace::capture_with_checkpoints(w.program(), 2_000, 500));
        let config = SimConfig::machine(MachineKind::Baseline, PredictorKind::Gshare);
        let _ = Simulator::resume_from(w.program(), config, trace, 123, 0);
    }

    #[test]
    fn activity_counters_fire_on_every_machine() {
        let w = by_name("vpr", Variant::Original).unwrap();
        for machine in [
            MachineKind::Baseline,
            MachineKind::cpr(),
            MachineKind::msp(16),
            MachineKind::IdealMsp,
        ] {
            let result = run_machine(w.program(), machine, 4_000);
            let a = &result.stats.activity;
            assert!(a.rf_reads_total() > 0, "{machine:?} reads");
            assert!(a.rf_writes_total() > 0, "{machine:?} writes");
            assert!(a.rename_lookups > 0, "{machine:?} renames");
            assert!(a.icache_accesses > 0, "{machine:?} icache");
            assert!(a.dcache_accesses > 0, "{machine:?} dcache");
            assert!(a.predictor_lookups > 0, "{machine:?} predictor");
            assert!(a.lq_searches > 0 && a.sq_searches > 0, "{machine:?} queues");
            if machine.is_msp() {
                assert!(a.sct_lookups > 0, "{machine:?} SCT");
                assert!(a.lcs_propagations > 0, "{machine:?} LCS");
                assert_eq!(a.checkpoint_allocs, 0, "{machine:?} no checkpoints");
            } else {
                assert_eq!(a.sct_lookups, 0, "{machine:?} has no SCT");
                assert_eq!(a.lcs_propagations, 0, "{machine:?} has no LCS");
            }
            if matches!(machine, MachineKind::Cpr { .. }) {
                assert_eq!(
                    a.checkpoint_allocs, result.stats.checkpoints_allocated,
                    "activity allocs mirror the historical counter"
                );
                assert!(a.checkpoint_releases > 0, "CPR releases checkpoints");
            }
            // Determinism: a second run reproduces every activity counter.
            let again = run_machine(w.program(), machine, 4_000);
            assert_eq!(result.stats.activity, again.stats.activity, "{machine:?}");
        }
    }

    #[test]
    fn activity_subtracting_is_exact_for_measured_windows() {
        // The sampled-window identity: prefix + (full − prefix) == full for
        // every counter, including the per-bank activity arrays.
        let w = by_name("gzip", Variant::Original).unwrap();
        for machine in [MachineKind::cpr(), MachineKind::msp(16)] {
            let config = SimConfig::machine(machine, PredictorKind::Gshare);
            let mut sim = Simulator::new(w.program(), config);
            for _ in 0..1_500 {
                sim.step_cycle();
            }
            let prefix = sim.stats().clone();
            for _ in 0..2_500 {
                sim.step_cycle();
            }
            let full = sim.stats().clone();
            let window = full.subtracting(&prefix);
            assert!(
                window.activity.rf_reads_total() > 0,
                "{machine:?}: the window must observe activity"
            );
            let mut recombined = prefix.clone();
            recombined.accumulate(&window);
            assert_eq!(recombined, full, "{machine:?} window fold");
        }
    }

    #[test]
    fn stats_accessors_and_result_fields() {
        let program = microbenchmark();
        let config = SimConfig::machine(MachineKind::msp(16), PredictorKind::Tage);
        let mut sim = Simulator::new(&program, config);
        assert_eq!(sim.stats().cycles, 0);
        let result = sim.run(1_000);
        assert_eq!(result.machine, "16-SP");
        assert_eq!(result.predictor, "TAGE");
        assert_eq!(sim.config().machine, MachineKind::msp(16));
    }
}
