//! The cycle-level out-of-order timing simulator.
//!
//! One [`Simulator`] models one machine (Baseline, CPR or MSP) running one
//! program. Its state management is one [`Scheme`] component, picked once
//! from the configuration; the core around it is generic over the scheme,
//! so its stages name no machine. The per-cycle loop processes, in order:
//! writeback (and branch recovery), commit/retire, issue, rename/dispatch
//! and fetch. Correct-path instructions carry their functional results from
//! the [`Oracle`]; wrong-path instructions are fetched from the static
//! program image beyond the mispredicted branch and executed with synthetic
//! operands, so the wrong-path work of Fig. 9 is measured rather than
//! estimated.

use crate::config::{MachineKind, SimConfig};
use crate::oracle::{Oracle, TraceSource};
use crate::scheme::{Cpr, Rob, Scheme};
use crate::stats::SimStats;
use msp_branch::{build_predictor, Btb, ConfidenceEstimator, DirectionPredictor, ReturnStack};
use msp_isa::{ArchReg, ExecutedInst, FuClass, Program};
use msp_mem::{
    HierarchicalStoreQueue, LoadQueue, MemoryHierarchy, SimpleStoreQueue, StoreQueue,
    StoreQueueEntry,
};
use msp_state::MspScheme;
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
pub(crate) enum Status {
    /// Dispatched, waiting in the issue queue.
    Waiting,
    /// Issued to a functional unit, executing.
    Executing,
    /// Execution finished.
    Done,
}

/// One in-flight dynamic instruction, with the state its scheme keeps for
/// it in `tag`.
///
/// The struct is fully inline (no heap indirection), so pushing, squashing
/// and retiring window entries never allocates.
#[derive(Debug, Clone)]
pub(crate) struct InFlight<T> {
    pub(crate) seq: u64,
    pub(crate) oracle_idx: Option<u64>,
    rec: ExecutedInst,
    pub(crate) status: Status,
    complete_cycle: u64,
    pub(crate) deps: [Option<u64>; 2],
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
    pub(crate) iq_slot: Option<usize>,
    pub(crate) dest: Option<ArchReg>,
    /// Misprediction discovered at fetch time, resolved at completion.
    mispredicted: bool,
    pub(crate) tag: T,
}

/// The in-flight instructions: a *contiguous* run of sequence numbers
/// (recoveries rewind `next_seq` to the squash point), so locating an
/// instruction is a constant-time offset from the head.
pub(crate) type Window<T> = VecDeque<InFlight<T>>;

/// Locates an in-flight instruction in O(1).
pub(crate) fn window_index<T>(window: &Window<T>, seq: u64) -> Option<usize> {
    let head = window.front()?.seq;
    let idx = seq.checked_sub(head)? as usize;
    if idx < window.len() {
        debug_assert_eq!(window[idx].seq, seq, "window must stay seq-contiguous");
        Some(idx)
    } else {
        None
    }
}

/// Inline per-producer wakeup-list capacity (see `InFlight::waiters`).
const MAX_WAITERS: usize = 4;

/// An instruction waiting in the front end between fetch and rename.
#[derive(Debug, Clone)]
pub(crate) struct Fetched {
    pub(crate) oracle_idx: Option<u64>,
    pub(crate) rec: ExecutedInst,
    ready_cycle: u64,
    mispredicted: bool,
    pub(crate) low_confidence: bool,
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
/// in-flight window, queues, state-management scheme) always starts empty
/// at a resume. A `WarmState` can be absorbed forward along a trace and
/// cloned at interval boundaries, which is how `Lab::run` gives every
/// sampled interval the warm history of the entire prefix at a functional —
/// not detailed — price.
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
    /// Fresh, untrained warm structures for `config`.
    fn cold(config: &SimConfig) -> WarmState {
        WarmState {
            memory: MemoryHierarchy::new(config.memory),
            predictor: build_predictor(config.predictor),
            confidence: ConfidenceEstimator::paper(),
            btb: Btb::default_config(),
            ras: ReturnStack::default(),
            last_fetch_line: u64::MAX,
        }
    }

    /// Fresh warm structures for `config`, pre-warmed with the program's
    /// **static** working set: the text segment (I-side) and the per-PC
    /// wrong-path pseudo addresses of [`Simulator`]'s wrong-path model
    /// (D-side). Both are resident in any long-running machine; without the
    /// pre-warm, a resumed interval would take a memory-latency miss on
    /// every early misprediction and wedge its window on wrong-path loads.
    pub fn for_config(program: &Program, config: &SimConfig) -> WarmState {
        let mut warm = WarmState::cold(config);
        for (pc, inst) in program.iter() {
            warm.memory.fetch_latency(pc);
            if inst.is_load() {
                warm.memory.load_latency(wrong_path_address(pc));
            } else if inst.is_store() {
                warm.memory.store_commit(wrong_path_address(pc));
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

/// Deterministic pseudo effective address for wrong-path memory
/// instructions: stays in the data region, 8-byte aligned.
fn wrong_path_address(pc: u64) -> u64 {
    0x10_0000 + (pc.wrapping_mul(0x9e37_79b9_7f4a_7c15) & 0xf_fff8)
}

/// The timing simulator for one machine and one program.
pub struct Simulator<'p> {
    /// The core of the configured scheme: one dynamic call per run, none
    /// per instruction.
    core: Box<dyn Engine + 'p>,
}

/// What [`Simulator`] asks of its core.
trait Engine {
    fn run(&mut self, max_instructions: u64) -> SimResult;
    fn step_cycle(&mut self);
    fn stats(&self) -> &SimStats;
    fn measurement_start(&self) -> u64;
}

impl<'p> Simulator<'p> {
    /// Creates a simulator for `program` with the given configuration and a
    /// private oracle: the functional model executes lazily inside this
    /// simulator alone.
    pub fn new(program: &'p Program, config: SimConfig) -> Self {
        Simulator::build(program, config, Oracle::new(program), 0, None)
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
        let oracle = Oracle::with_trace(program, trace);
        Simulator::build(program, config, oracle, 0, None)
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
            return Simulator::build(program, config, oracle, checkpoint_index, None);
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
        Simulator::build(program, config, oracle, start, Some(warm))
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
        Simulator::build(program, config, oracle, checkpoint_index, Some(warm))
    }

    /// Panics unless the trace records a checkpoint at `checkpoint_index`.
    /// Release builds only ask whether it exists. In debug builds the
    /// checkpoint invariant is re-proved on **every** resume (`resume_from`
    /// and `resume_warmed` alike): functional execution from the decoded
    /// checkpoint must reproduce the trace's own records bit-identically
    /// over the longer of 512 records and the warm-up window, as far as the
    /// trace reaches.
    fn checkpoint_or_panic(
        program: &Program,
        trace: &mut TraceSource,
        checkpoint_index: u64,
        warmup_len: u64,
    ) {
        if !trace.has_checkpoint_at(checkpoint_index) {
            panic!(
                "resume_from requires an architectural checkpoint at index \
                 {checkpoint_index} (trace interval: {})",
                trace.checkpoint_interval()
            );
        }
        #[cfg(debug_assertions)]
        {
            const VALIDATION_WINDOW: u64 = 512;
            let mut state = trace
                .checkpoint_at(checkpoint_index)
                .expect("the trace lists a checkpoint it cannot decode");
            assert_eq!(
                state.retired(),
                checkpoint_index,
                "a checkpoint's position is its retired-instruction count"
            );
            let end = checkpoint_index.saturating_add(warmup_len.max(VALIDATION_WINDOW));
            for index in checkpoint_index..end {
                let Some(&expected) = trace.get(program, index) else {
                    break;
                };
                let rec = msp_isa::execute_step(&mut state, program)
                    .expect("checkpointed execution reproduces the trace");
                assert_eq!(expected, rec, "checkpoint-replay record {index}");
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = (program, warmup_len);
    }

    /// Picks the configured scheme's core, measuring from trace index
    /// `start` with `warm` structures (fresh ones when `None`).
    fn build(
        program: &'p Program,
        config: SimConfig,
        oracle: Oracle<'p>,
        start: u64,
        warm: Option<WarmState>,
    ) -> Self {
        let core: Box<dyn Engine + 'p> = match config.machine {
            MachineKind::Baseline => {
                Box::new(Core::<Rob>::new(program, config, oracle, start, warm))
            }
            MachineKind::Cpr { .. } => {
                Box::new(Core::<Cpr>::new(program, config, oracle, start, warm))
            }
            MachineKind::Msp { .. } | MachineKind::IdealMsp => {
                Box::new(Core::<MspScheme>::new(program, config, oracle, start, warm))
            }
        };
        Simulator { core }
    }

    /// First trace index of the measured region (0 for a non-resumed run).
    pub fn measurement_start(&self) -> u64 {
        self.core.measurement_start()
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SimStats {
        self.core.stats()
    }

    /// Runs the simulation until `max_instructions` correct-path instructions
    /// have committed, the program finishes, or progress stops (watchdog).
    pub fn run(&mut self, max_instructions: u64) -> SimResult {
        self.core.run(max_instructions)
    }

    /// Advances the machine by one clock cycle.
    pub fn step_cycle(&mut self) {
        self.core.step_cycle();
    }
}

/// The simulator core of one scheme.
struct Core<'p, S: Scheme> {
    config: SimConfig,
    oracle: Oracle<'p>,
    program: &'p Program,
    /// Caches, branch predictors, BTB and return stack.
    warm: WarmState,
    // Front end.
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
    window: Window<S::Tag>,
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
    /// This cycle's renamings of each logical register.
    renamed: [u16; msp_isa::NUM_LOGICAL_REGS],
    iq_free: Vec<usize>,
    iq_occupancy: usize,
    last_writer: [Option<u64>; msp_isa::NUM_LOGICAL_REGS],
    scheme: S,
    /// The scheme's dispatch limits (see [`Scheme::dispatch_limits`]).
    window_cap: usize,
    same_reg_limit: usize,
    load_queue: LoadQueue,
    store_queue: Box<dyn StoreQueue>,
    // Progress tracking.
    cycle: u64,
    next_seq: u64,
    executed_once: Vec<bool>,
    stats: SimStats,
}

impl<S: Scheme> Engine for Core<'_, S> {
    fn run(&mut self, max_instructions: u64) -> SimResult {
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

    fn step_cycle(&mut self) {
        self.cycle += 1;
        self.stats.cycles += 1;
        self.scheme.begin_cycle();
        self.writeback_stage();
        self.commit_stage();
        self.issue_stage();
        self.dispatch_stage();
        self.fetch_stage();
    }

    fn stats(&self) -> &SimStats {
        &self.stats
    }

    fn measurement_start(&self) -> u64 {
        self.oracle_origin
    }
}

impl<'p, S: Scheme> Core<'p, S> {
    fn new(
        program: &'p Program,
        config: SimConfig,
        oracle: Oracle<'p>,
        start: u64,
        warm: Option<WarmState>,
    ) -> Self {
        let store_queue: Box<dyn StoreQueue> = if config.resources.sq_l2_size == 0 {
            Box::new(SimpleStoreQueue::new(config.resources.sq_l1_size))
        } else {
            Box::new(HierarchicalStoreQueue::new(
                config.resources.sq_l1_size,
                config.resources.sq_l2_size,
                config.resources.sq_l2_scan_latency,
            ))
        };
        let (window_cap, same_reg_limit) = S::dispatch_limits(&config);
        Core {
            oracle,
            program,
            warm: warm.unwrap_or_else(|| WarmState::cold(&config)),
            fetch_queue: VecDeque::new(),
            next_oracle_idx: start,
            oracle_origin: start,
            wrong_path_pc: None,
            fetch_stalled_until: 0,
            oracle_done: false,
            window: VecDeque::new(),
            waiting: Vec::new(),
            completion_events: BinaryHeap::new(),
            renamed: [0; msp_isa::NUM_LOGICAL_REGS],
            iq_free: (0..config.resources.iq_size).rev().collect(),
            iq_occupancy: 0,
            last_writer: [None; msp_isa::NUM_LOGICAL_REGS],
            scheme: S::new(&config, start),
            window_cap,
            same_reg_limit,
            load_queue: LoadQueue::new(config.resources.lq_size),
            store_queue,
            cycle: 0,
            next_seq: 0,
            executed_once: Vec::new(),
            stats: SimStats::default(),
            config,
        }
    }

    // ----------------------------------------------------------------- util

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
            let Some(widx) = window_index(&self.window, waiter) else {
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
        match window_index(&self.window, seq) {
            Some(idx) => self.window[idx].status == Status::Done,
            // Not in the window any more: it committed (or was squashed, in
            // which case no surviving instruction depends on it).
            None => true,
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
            let Some(idx) = window_index(&self.window, seq) else {
                continue;
            };
            let inst = &mut self.window[idx];
            if inst.status != Status::Executing || inst.complete_cycle != event_cycle {
                continue;
            }
            // A completion waits a cycle when its bank's single write port is
            // already taken (MSP write-port arbitration).
            if !self.scheme.complete(seq, &inst.tag) {
                self.stats.port_conflicts += 1;
                inst.complete_cycle = self.cycle + 1;
                self.completion_events.push(Reverse((self.cycle + 1, seq)));
                continue;
            }
            inst.status = Status::Done;
            self.wake_waiters(idx);
            let inst = &mut self.window[idx];
            // Register-file write accounting: the produced value drains to
            // its bank this cycle (post-grant on arbitrated machines). A
            // logical register's flat index is its MSP bank.
            if let Some(dest) = inst.dest {
                self.stats.activity.rf_writes[dest.flat_index()] += 1;
            }
            // An instruction the scheme let keep its IQ slot past issue
            // releases it now.
            if let Some(slot) = inst.iq_slot.take() {
                self.iq_free.push(slot);
            }
            if inst.rec.inst.is_load() {
                self.stats.activity.lq_searches += 1;
                self.load_queue.remove(seq);
            }
            // Branch resolution: the oldest mispredicted branch on the
            // correct path triggers a recovery.
            if inst.mispredicted && inst.oracle_idx.is_some() && recovery.is_none() {
                recovery = Some(seq);
            }
        }
        if let Some(branch_seq) = recovery {
            self.recover_from(branch_seq);
        }
    }

    // -------------------------------------------------------------- recover

    fn recover_from(&mut self, branch_seq: u64) {
        let branch = &self.window
            [window_index(&self.window, branch_seq).expect("recovering branch is in flight")];
        let branch_oracle = branch
            .oracle_idx
            .expect("only correct-path branches trigger recovery");
        let branch_tag = branch.tag;
        self.stats.recoveries += 1;
        let (squash_from_seq, restart_oracle_idx) =
            self.scheme
                .squash_point(branch_seq, branch_oracle, &mut self.stats);

        // Squash every in-flight instruction at or beyond the squash point
        // (youngest first), processing each entry as it is popped.
        while self.window.back().is_some_and(|i| i.seq >= squash_from_seq) {
            let inst = self.window.pop_back().expect("back checked above");
            if inst.status == Status::Waiting {
                self.iq_occupancy -= 1;
            }
            if let Some(slot) = inst.iq_slot {
                self.iq_free.push(slot);
            }
            self.scheme.release(&inst);
        }
        // Rewind the sequence counter so the window stays contiguous: the
        // squashed numbers are reassigned to the re-fetched instructions.
        // Every structure keyed by a squashed seq is purged here so a stale
        // entry can never alias a reassigned number.
        self.next_seq = squash_from_seq;
        self.waiting
            .truncate(self.waiting.partition_point(|seq| *seq < squash_from_seq));
        self.completion_events
            .retain(|&Reverse((_, seq))| seq < squash_from_seq);
        self.load_queue
            .squash_younger(squash_from_seq.saturating_sub(1));
        self.scheme
            .recover(&branch_tag, squash_from_seq, &mut *self.store_queue);

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
        self.audit_recovery(&branch_tag);
    }

    /// Post-recovery invariant audit (the full-scale sibling of the
    /// `msp-check` explorer's assertions): the window stayed contiguous,
    /// every seq-keyed side structure was purged of squashed entries, and
    /// the scheme accepts every survivor (on MSP machines: the rename map
    /// rewound exactly to the recovery state). Compiled only into debug
    /// builds and `invariant_audit` builds; release hot paths never execute
    /// it.
    #[cfg(any(debug_assertions, feature = "invariant_audit"))]
    fn audit_recovery(&self, recovered: &S::Tag) {
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
            self.waiting
                .iter()
                .all(|s| window_index(&self.window, *s).is_some()),
            "issue wait-list must not retain squashed seqs"
        );
        for &Reverse((_, seq)) in &self.completion_events {
            assert!(
                seq < self.next_seq,
                "completion event survived for squashed seq {seq}"
            );
        }
        for inst in &self.window {
            let youngest = inst
                .dest
                .is_some_and(|d| self.last_writer[d.flat_index()] == Some(inst.seq));
            self.scheme.audit_survivor(recovered, inst, youngest);
        }
    }

    // --------------------------------------------------------------- commit

    /// Retires what the scheme commits this cycle, oldest first, then
    /// drains every store older than its boundary to memory: one D-cache
    /// access each, plus an L2 access when the line was not resident in the
    /// D-cache.
    fn commit_stage(&mut self) {
        let drained = self.oracle_done && self.fetch_queue.is_empty();
        let (retiring, boundary_seq) =
            self.scheme
                .commit(&mut self.window, self.next_seq, drained, &mut self.stats);
        for inst in self.window.drain(..retiring) {
            self.stats.committed += u64::from(inst.oracle_idx.is_some());
            self.scheme.release(&inst);
        }
        let memory = &mut self.warm.memory;
        let activity = &mut self.stats.activity;
        self.store_queue
            .drain_committed_with(boundary_seq, &mut |drained| {
                activity.dcache_accesses += 1;
                if !memory.store_commit(drained.addr) {
                    activity.l2_accesses += 1;
                }
            });
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
            let Some(idx) = window_index(&self.window, seq) else {
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
            // Read-port arbitration: one read port per bank per cycle,
            // requested once for each distinct source bank.
            let inst = &self.window[idx];
            let Some(read_banks) = self.scheme.read(&inst.tag, &inst.rec.inst) else {
                self.stats.port_conflicts += 1;
                continue;
            };
            *pool_used += 1;
            issued += 1;
            self.waiting[i] = ISSUED;
            picked_any = true;
            self.issue_instruction(idx, read_banks);
        }
        if picked_any {
            self.waiting.retain(|seq| *seq != ISSUED);
        }
    }

    fn issue_instruction(&mut self, idx: usize, read_banks: [Option<usize>; 2]) {
        let seq = self.window[idx].seq;
        let class = self.window[idx].rec.inst.fu_class();
        let mut latency = self.config.latency.for_class(class);
        let rec = self.window[idx].rec;
        // Register-file read accounting: one access per distinct source
        // bank, exactly what the 1R-port arbitration rule charges.
        for bank in read_banks.into_iter().flatten() {
            self.stats.activity.rf_reads[bank] += 1;
        }
        if rec.inst.is_load() {
            let addr = rec.mem_addr.unwrap_or_else(|| wrong_path_address(rec.pc));
            self.stats.activity.sq_searches += 1;
            let fwd = self
                .store_queue
                .forward(addr, rec.inst.width().bytes(), seq);
            if fwd.is_hit() {
                self.stats.store_forwards += 1;
                latency += fwd.latency() + 1;
            } else {
                self.stats.activity.dcache_accesses += 1;
                let mem_latency = self.warm.memory.load_latency(addr);
                if mem_latency > self.warm.memory.config().dl1.hit_latency {
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
        // Free the issue-queue entry, unless the scheme keeps it until
        // completion.
        self.iq_occupancy -= 1;
        if !self.scheme.issue(&mut self.window, idx) {
            if let Some(slot) = self.window[idx].iq_slot.take() {
                self.iq_free.push(slot);
            }
        }
        self.window[idx].status = Status::Executing;
        let complete_cycle = self.cycle + latency.max(1);
        self.window[idx].complete_cycle = complete_cycle;
        self.completion_events.push(Reverse((complete_cycle, seq)));
    }

    // ------------------------------------------------------------- dispatch

    /// Dispatches up to `rename_width` instructions, stopping at the first
    /// stall and counting its cause.
    fn dispatch_stage(&mut self) {
        // Per-cycle renamings of each logical register (Section 3.3).
        self.renamed = [0; msp_isa::NUM_LOGICAL_REGS];
        for _ in 0..self.config.frontend.rename_width {
            let stalls = &mut self.stats.stalls;
            let Some(front) = self.fetch_queue.front() else {
                stalls.frontend_empty += 1;
                break;
            };
            let (inst, dest) = (front.rec.inst, front.rec.inst.dest());
            let renamed = dest.map(|d| usize::from(self.renamed[d.flat_index()]));
            let stall = if front.ready_cycle > self.cycle {
                &mut stalls.frontend_empty
            } else if renamed.is_some_and(|n| n >= self.same_reg_limit) {
                &mut stalls.same_reg_limit
            } else if self.iq_free.is_empty() || self.iq_occupancy >= self.config.resources.iq_size
            {
                &mut stalls.iq_full
            } else if self.window.len() >= self.window_cap {
                &mut stalls.rob_full
            } else if inst.is_load() && self.load_queue.is_full() {
                &mut stalls.lq_full
            } else if inst.is_store() && self.store_queue.is_full() {
                &mut stalls.sq_full
            } else if self.rename_and_dispatch_front() {
                if let Some(d) = dest {
                    self.renamed[d.flat_index()] += 1;
                }
                continue;
            } else {
                break;
            };
            *stall += 1;
            break;
        }
    }

    /// Renames and dispatches the head of the fetch queue. Returns false
    /// when the scheme stalls it.
    fn rename_and_dispatch_front(&mut self) -> bool {
        let front = self
            .fetch_queue
            .front()
            .expect("caller checked the fetch queue is non-empty");
        let slot = *self.iq_free.last().expect("IQ capacity checked earlier");
        let Some(tag) = self
            .scheme
            .rename(front, self.next_seq, slot, &mut self.stats)
        else {
            return false;
        };
        let front = self.fetch_queue.pop_front().expect("front inspected above");
        let inst = front.rec.inst;
        let dest = inst.dest();
        self.stats.activity.rename_lookups += 1;
        let iq_slot = self.iq_free.pop().expect("IQ capacity checked earlier");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.iq_occupancy += 1;

        // Generic dependence tracking against the youngest in-flight writer.
        let mut deps = [None, None];
        for (i, src) in inst.sources().enumerate().take(2) {
            if let Some(writer) = self.last_writer[src.flat_index()] {
                if !self.is_seq_done(writer) {
                    deps[i] = Some(writer);
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
            window_index(&self.window, *producer)
                .map(|pidx| (self.window[pidx].waiter_count as usize) < MAX_WAITERS)
                .unwrap_or(false)
        });
        if can_sleep {
            for producer in distinct_producers.iter().flatten() {
                let pidx =
                    window_index(&self.window, *producer).expect("checked by can_sleep above");
                let inst = &mut self.window[pidx];
                inst.waiters[inst.waiter_count as usize] = seq;
                inst.waiter_count += 1;
                deps_pending += 1;
            }
        }
        // The previous writer of a correct-path destination is superseded;
        // a squashed wrong path supersedes nothing.
        let superseded = match (dest, front.oracle_idx) {
            (Some(d), Some(_)) => self.last_writer[d.flat_index()],
            _ => None,
        };
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
                .unwrap_or_else(|| wrong_path_address(front.rec.pc));
            // Every scheme tags stores with the sequence number: commit
            // drains up to a retirement boundary. Records carry no values,
            // and a load reads only whether and how fast a store forwards,
            // so every entry holds value 0.
            self.store_queue.insert(StoreQueueEntry {
                seq,
                tag: seq,
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
            tag,
        });
        self.scheme.dispatched(&mut self.window, superseded);
        if deps_pending == 0 {
            self.waiting.push(seq);
        }
        true
    }

    // ---------------------------------------------------------------- fetch

    fn fetch_stage(&mut self) {
        // A redirect stalls fetch, and the fetch/decode buffer is bounded.
        if self.cycle < self.fetch_stalled_until
            || self.fetch_queue.len() >= 4 * self.config.frontend.fetch_width
        {
            return;
        }
        let mut fetched = 0;
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
            let icache_extra = if fetched == 0 {
                self.stats.activity.icache_accesses += 1;
                let il1_hit = self.warm.memory.config().il1.hit_latency;
                let latency = self.warm.memory.fetch_latency(rec.pc);
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

            // Advance the fetch stream. After a misprediction, fetch goes
            // down the predicted (wrong) path until the branch resolves.
            if oracle_idx.is_some() {
                self.next_oracle_idx += 1;
            }
            if oracle_idx.is_none() || mispredicted {
                self.wrong_path_pc = Some(predicted_next_pc);
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
            mem_addr: inst.is_mem().then(|| wrong_path_address(pc)),
            halted: false,
        }
    }

    /// Produces the branch prediction for a fetched instruction. Returns
    /// `(mispredicted, low_confidence, predicted_next_pc)`.
    fn predict(&mut self, rec: &ExecutedInst, oracle_idx: Option<u64>) -> (bool, bool, u64) {
        let (inst, pc) = (rec.inst, rec.pc);
        let fallthrough = pc.wrapping_add(4);
        let (activity, warm) = (&mut self.stats.activity, &mut self.warm);
        // The predicted next PC and its confidence, and a conditional
        // branch's predicted direction.
        let (predicted, low_confidence, taken) = if inst.is_conditional_branch() {
            activity.predictor_lookups += 1;
            let taken = warm.predictor.predict(pc);
            let target = inst.target().expect("conditional branches carry a target");
            let low_confidence = !warm.confidence.is_high_confidence(pc);
            let next = if taken { target } else { fallthrough };
            (Some(next), low_confidence, Some(taken))
        } else if inst.is_indirect() {
            // Returns consult the return stack first, other indirect jumps
            // the BTB.
            let from_ras = if inst.is_return() {
                activity.ras_ops += 1;
                warm.ras.pop()
            } else {
                None
            };
            let predicted = from_ras.or_else(|| {
                activity.btb_lookups += 1;
                warm.btb.lookup(pc)
            });
            (predicted, true, None)
        } else {
            // Other instructions fall through; direct jumps and calls know
            // their target at fetch.
            if inst.is_call() {
                activity.ras_ops += 1;
                warm.ras.push(fallthrough);
            }
            let next = if inst.is_control() {
                inst.target().expect("direct jumps and calls carry targets")
            } else {
                fallthrough
            };
            return (false, false, oracle_idx.map_or(next, |_| rec.next_pc));
        };
        let Some(idx) = oracle_idx else {
            return (false, low_confidence, predicted.unwrap_or(fallthrough));
        };
        // A branch whose outcome was already resolved by a previous execution
        // (CPR re-fetch after rollback) does not re-mispredict: the machine
        // reuses the recorded outcome, and the first execution trained the
        // predictor.
        debug_assert!(idx >= self.oracle_origin, "fetch never precedes the origin");
        let offset = (idx - self.oracle_origin) as usize;
        if self.executed_once.get(offset).copied().unwrap_or(false) {
            return (false, low_confidence, rec.next_pc);
        }
        let mispredicted = match taken {
            Some(taken) => {
                activity.predictor_lookups += 1;
                warm.predictor.update(pc, rec.taken);
                warm.confidence.update(pc, taken == rec.taken, rec.taken);
                taken != rec.taken
            }
            None => {
                activity.btb_lookups += 1;
                warm.btb.update(pc, rec.next_pc);
                predicted != Some(rec.next_pc)
            }
        };
        let next = if mispredicted {
            predicted.unwrap_or(fallthrough)
        } else {
            rec.next_pc
        };
        (mispredicted, low_confidence, next)
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
            if matches!(machine, MachineKind::Msp { .. } | MachineKind::IdealMsp) {
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

    /// Recovery's store-queue squash lives in the MSP component, and the
    /// simulator runs it: with `skip-storequeue-squash` armed, the wrong-path
    /// stores of vpr's mispredicted branches outlive recovery and the run
    /// diverges from the disarmed one. In debug builds the store queue's
    /// program-order check panics at the first store dispatched behind a
    /// stale one, which is the same divergence caught earlier.
    #[cfg(msp_check_mutation)]
    #[test]
    fn skipping_the_store_queue_squash_diverges_an_msp_run() {
        let w = by_name("vpr", Variant::Original).unwrap();
        let run = || run_machine(w.program(), MachineKind::msp(16), 5_000);
        let clean = run();
        assert!(!clean.truncated_by_watchdog);
        assert!(clean.stats.mispredictions > 0 && clean.stats.executed.wrong_path > 0);
        msp_state::mutation::set_active(Some("skip-storequeue-squash"));
        let armed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
        msp_state::mutation::set_active(None);
        match armed {
            Ok(armed) => assert!(
                armed.truncated_by_watchdog || armed.stats != clean.stats,
                "the armed run matched the clean one"
            ),
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                assert!(message.contains("program order"), "{message}");
            }
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
    }
}
