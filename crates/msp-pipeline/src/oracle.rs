//! The functional oracle: a replayable stream of correct-path dynamic
//! instructions backed by a shared, immutable [`Trace`].
//!
//! The timing simulator is execution-driven: correct-path instructions carry
//! the branch outcomes and effective addresses the functional executor
//! produced. Because CPR rolls back to checkpoints and re-dispatches
//! instructions that already executed, the oracle must be *replayable* —
//! asking for the same dynamic index after a rollback returns the identical
//! record without re-running the functional model.
//!
//! Historically every simulator owned a private oracle that functionally
//! re-executed the whole program into a private `Vec`. The oracle is now a
//! thin cursor over a [`TraceSource`] — either a shared in-memory
//! [`Arc<Trace>`] (the materialised committed-path prefix, shared
//! **read-only** across every machine, predictor and sweep thread simulating
//! the same workload, where [`Oracle::get`] on the hot fetch path is a
//! bounds-checked slice read) or a streaming [`TraceCursor`] over an on-disk
//! compressed trace file, which decodes one block at a time so instruction
//! budgets far larger than RAM simulate in bounded memory. Only if the
//! simulator fetches *past* the materialised end does the oracle lazily
//! extend — it clones the trace's end state once and continues functional
//! execution into a small private tail, which by determinism of the
//! functional model yields exactly the records a longer capture would have
//! produced.

use msp_isa::{execute_step, ArchState, ExecError, ExecutedInst, Program, Trace, TraceCursor};
use std::sync::Arc;

/// The backing tier an [`Oracle`] serves its materialised prefix from.
///
/// Both variants expose the same committed-path records; they differ only in
/// where the bytes live. `Materialised` is the classic shared in-memory
/// [`Trace`] — a bounds-checked slice read per lookup, the cheapest possible
/// hot path. `Streaming` wraps a [`TraceCursor`] over an on-disk compressed
/// trace file: lookups decode one block at a time into a small LRU window, so
/// a budget far larger than RAM simulates in bounded memory. Because the
/// records are bit-identical by construction (the trace-file round trip is
/// property-tested in `msp-isa`), the simulator's statistics are bit-identical
/// across the two tiers.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// A fully in-memory trace, shared read-only across simulators.
    Materialised(Arc<Trace>),
    /// A bounded-memory streaming cursor over an on-disk trace file (boxed:
    /// the cursor's decode window is much larger than the `Arc`).
    Streaming(Box<TraceCursor>),
}

impl TraceSource {
    /// Number of materialised records in the source.
    pub fn len(&self) -> u64 {
        match self {
            TraceSource::Materialised(trace) => trace.len(),
            TraceSource::Streaming(cursor) => cursor.len(),
        }
    }

    /// Whether the source holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the program finished within the materialised records.
    pub fn is_complete(&self) -> bool {
        match self {
            TraceSource::Materialised(trace) => trace.is_complete(),
            TraceSource::Streaming(cursor) => cursor.is_complete(),
        }
    }

    /// Committed instructions between architectural checkpoints (`0` = none).
    pub fn checkpoint_interval(&self) -> u64 {
        match self {
            TraceSource::Materialised(trace) => trace.checkpoint_interval(),
            TraceSource::Streaming(cursor) => cursor.checkpoint_interval(),
        }
    }

    /// The record at dynamic index `index`, or `None` past the materialised
    /// end. Takes `&mut self` because the streaming tier may have to decode
    /// the enclosing block into its window; `program` must be the program the
    /// trace was captured from (streaming decode re-fetches instructions).
    pub fn get(&mut self, program: &Program, index: u64) -> Option<&ExecutedInst> {
        match self {
            TraceSource::Materialised(trace) => trace.get(index),
            TraceSource::Streaming(cursor) => cursor.get(program, index),
        }
    }

    /// An owned clone of the functional state immediately after the last
    /// materialised record (the streaming tier decodes it lazily on first
    /// use, hence `&mut self`).
    pub fn end_state_cloned(&mut self) -> ArchState {
        match self {
            TraceSource::Materialised(trace) => trace.end_state().clone(),
            TraceSource::Streaming(cursor) => cursor.end_state().clone(),
        }
    }

    /// An owned clone of the architectural checkpoint positioned before
    /// record `index`, with the same `None` conditions as
    /// [`Trace::checkpoint_at`].
    pub fn checkpoint_at(&mut self, index: u64) -> Option<ArchState> {
        match self {
            TraceSource::Materialised(trace) => trace.checkpoint_at(index).cloned(),
            TraceSource::Streaming(cursor) => cursor.checkpoint_at(index),
        }
    }

    /// Whether [`TraceSource::checkpoint_at`] would find a checkpoint at
    /// `index`, without decoding it.
    pub fn has_checkpoint_at(&self, index: u64) -> bool {
        match self {
            TraceSource::Materialised(trace) => trace.checkpoint_at(index).is_some(),
            TraceSource::Streaming(cursor) => cursor.reader().has_checkpoint_at(index),
        }
    }
}

impl From<Arc<Trace>> for TraceSource {
    fn from(trace: Arc<Trace>) -> Self {
        TraceSource::Materialised(trace)
    }
}

impl From<Trace> for TraceSource {
    fn from(trace: Trace) -> Self {
        TraceSource::Materialised(Arc::new(trace))
    }
}

impl From<TraceCursor> for TraceSource {
    fn from(cursor: TraceCursor) -> Self {
        TraceSource::Streaming(Box::new(cursor))
    }
}

/// A replayable correct-path instruction stream: a shared materialised
/// prefix plus a lazily executed private tail.
#[derive(Debug, Clone)]
pub struct Oracle<'p> {
    program: &'p Program,
    /// The shared, immutable committed-path prefix (in-memory or on-disk).
    shared: TraceSource,
    /// Private records past the shared prefix, lazily materialised.
    tail: Vec<ExecutedInst>,
    /// Functional state positioned after the last tail record; cloned from
    /// the trace's end state on the first extension, `None` before that.
    state: Option<Box<ArchState>>,
    finished: bool,
}

impl<'p> Oracle<'p> {
    /// Creates a private oracle for a program, starting from its initial
    /// state with nothing materialised (every record is produced lazily).
    pub fn new(program: &'p Program) -> Self {
        Oracle::with_trace(program, Arc::new(Trace::empty(program)))
    }

    /// Creates an oracle backed by a shared trace of `program` — either an
    /// in-memory `Arc<Trace>` or a streaming [`TraceCursor`] (anything
    /// convertible into a [`TraceSource`]).
    ///
    /// The trace must have been captured from this very program; records are
    /// served from it without re-execution, and indices past its end are
    /// materialised lazily from its end state.
    pub fn with_trace(program: &'p Program, trace: impl Into<TraceSource>) -> Self {
        let shared = trace.into();
        Oracle {
            program,
            finished: shared.is_complete(),
            shared,
            tail: Vec::new(),
            state: None,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Returns the dynamic instruction at `index` (0-based program order),
    /// extending the functional model past the shared prefix as far as
    /// needed. Returns `None` once the program has halted (or left the text
    /// segment) before `index`.
    #[inline]
    pub fn get(&mut self, index: u64) -> Option<&ExecutedInst> {
        // Hot path: the record is in the shared materialised prefix.
        if index < self.shared.len() {
            return self.shared.get(self.program, index);
        }
        self.get_tail(index)
    }

    /// Cold path of [`Oracle::get`]: the record lies past the shared prefix.
    fn get_tail(&mut self, index: u64) -> Option<&ExecutedInst> {
        let tail_index = (index - self.shared.len()) as usize;
        while !self.finished && self.tail.len() <= tail_index {
            if self.state.is_none() {
                self.state = Some(Box::new(self.shared.end_state_cloned()));
            }
            let state = self.state.as_mut().expect("state initialised above");
            match execute_step(state, self.program) {
                Ok(rec) => {
                    if rec.halted {
                        self.finished = true;
                    }
                    self.tail.push(rec);
                }
                Err(ExecError::Halted) | Err(ExecError::OutOfRange(_)) => {
                    self.finished = true;
                }
            }
        }
        self.tail.get(tail_index)
    }

    /// Number of dynamic instructions materialised so far (shared prefix
    /// plus the private tail).
    pub fn materialised(&self) -> u64 {
        self.shared.len() + self.tail.len() as u64
    }

    /// Number of records served from the shared trace rather than executed
    /// privately (diagnostics for the trace-cache hit rate).
    pub fn shared_len(&self) -> u64 {
        self.shared.len()
    }

    /// Whether the program reached a halt (no more records will appear).
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_isa::{ArchReg, Instruction};

    fn counted_loop() -> Program {
        let r = ArchReg::int;
        Program::new(vec![
            Instruction::li(r(1), 3),
            Instruction::addi(r(1), r(1), -1),
            Instruction::bne(r(1), ArchReg::ZERO, msp_isa::TEXT_BASE + 4),
            Instruction::halt(),
        ])
    }

    #[test]
    fn lazy_extension_and_replay() {
        let p = counted_loop();
        let mut oracle = Oracle::new(&p);
        assert_eq!(oracle.materialised(), 0);
        let rec5 = *oracle.get(5).unwrap();
        assert!(oracle.materialised() >= 6);
        // Replay: asking again returns the identical record.
        assert_eq!(*oracle.get(5).unwrap(), rec5);
        // Earlier records are also available without re-execution.
        let rec0 = *oracle.get(0).unwrap();
        assert_eq!(rec0.pc, p.entry());
    }

    #[test]
    fn finishes_at_halt() {
        let p = counted_loop();
        let mut oracle = Oracle::new(&p);
        // 1 li + 3*(addi+bne) + halt = 8 records.
        assert!(oracle.get(7).unwrap().halted);
        assert!(oracle.get(8).is_none());
        assert!(oracle.is_finished());
        assert_eq!(oracle.materialised(), 8);
        assert_eq!(oracle.program().len(), 4);
    }

    #[test]
    fn infinite_programs_keep_producing() {
        let r = ArchReg::int;
        let p = Program::new(vec![
            Instruction::addi(r(1), r(1), 1),
            Instruction::jump(msp_isa::TEXT_BASE),
        ]);
        let mut oracle = Oracle::new(&p);
        assert!(oracle.get(10_000).is_some());
        assert!(!oracle.is_finished());
    }

    #[test]
    fn shared_trace_serves_prefix_without_execution() {
        let p = counted_loop();
        let trace = Arc::new(Trace::capture(&p, 1_000));
        let mut a = Oracle::with_trace(&p, Arc::clone(&trace));
        let mut b = Oracle::with_trace(&p, trace);
        assert_eq!(a.shared_len(), 8);
        assert!(a.is_finished(), "a complete trace finishes the oracle");
        for i in 0..8 {
            assert_eq!(a.get(i), b.get(i), "index {i}");
        }
        assert!(a.get(8).is_none());
        // Nothing was privately materialised: everything came from the trace.
        assert_eq!(a.materialised(), a.shared_len());
    }

    #[test]
    fn truncated_trace_extends_lazily_and_identically() {
        let r = ArchReg::int;
        // An endless loop so the trace is necessarily truncated.
        let p = Program::new(vec![
            Instruction::addi(r(1), r(1), 1),
            Instruction::jump(msp_isa::TEXT_BASE),
        ]);
        let short = Arc::new(Trace::capture(&p, 50));
        assert!(!short.is_complete());
        let mut shared = Oracle::with_trace(&p, short);
        let mut private = Oracle::new(&p);
        for i in 0..200 {
            assert_eq!(
                shared.get(i).copied(),
                private.get(i).copied(),
                "lazy extension must match private execution at index {i}"
            );
        }
        assert_eq!(shared.shared_len(), 50);
        assert_eq!(shared.materialised(), 200);
    }

    #[test]
    fn private_oracle_matches_shared_trace_everywhere() {
        let p = counted_loop();
        let trace = Arc::new(Trace::capture(&p, 4));
        let mut shared = Oracle::with_trace(&p, trace);
        let mut private = Oracle::new(&p);
        for i in 0..10 {
            assert_eq!(shared.get(i).copied(), private.get(i).copied());
        }
        assert_eq!(shared.is_finished(), private.is_finished());
    }

    /// A trace file that deletes itself when the test ends.
    struct TempTrace(std::path::PathBuf);

    impl TempTrace {
        fn capture(program: &Program, budget: u64) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "msp-oracle-{}-{}.msptrace",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            msp_isa::capture_trace_to_path(&path, program, budget, 0).unwrap();
            TempTrace(path)
        }

        fn cursor(&self, program: &Program) -> msp_isa::TraceCursor {
            let reader = Arc::new(msp_isa::TraceReader::open(&self.0, program).unwrap());
            reader.cursor().unwrap()
        }
    }

    impl Drop for TempTrace {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn streaming_source_matches_materialised_source_everywhere() {
        let p = counted_loop();
        let file = TempTrace::capture(&p, 1_000);
        let mut streaming = Oracle::with_trace(&p, file.cursor(&p));
        let mut materialised = Oracle::with_trace(&p, Arc::new(Trace::capture(&p, 1_000)));
        assert_eq!(streaming.shared_len(), 8);
        assert!(
            streaming.is_finished(),
            "a complete file finishes the oracle"
        );
        for i in 0..10 {
            assert_eq!(
                streaming.get(i).copied(),
                materialised.get(i).copied(),
                "index {i}"
            );
        }
        // Everything came from the file: nothing was privately materialised.
        assert_eq!(streaming.materialised(), streaming.shared_len());
    }

    #[test]
    fn truncated_streaming_source_extends_lazily_and_identically() {
        let r = ArchReg::int;
        // An endless loop so the on-disk trace is necessarily truncated.
        let p = Program::new(vec![
            Instruction::addi(r(1), r(1), 1),
            Instruction::jump(msp_isa::TEXT_BASE),
        ]);
        let file = TempTrace::capture(&p, 50);
        let mut streaming = Oracle::with_trace(&p, file.cursor(&p));
        assert!(!streaming.is_finished());
        let mut private = Oracle::new(&p);
        for i in 0..200 {
            assert_eq!(
                streaming.get(i).copied(),
                private.get(i).copied(),
                "lazy extension past the on-disk end must match private execution at index {i}"
            );
        }
        assert_eq!(streaming.shared_len(), 50);
        assert_eq!(streaming.materialised(), 200);
    }
}
