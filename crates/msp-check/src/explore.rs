//! The explicit-state explorer: breadth-first enumeration of every reachable
//! state of a [`Model`] with hash-based visited-state deduplication.
//!
//! Breadth-first order matters: when a violation exists, the first one found
//! is reached by a *shortest* event path, so every counterexample the checker
//! prints is minimal in the number of events.
//!
//! Bookkeeping is kept lean because it runs once per explored transition:
//! each queued state carries its own fingerprint (so a successor can be
//! compared against its parent without rehashing it), and its path is one
//! `(parent, event)` record in an arena, rebuilt into an event list only
//! when a counterexample is rendered.

use crate::fingerprint::VisitedSet;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    static SILENCED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the default panic hook suppressed on this thread. The
/// explorer *expects* panics (debug assertions and the `invariant_audit`
/// layer are oracles here) and converts them into counterexamples; without
/// this, every caught violation would spray a backtrace to stderr. Other
/// threads keep the default hook.
fn with_silenced_panics<R>(f: impl FnOnce() -> R) -> R {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SILENCED.with(Cell::get) {
                previous(info);
            }
        }));
    });
    let was = SILENCED.with(|s| s.replace(true));
    let result = f();
    SILENCED.with(|s| s.set(was));
    result
}

/// A system the explorer can enumerate: a cloneable state with a finite set
/// of enabled events and a deterministic transition function.
///
/// `apply` returns `Err` when an *invariant oracle* fails; panics raised by
/// the structures under test (debug assertions, the `invariant_audit` layer)
/// are caught by the explorer and reported the same way.
pub trait Model: Clone {
    /// The event alphabet.
    type Event: Clone + fmt::Display;

    /// Every event enabled in the current state, in a deterministic order.
    ///
    /// An event may be a *stutter* in some states: applying it succeeds but
    /// leaves the fingerprint unchanged (a commit clock with nothing left to
    /// commit). The explorer drops stutter successors, and a state with no
    /// enabled event other than stutters is terminal (fully quiesced). An
    /// event whose application fails is never a stutter: the failure is
    /// reported.
    fn enabled_events(&self) -> Vec<Self::Event>;

    /// Applies one event and runs the per-event invariant oracles.
    fn apply(&mut self, event: &Self::Event) -> Result<(), String>;

    /// A collision-resistant fingerprint of the behavioural state (stats and
    /// other monotone counters excluded) used for visited-state dedup and
    /// to recognise stutter events.
    fn fingerprint(&self) -> u64;

    /// The quiescence oracle, run in every terminal state.
    fn check_terminal(&self) -> Result<(), String>;

    /// One-line state summary used when pretty-printing counterexamples.
    fn summary(&self) -> String;
}

/// Exploration budget and reporting knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExploreLimits {
    /// Stop (incomplete) when a further distinct state would exceed this
    /// many; a budget equal to the reachable space's size still completes.
    pub max_states: u64,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_states: 4_000_000,
        }
    }
}

/// A violating run: the shortest event sequence from the initial state to a
/// state where an invariant (or a debug assertion inside the structures under
/// test) fails.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The events of the violating run, rendered with [`fmt::Display`]; the
    /// last event is the one whose application violated the invariant.
    pub events: Vec<String>,
    /// The oracle failure or panic message.
    pub message: String,
    /// A full replay transcript: each event followed by the state summary it
    /// produced, ending in the violation.
    pub transcript: String,
}

/// The result of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Number of distinct states visited.
    pub visited: u64,
    /// Number of terminal (fully quiesced) states checked.
    pub terminal_states: u64,
    /// Length of the longest event path explored.
    pub max_depth: usize,
    /// Whether the reachable state space was exhausted (no budget cut-off
    /// and no violation stopping the search).
    pub complete: bool,
    /// The first (shortest) violation found, if any.
    pub violation: Option<Counterexample>,
}

impl CheckReport {
    /// `true` when the space was fully exhausted and no oracle fired.
    pub fn is_clean(&self) -> bool {
        self.complete && self.violation.is_none()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "visited {} states ({} terminal, max depth {}): {}",
            self.visited,
            self.terminal_states,
            self.max_depth,
            if self.violation.is_some() {
                "VIOLATION"
            } else if self.complete {
                "complete, no violations"
            } else {
                "budget exhausted (incomplete)"
            }
        )?;
        if let Some(cx) = &self.violation {
            writeln!(f, "\n{}", cx.transcript)?;
        }
        Ok(())
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs an oracle, converting both its failure and a panic raised inside the
/// structures under test into an error message.
fn checked(oracle: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    match with_silenced_panics(|| catch_unwind(AssertUnwindSafe(oracle))) {
        Ok(result) => result,
        Err(payload) => Err(format!("panic: {}", panic_message(payload))),
    }
}

/// Applies `event` with its per-event oracles ([`checked`]).
fn apply_checked<M: Model>(state: &mut M, event: &M::Event) -> Result<(), String> {
    #[cfg(msp_check_mutation)]
    msp_state::mutation::rearm();
    checked(|| state.apply(event))
}

/// Re-runs a violating event path from the initial state and renders a
/// human-readable transcript of every step.
fn render_counterexample<M: Model>(
    initial: &M,
    path: &[M::Event],
    message: &str,
    terminal_violation: bool,
) -> Counterexample {
    let mut transcript = String::new();
    transcript.push_str(&format!("counterexample ({} events):\n", path.len()));
    transcript.push_str(&format!("  initial   {}\n", initial.summary()));
    let mut replay = initial.clone();
    for (i, event) in path.iter().enumerate() {
        let failing = !terminal_violation && i == path.len() - 1;
        let outcome = apply_checked(&mut replay, event);
        transcript.push_str(&format!("  step {:<3}  {event}\n", i + 1));
        match outcome {
            Ok(()) => transcript.push_str(&format!("            {}\n", replay.summary())),
            Err(e) => {
                transcript.push_str(&format!("            FAILS: {e}\n"));
                if !failing {
                    transcript.push_str("            (violation replayed early)\n");
                }
                break;
            }
        }
    }
    if terminal_violation {
        transcript.push_str(&format!("  terminal  FAILS: {message}\n"));
    }
    Counterexample {
        events: path.iter().map(|e| e.to_string()).collect(),
        message: message.to_string(),
        transcript,
    }
}

/// A queued state awaiting expansion.
struct Pending<M> {
    state: M,
    /// The state's fingerprint, computed once when it was first reached.
    fingerprint: u64,
    /// Its record in the path arena.
    node: usize,
    /// Number of events from the initial state.
    depth: usize,
}

/// The arena index standing for the initial state, which has no record.
const ROOT: usize = usize::MAX;

/// Rebuilds the event path that reached arena record `node`.
fn path_to<E: Clone>(arena: &[(usize, E)], mut node: usize) -> Vec<E> {
    let mut path = Vec::new();
    while node != ROOT {
        let (parent, event) = &arena[node];
        path.push(event.clone());
        node = *parent;
    }
    path.reverse();
    path
}

/// Exhaustively explores every state reachable from `initial`, stopping at
/// the first violation (which, by breadth-first order, has a shortest event
/// path) or when the state budget is exhausted.
pub fn explore<M: Model>(initial: M, limits: ExploreLimits) -> CheckReport {
    let initial_fingerprint = initial.fingerprint();
    let mut visited = VisitedSet::default();
    visited.insert(initial_fingerprint);
    // Path arena: one `(parent record, event)` per queued state.
    let mut arena: Vec<(usize, M::Event)> = Vec::new();
    let mut queue = VecDeque::from([Pending {
        state: initial.clone(),
        fingerprint: initial_fingerprint,
        node: ROOT,
        depth: 0,
    }]);

    let mut terminal_states = 0u64;
    let mut max_depth = 0usize;
    let incomplete = |visited: &VisitedSet, terminal_states, max_depth, violation| CheckReport {
        visited: visited.len() as u64,
        terminal_states,
        max_depth,
        complete: false,
        violation,
    };

    while let Some(Pending {
        state,
        fingerprint,
        node,
        depth,
    }) = queue.pop_front()
    {
        max_depth = max_depth.max(depth);
        let events = state.enabled_events();
        // The last event takes the state itself instead of a clone, but only
        // once an earlier event has left the state: a state that turns out
        // terminal is still needed for its check.
        let mut state = Some(state);
        let mut leaves = false;
        for (i, event) in events.iter().enumerate() {
            let mut next = if leaves && i + 1 == events.len() {
                state.take()
            } else {
                state.clone()
            }
            .expect("kept until the last event");
            if let Err(message) = apply_checked(&mut next, event) {
                let mut path = path_to(&arena, node);
                path.push(event.clone());
                let cx = render_counterexample(&initial, &path, &message, false);
                return incomplete(
                    &visited,
                    terminal_states,
                    max_depth.max(depth + 1),
                    Some(cx),
                );
            }
            let next_fingerprint = next.fingerprint();
            if next_fingerprint == fingerprint {
                continue; // a stutter: the event did not leave the state
            }
            leaves = true;
            if visited.len() as u64 >= limits.max_states && !visited.contains(&next_fingerprint) {
                return incomplete(&visited, terminal_states, max_depth, None);
            }
            if visited.insert(next_fingerprint) {
                arena.push((node, event.clone()));
                queue.push_back(Pending {
                    state: next,
                    fingerprint: next_fingerprint,
                    node: arena.len() - 1,
                    depth: depth + 1,
                });
            }
        }
        if !leaves {
            terminal_states += 1;
            let state = state.expect("a terminal state is never moved out");
            if let Err(message) = checked(|| state.check_terminal()) {
                let path = path_to(&arena, node);
                let cx = render_counterexample(&initial, &path, &message, true);
                return incomplete(&visited, terminal_states, max_depth, Some(cx));
            }
        }
    }

    CheckReport {
        visited: visited.len() as u64,
        terminal_states,
        max_depth,
        complete: true,
        violation: None,
    }
}
