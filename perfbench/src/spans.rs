//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public functions in
//! a span: name, start, end, parent span and a work count (records, committed
//! instructions, states) recorded at the same boundary. Spans stay in memory
//! and are written as JSON when the run ends. A span's **self time** is its
//! duration minus the part of it that its direct children cover, so the self
//! times of a properly nested tree add up to the root's duration exactly.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, in the unit of its layer.
    pub work: u64,
}

/// Records spans of one traced pass; `run` is the id all of them share.
pub struct Recorder {
    origin: Instant,
    pub run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(run: u64) -> Recorder {
        Recorder {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize, work: u64) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = end_ns;
        self.spans[id].work = work;
    }

    /// Runs `f` inside a span named `name` whose work is `work(&result)`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> R,
        work: impl FnOnce(&R) -> u64,
    ) -> R {
        let id = self.enter(name);
        let result = f();
        let units = work(&result);
        self.exit(id, units);
        result
    }

    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "every span must be closed");
        &self.spans
    }
}

/// The self time of every span: its duration minus the union of its direct
/// children's intervals, each child clipped to the parent's interval first
/// (a child that outlives its parent only covers the parent up to its end).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Renders the spans of several recorders as one JSON document.
pub fn to_json(workload: &str, seed: u64, passes: &[Recorder]) -> String {
    let mut out = String::new();
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"passes\":["
    )
    .expect("write to String");
    for (p, rec) in passes.iter().enumerate() {
        if p > 0 {
            out.push(',');
        }
        write!(out, "{{\"run\":{},\"spans\":[", rec.run).expect("write to String");
        let spans = rec.spans();
        for (id, (span, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"work\":{}}}",
                span.name, span.start_ns, span.end_ns, span.work
            )
            .expect("write to String");
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            work: 0,
        }
    }

    #[test]
    fn overlapping_and_disjoint_children_are_subtracted_once() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            span("c", Some(0), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span("root", None, 0, 100),
            span("child", Some(0), 10, 60),
            span("grandchild", Some(1), 20, 40),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "nested self times add up to the root");
    }

    #[test]
    fn a_child_spanning_the_parents_end_is_clipped() {
        let spans = [
            span("root", None, 0, 100),
            span("late", Some(0), 80, 150),
            span("early", Some(0), 0, 10),
        ];
        assert_eq!(self_times(&spans), vec![70, 70, 10]);
    }

    #[test]
    fn a_child_entirely_outside_its_parent_covers_nothing() {
        let spans = [span("root", None, 0, 100), span("after", Some(0), 120, 130)];
        assert_eq!(self_times(&spans), vec![100, 10]);
    }

    #[test]
    fn recorder_nests_and_sums_to_the_root() {
        let mut rec = Recorder::new(7);
        let root = rec.enter("root");
        let inner = rec.time("leaf", || (0..1000u64).sum::<u64>(), |_| 1000);
        assert_eq!(inner, 499_500);
        let mid = rec.enter("mid");
        rec.time("leaf", || (), |_| 1);
        rec.exit(mid, 0);
        rec.exit(root, 0);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[1].work, 1000);
        let total: u64 = self_times(spans).iter().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
        assert!(to_json("w", 1, &[rec]).starts_with("{\"workload\":\"w\",\"seed\":1,"));
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_panics() {
        let mut rec = Recorder::new(0);
        let outer = rec.enter("outer");
        let _inner = rec.enter("inner");
        rec.exit(outer, 0);
    }
}
