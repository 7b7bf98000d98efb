//! Folded profiles from a recorded trace.
//!
//! [`fold`] turns a completed [`Trace`] into **collapsed-stack** lines —
//! the `outer;inner;leaf weight` format that flamegraph tooling
//! (`flamegraph.pl`, `inferno`, speedscope) consumes directly. Nothing is
//! sampled: every span already carries its exact duration and, when the
//! counting allocator is on (`ENTMATCHER_MEM`), its exact allocated bytes,
//! so each stack is weighted by what its spans measured.
//!
//! The lane rule: the fold walks each thread lane's root spans down
//! through children recorded on the same lane. A span's weight is its own
//! quantity minus that of those children ("self" time or bytes), so the
//! weights of a lane's stacks add up to its roots' totals. A record that
//! [`Telemetry::record_span`] attaches to a parent on another lane (the
//! serving layer's `serve.queue` / `serve.batch`, measured on the batch
//! worker but parented to the request) is left out together with its
//! subtree: the spans open on the worker's own lane already cover that
//! interval, and would otherwise be counted twice.
//!
//! The CLI wires this as `--profile OUT.folded` (self microseconds) and
//! `--mem-profile OUT.folded` (self bytes) on every command, folding the
//! command's trace when it ends.
//!
//! [`Telemetry::record_span`]: super::Telemetry::record_span

use super::{SpanRecord, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a folded stack is weighted by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weight {
    /// Self wall time in microseconds: `duration_ns / 1000` of the span
    /// minus the same of its same-lane children.
    Micros,
    /// Self measured heap bytes: `heap_allocated` of the span minus that
    /// of its same-lane children.
    HeapBytes,
}

impl Weight {
    fn of(self, span: &SpanRecord) -> u64 {
        match self {
            Weight::Micros => span.duration_ns / 1000,
            Weight::HeapBytes => span.heap_allocated,
        }
    }
}

/// Folds `trace` into collapsed stacks and their summed self weights,
/// sorted by stack. Stacks whose weight is zero are left out, so every
/// weight is positive. Spans outside the span forest (see the lane rule in
/// the module docs, and a parent missing from the trace) are not counted.
pub fn fold(trace: &Trace, weight: Weight) -> BTreeMap<String, u64> {
    let mut stacks = BTreeMap::new();
    // The walk's open path: `stack` holds its frames' names joined by `;`,
    // and each frame records where its name ends in `stack` and what is
    // left of its weight once its children so far are subtracted.
    let mut stack = String::new();
    let mut frames: Vec<(usize, u64)> = Vec::new();
    for (i, depth) in trace.preorder(|parent, child| parent.tid == child.tid) {
        while frames.len() > depth {
            close(&mut stack, &mut frames, &mut stacks);
        }
        let span = &trace.spans[i];
        let own = weight.of(span);
        if let Some((_, left)) = frames.last_mut() {
            *left = left.saturating_sub(own);
            stack.push(';');
        }
        stack.push_str(&span.name);
        frames.push((stack.len(), own));
    }
    while !frames.is_empty() {
        close(&mut stack, &mut frames, &mut stacks);
    }
    stacks
}

/// Closes the innermost frame: adds its weight, if any, to its stack's
/// total and drops its name from `stack`.
fn close(stack: &mut String, frames: &mut Vec<(usize, u64)>, stacks: &mut BTreeMap<String, u64>) {
    let (_, left) = frames.pop().expect("a frame is open");
    if left > 0 {
        match stacks.get_mut(stack.as_str()) {
            Some(total) => *total = total.saturating_add(left),
            None => {
                stacks.insert(stack.clone(), left);
            }
        }
    }
    stack.truncate(frames.last().map_or(0, |&(end, _)| end));
}

/// Renders folded stacks as `stack weight` lines, one per stack in map
/// order, newline terminated. Feed to `flamegraph.pl` or paste into
/// speedscope.
pub fn to_folded(stacks: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (stack, weight) in stacks {
        let _ = writeln!(out, "{stack} {weight}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TRACE_VERSION;

    fn span(id: u64, parent: Option<u64>, name: &str, tid: u64, us: u64, heap: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            start_ns: id * 10,
            duration_ns: us * 1000 + 999,
            bytes: 0,
            tid,
            req: 0,
            heap_allocated: heap,
            heap_live_peak: 0,
        }
    }

    fn trace(spans: Vec<SpanRecord>) -> Trace {
        Trace {
            version: TRACE_VERSION,
            spans,
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
        }
    }

    fn folded(trace: &Trace, weight: Weight) -> Vec<(String, u64)> {
        fold(trace, weight).into_iter().collect()
    }

    fn lines(expected: &[(&str, u64)]) -> Vec<(String, u64)> {
        expected.iter().map(|&(s, w)| (s.to_owned(), w)).collect()
    }

    /// Two lanes, three-deep nesting on lane 1, a repeated stack, and a
    /// cross-lane `record_span` record with its own same-lane child.
    fn two_lanes() -> Trace {
        trace(vec![
            // Lane 1: pipeline > similarity > quant.pack, pipeline > match
            // twice (summed into one stack).
            span(1, None, "pipeline", 1, 1000, 10_000),
            span(2, Some(1), "similarity", 1, 600, 8_000),
            span(3, Some(2), "quant.pack", 1, 100, 1_000),
            span(4, Some(1), "match", 1, 150, 500),
            span(5, Some(1), "match", 1, 50, 300),
            // Lane 2: a root of its own, plus a record attached across
            // lanes to lane 1's pipeline, which has a lane-2 child.
            span(6, None, "pool.worker", 2, 400, 4_000),
            span(7, Some(6), "quant.pack", 2, 400, 4_000),
            span(8, Some(1), "serve.batch", 2, 300, 9_999),
            span(9, Some(8), "serve.probe", 2, 200, 9_999),
        ])
    }

    #[test]
    fn time_weights_are_self_microseconds_per_lane() {
        assert_eq!(
            folded(&two_lanes(), Weight::Micros),
            lines(&[
                // 1000 - 600 - 150 - 50; the cross-lane record is not a child.
                ("pipeline", 200),
                ("pipeline;match", 200),
                ("pipeline;similarity", 500),
                ("pipeline;similarity;quant.pack", 100),
                // The worker's only child covers all of it: a zero-weight
                // stack is left out.
                ("pool.worker;quant.pack", 400),
            ])
        );
    }

    #[test]
    fn heap_weights_are_self_bytes_per_lane() {
        assert_eq!(
            folded(&two_lanes(), Weight::HeapBytes),
            lines(&[
                ("pipeline", 1_200),
                ("pipeline;match", 800),
                ("pipeline;similarity", 7_000),
                ("pipeline;similarity;quant.pack", 1_000),
                ("pool.worker;quant.pack", 4_000),
            ])
        );
        let text = to_folded(&fold(&two_lanes(), Weight::HeapBytes));
        assert!(
            text.starts_with("pipeline 1200\npipeline;match 800\n"),
            "{text}"
        );
        assert!(text.ends_with("pool.worker;quant.pack 4000\n"), "{text}");
    }

    #[test]
    fn self_parented_and_orphaned_spans_are_left_out() {
        let t = trace(vec![
            span(1, None, "root", 1, 10, 100),
            span(2, Some(2), "self", 1, 5, 50),
            span(3, Some(42), "orphan", 1, 5, 50),
            span(4, Some(3), "under.orphan", 1, 5, 50),
        ]);
        assert_eq!(folded(&t, Weight::Micros), lines(&[("root", 10)]));
        assert_eq!(folded(&t, Weight::HeapBytes), lines(&[("root", 100)]));
    }

    #[test]
    fn children_heavier_than_the_parent_saturate_at_zero() {
        let t = trace(vec![
            span(1, None, "root", 1, 10, u64::MAX),
            span(2, Some(1), "kid", 1, 30, u64::MAX),
            span(3, None, "root", 1, 1, u64::MAX),
        ]);
        assert_eq!(
            folded(&t, Weight::Micros),
            lines(&[("root", 1), ("root;kid", 30)])
        );
        assert_eq!(
            folded(&t, Weight::HeapBytes),
            lines(&[("root", u64::MAX), ("root;kid", u64::MAX)])
        );
    }

    #[test]
    fn empty_trace_folds_to_nothing() {
        assert!(fold(&trace(vec![]), Weight::Micros).is_empty());
        assert_eq!(to_folded(&BTreeMap::new()), "");
    }
}
