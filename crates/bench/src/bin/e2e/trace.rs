//! Span recording around the benchmark's calls into each layer, and
//! the per-layer ledger computed from it.
//!
//! A span is `{name, start_ns, end_ns, parent, op}`. The layer of a
//! span is the part of its name before the first `.`; a layer's busy
//! time is the *self* time of its spans (duration minus the part the
//! direct children cover), so nested spans are never counted twice and
//! the self times of one thread's spans sum to the wall time of its
//! root span exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// "No parent" marker of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.what`, e.g. `ais.decode`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for a root.
    pub parent: u32,
    /// The operation the span belongs to (chunk or request number).
    pub op: u64,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// An in-memory span recorder for one thread. Switched off, `enter`
/// and `exit` are a branch each and record nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Self { on, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// A second recorder for another thread of the same pass: same
    /// switch, same epoch, so the two timelines are comparable.
    pub fn sibling(&self) -> Self {
        Self { on: self.on, epoch: self.epoch, spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let id = u32::try_from(self.spans.len()).unwrap_or(NO_PARENT - 1);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.stack.push(id);
        Open(id)
    }

    /// Close a span opened by [`Tracer::enter`]. Spans close in
    /// reverse order of opening.
    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(open.0 as usize) {
            span.end_ns = end_ns;
        }
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
    }

    /// `(count, total nanoseconds)` of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + (s.end_ns - s.start_ns)))
    }

    /// Self time per layer, seconds: each span's duration minus its
    /// direct children's, summed by the name's prefix before `.`.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) = child_ns.get_mut(span.parent as usize) {
                *slot += span.end_ns - span.start_ns;
            }
        }
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *by_layer.entry(layer).or_default() += own as f64 / 1e9;
        }
        by_layer
    }

    /// Append the spans as JSON lines, at most `cap` of them (a final
    /// line says how many were left out).
    pub fn write_jsonl(&self, thread: &str, cap: usize, out: &mut String) {
        for (i, s) in self.spans.iter().take(cap).enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let _ = writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        if self.spans.len() > cap {
            let _ = writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"truncated\":{}}}",
                self.spans.len() - cap
            );
        }
    }
}

/// One thread's ledger: busy seconds per layer, with the root span's
/// own self time shown as `unattributed`, so the rows sum to the wall.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// `(row, seconds)`; rows are layers, `unattributed` last.
    pub rows: Vec<(String, f64)>,
    /// Wall seconds of the thread's root span.
    pub wall_s: f64,
}

impl Ledger {
    /// Build the ledger of one thread, whose root span is named
    /// `wall.…` (its self time is what no inner span covered).
    /// `inner` moves time out of `core` into named rows: the program's
    /// own stage timers, which ran inside the `core` spans.
    pub fn build(tracer: &Tracer, inner: &[(&str, f64)]) -> Self {
        let mut layers = tracer.self_seconds_by_layer();
        let unattributed = layers.remove("wall").unwrap_or(0.0);
        let mut rows: BTreeMap<String, f64> =
            layers.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        for (row, seconds) in inner {
            *rows.entry((*row).to_owned()).or_default() += seconds;
            *rows.entry("core".to_owned()).or_default() -= seconds;
        }
        let mut rows: Vec<(String, f64)> = rows.into_iter().collect();
        rows.push(("unattributed".to_owned(), unattributed));
        let wall_s = rows.iter().map(|(_, s)| s).sum();
        Self { rows, wall_s }
    }

    /// Render as a table: busy seconds and share of the wall per row.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("-- ledger: {title} (wall {:.3} s) --\n", self.wall_s);
        for (row, seconds) in &self.rows {
            let share = if self.wall_s > 0.0 { 100.0 * seconds / self.wall_s } else { 0.0 };
            let _ = writeln!(out, "{row:>14}  {seconds:>9.4} s  {share:>6.2} %");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_and_never_double_count() {
        let mut tr = Tracer::new(true);
        let root = tr.enter("wall.pass", 0);
        let a = tr.enter("ais.decode", 1);
        tr.exit(a);
        let b = tr.enter("core.push", 1);
        let c = tr.enter("core.inner", 1);
        tr.exit(c);
        tr.exit(b);
        tr.exit(root);
        let by_layer = tr.self_seconds_by_layer();
        let total: f64 = by_layer.values().sum();
        let root_span = tr.spans[0];
        let wall = (root_span.end_ns - root_span.start_ns) as f64 / 1e9;
        assert!((total - wall).abs() < 1e-9, "self times {total} must sum to the wall {wall}");
        let ledger = Ledger::build(&tr, &[("events", 0.0)]);
        assert!((ledger.wall_s - wall).abs() < 1e-9);
        assert_eq!(ledger.rows.last().map(|r| r.0.as_str()), Some("unattributed"));
    }

    #[test]
    fn a_switched_off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.enter("ais.decode", 0);
        tr.exit(s);
        assert!(tr.spans.is_empty());
    }
}
