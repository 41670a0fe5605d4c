//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public API in a span:
//! name, start, end, parent span and request id (frame seq, global
//! epoch or analyze rep). Spans stay in memory and are written out
//! once, when the run ends. With tracing off, [`Tracer::span`] only
//! calls its closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::ops::Range;
use std::time::Instant;

/// Identifies an open or closed span.
pub type SpanId = usize;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `collector.drain`.
    pub name: &'static str,
    /// Start, in ns since the tracer was made.
    pub start_ns: u64,
    /// End, in ns since the tracer was made (0 while open).
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// Request id shared by the spans of one request.
    pub req: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when tracing is off.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Renames a span after the fact (a tick turns out to have taken
    /// checkpoints).
    pub fn rename(&mut self, id: Option<SpanId>, name: &'static str) {
        if let Some(id) = id {
            self.spans[id].name = name;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (total duration, total self time, span count),
    /// both in ns, over the spans with indices in `ids`. Self time is a
    /// span's duration minus the part its children cover.
    pub fn totals(&self, ids: Range<usize>) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans[ids.clone()] {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().take(ids.end).skip(ids.start) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_ns();
            e.1 += s.dur_ns().saturating_sub(child_ns[i]);
            e.2 += 1;
        }
        out
    }

    /// Durations in ms of the spans named `name` with indices in `ids`.
    pub fn durations_ms(&self, name: &str, ids: Range<usize>) -> Vec<f64> {
        self.spans[ids]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes every span as a tab-separated line: id, parent (`-` for
    /// none), name, request id, start ns, end ns.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing_but_runs_the_closure() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.open("pass", None, 0);
        t.span("a", root, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", root, 2, || ());
        t.close(root);
        let totals = t.totals(0..t.spans().len());
        let (pass_dur, pass_self, _) = totals["pass"];
        let (a_dur, a_self, a_n) = totals["a"];
        assert_eq!((a_dur, a_n), (a_self, 1));
        assert_eq!(pass_self, pass_dur - a_dur - totals["b"].0);
        assert!(a_dur >= 2_000_000);
        let mut buf = Vec::new();
        t.write_tsv(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 4);
    }
}
