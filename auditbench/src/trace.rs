//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it. Each
//! thread keeps its own [`Spans`] in memory; the run merges them and
//! writes them out as JSON lines when it ends. Recording is off in the
//! untraced run, where every call is a no-op.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub thread: &'static str,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One thread's span recorder.
pub struct Spans {
    on: bool,
    epoch: Instant,
    thread: &'static str,
    open: Vec<u32>,
    spans: Vec<Span>,
    next_id: u32,
}

impl Spans {
    /// `ids_from` keeps ids unique when several threads' spans merge.
    pub fn new(on: bool, epoch: Instant, thread: &'static str, ids_from: u32) -> Spans {
        Spans {
            on,
            epoch,
            thread,
            open: Vec::new(),
            spans: Vec::new(),
            next_id: ids_from,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; `None` when off.
    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            thread: self.thread,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, id: Option<u32>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("open span is recorded");
        span.end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// The spans recorded so far.
    pub fn recorded(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations in microseconds of the spans called `name`.
pub fn micros_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::micros)
        .collect()
}

/// Writes spans as JSON lines, one object per span.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"thread\":\"{}\"}}",
            s.id, s.name, s.start_ns, s.end_ns, parent, s.thread
        )?;
    }
    out.flush()
}

/// The `q`-quantile (nearest rank) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_merge() {
        let mut s = Spans::new(true, Instant::now(), "main", 0);
        s.span("outer", |s| s.span("inner", |_| ()));
        let spans = s.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let mut off = Spans::new(false, Instant::now(), "main", 0);
        off.span("x", |_| ());
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
