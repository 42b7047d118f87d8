//! In-memory span recorder for the traced run.
//!
//! Spans are taken only here, in the benchmark, around each call it makes
//! into a layer of the system; nothing inside the measured crates is
//! instrumented. A span's name is `<layer>.<call>`, so a layer's self time
//! is the summed duration of its spans minus the part of each that child
//! spans cover. With tracing off, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.rc_step`.
    pub name: &'static str,
    /// The flush, turn, read or step this span belongs to.
    pub id: u64,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }

    /// The layer prefix of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans while enabled; free of clock reads while disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between passes.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span named `name` with identifier `id`; spans opened before
    /// it is closed become its children. Returns `None` while disabled.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            start_us: self.now_us(),
            end_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes the span `begin` returned (innermost first).
    pub fn end(&mut self, token: Option<usize>) {
        if let Some(index) = token {
            debug_assert_eq!(
                self.open.last(),
                Some(&index),
                "spans close innermost first"
            );
            self.open.pop();
            self.spans[index].end_us = self.now_us();
        }
    }

    /// Runs `f` inside a leaf span named `name` with identifier `id`.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let token = self.begin(name, id);
        let out = f();
        self.end(token);
        out
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time per layer in milliseconds: each span's duration minus the
    /// durations of its direct children, summed by layer prefix. Children
    /// of one parent never overlap (the recorder nests strictly), so the
    /// covered part is the sum of their durations.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ms) {
            *out.entry(s.layer()).or_insert(0.0) += s.ms() - covered;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"index\": {i}, \"name\": \"{}\", \"id\": {}, \"start_us\": {:.3}, \
                 \"end_us\": {:.3}, \"parent\": {parent}}}",
                s.name, s.id, s.start_us, s.end_us
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core.rc_step", 1, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let flush = t.begin("bench.flush", 0);
        t.span("core.rc_step", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("core.rc_step", 2, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(flush);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let by_layer = t.self_ms_by_layer();
        let core: f64 = t.durations_ms("core.rc_step").iter().sum();
        assert!((by_layer["core"] - core).abs() < 1e-9);
        assert!((by_layer["bench"] - (spans[0].ms() - core)).abs() < 1e-9);
        assert!(by_layer["bench"] >= 0.0);
    }
}
