//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! A span is `(name, start, end, parent, epoch)`; times are nanoseconds
//! since the run's clock origin. A span's self time is its duration minus
//! the part of it that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub epoch: u64,
}

/// Span store. Disabled tracers record nothing, so untraced runs pay only
/// the branch.
pub struct Tracer {
    origin: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, on: bool) -> Tracer {
        Tracer {
            origin,
            on,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id (for children).
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        epoch: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        // Timestamps taken on different threads can cross (an ack read
        // before the sender's clock call after its write): clamp.
        let (start, end) = (self.ns(start), self.ns(end.max(start)));
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            epoch,
        });
        Some(self.spans.len() - 1)
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Per-name `(count, total duration, total self time)` in nanoseconds.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.end.saturating_sub(span.start);
            e.2 += own;
        }
        out
    }

    /// Mean duration of the spans named `name`, in nanoseconds.
    pub fn mean(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| {
                (n + 1, t + s.end.saturating_sub(s.start))
            });
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"epoch\":{}}}",
                s.name, s.start, s.end, s.epoch
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals clipped to it, so it is never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (spans[p].start, spans[p].end);
            children[p].push((s.start.clamp(lo, hi), s.end.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end.saturating_sub(s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start,
            end,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),  // overlaps the first child
            span(90, 150, Some(0)), // runs past the parent: clipped
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 30, 60]);
    }
}
