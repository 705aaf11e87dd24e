//! In-memory spans recorded around the calls into each layer, written out
//! as a Chrome trace-event file when the run ends.
//!
//! Spans nest: each job span is the parent of its layer spans. A span's
//! self time is its duration minus the part of its interval its children
//! cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// Job id shared by every span of one job.
    pub job: u64,
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled trace records nothing and costs one branch
/// per call, so untraced jobs run the same code path.
pub struct Trace {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

/// Handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Trace {
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, job: u64, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            job,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Records a span measured by the program rather than around a call
    /// (the profile-build time the planner reports through its counters),
    /// placed at the start of its parent.
    pub fn synthetic(&mut self, job: u64, name: &'static str, parent: SpanId, dur_ns: u64) {
        if let Some(p) = parent {
            let start_ns = self.spans[p].start_ns;
            let end_ns = (start_ns + dur_ns).min(self.spans[p].end_ns);
            self.spans.push(Span {
                job,
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Self time per span: duration minus the union of its children's
    /// intervals clipped to it.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut ivs)| {
                ivs.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for (a, b) in ivs {
                    let a = a.max(cursor);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Total duration and total self time per span name, in nanoseconds,
    /// with the number of spans of that name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_ns();
            e.1 += self_ns;
            e.2 += 1;
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"job\":{},\"span\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.job,
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut t = Trace::new(true);
        let mk = |name, parent, start_ns, end_ns| Span {
            job: 1,
            name,
            parent,
            start_ns,
            end_ns,
        };
        t.spans = vec![
            mk("job", None, 0, 100),
            mk("a", Some(0), 10, 40),
            // Overlaps `a`: the union, not the sum, is subtracted.
            mk("b", Some(0), 30, 60),
            mk("c", Some(2), 35, 45),
        ];
        assert_eq!(t.self_times_ns(), vec![50, 30, 20, 10]);
        let by = t.by_name();
        assert_eq!(by["job"], (100, 50, 1));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let id = t.begin(1, "job", None);
        t.end(id);
        t.synthetic(1, "x", id, 5);
        assert!(id.is_none() && t.spans.is_empty());
    }
}
