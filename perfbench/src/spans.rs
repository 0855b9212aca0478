//! Host-time spans of a traced run, kept in memory and written once at
//! the end. Spans are recorded by the benchmark around its calls into each
//! layer; nothing inside the program is traced.
//!
//! A span whose `count` exceeds 1 is an aggregate: the summed duration of
//! many short calls inside its parent (protocol hooks, network-model
//! calls), laid out from the parent's start. It counts as child time of
//! the parent, which is what self time needs.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Spans of one cell share this id; `None` outside any cell.
    pub cell: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

/// In-memory span list. Ids are indices into it.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per-layer totals over all spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerSummary {
    pub layer: &'static str,
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn push(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            layer,
            name,
            parent,
            cell,
            start_ns,
            end_ns,
            count: 1,
        });
        self.spans.len() - 1
    }

    /// Record `count` calls totalling `ns` inside `parent`.
    pub fn aggregate(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: usize,
        count: u64,
        ns: u64,
    ) {
        if count == 0 {
            return;
        }
        let p = &self.spans[parent];
        let (cell, start_ns) = (p.cell, p.start_ns);
        self.spans.push(Span {
            layer,
            name,
            parent: Some(parent),
            cell,
            start_ns,
            end_ns: start_ns + ns,
            count,
        });
    }

    /// Re-parent spans recorded against a local list: `local` ids become
    /// ids in `self`, roots hang under `parent`, and all join `cell`.
    pub fn absorb(&mut self, local: Spans, parent: Option<usize>, cell: Option<u32>) {
        let base = self.spans.len();
        let shift = local.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        for mut s in local.spans {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s.cell = cell;
            s.start_ns += shift;
            s.end_ns += shift;
            self.spans.push(s);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Totals per layer, in first-seen order. Self time is a span's
    /// duration minus the time its children cover.
    pub fn summary(&self) -> Vec<LayerSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<LayerSummary> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let i = match out.iter().position(|l| l.layer == s.layer) {
                Some(i) => i,
                None => {
                    out.push(LayerSummary {
                        layer: s.layer,
                        ..Default::default()
                    });
                    out.len() - 1
                }
            };
            let dur = s.end_ns - s.start_ns;
            let l = &mut out[i];
            l.spans += 1;
            l.calls += s.count;
            l.total_ns += dur;
            l.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// The span list and its layer summary as one JSON document, with
    /// `header` (a JSON object) spliced in first.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!("{{\"host\":{header},\"layers\":[");
        for (i, l) in self.summary().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"layer\":\"{}\",\"spans\":{},\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                l.layer, l.spans, l.calls, l.total_ns, l.self_ns
            ));
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"parent\":{},\"cell\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                opt(s.parent.map(|p| p as u64)),
                opt(s.cell.map(u64::from)),
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                s.count
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_aggregates() {
        let t0 = Instant::now();
        let mut s = Spans::new(t0);
        let root = s.push(
            "mps_sim",
            "sim",
            None,
            Some(0),
            t0,
            t0 + Duration::from_nanos(1000),
        );
        s.push(
            "net_model",
            "x",
            Some(root),
            Some(0),
            t0,
            t0 + Duration::from_nanos(300),
        );
        s.aggregate("protocol", "on_send", root, 10, 200);
        let sum = s.summary();
        let sim = sum.iter().find(|l| l.layer == "mps_sim").unwrap();
        assert_eq!(sim.self_ns, 500);
        let proto = sum.iter().find(|l| l.layer == "protocol").unwrap();
        assert_eq!((proto.calls, proto.total_ns), (10, 200));
    }
}
