//! Spans recorded around calls into each layer.
//!
//! A span has a name (the layer and call), an id shared by every span of
//! one packet, burst or reservation, a start and end on the run's common
//! clock, and the span that caused it. Each thread keeps its own
//! [`Tracer`]; spans stay in memory and are written out when the run
//! ends. Self time is a span's duration minus the time its child spans
//! cover. Aggregates cover every span; raw spans are kept up to a cap so
//! a long traced run stays bounded in memory.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Raw spans a tracer keeps before it only aggregates.
pub const RAW_SPAN_CAP: usize = 5_000;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer and call, e.g. `runtime.process_batch`.
    pub name: &'static str,
    /// Identifier shared by the spans of one packet, burst or reservation.
    pub id: u64,
    /// This span's sequence number within its tracer.
    pub seq: u32,
    /// Sequence number of the span that caused this one.
    pub parent: Option<u32>,
    /// Start, ns on the run clock.
    pub start_ns: u64,
    /// End, ns on the run clock.
    pub end_ns: u64,
}

/// Totals over every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), ns.
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration per span, ns (0 when no span closed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

struct Open {
    name: &'static str,
    id: u64,
    seq: u32,
    parent: Option<u32>,
    start_ns: u64,
    child_ns: u64,
}

/// A per-thread span recorder over a shared clock epoch.
pub struct Tracer {
    epoch: Instant,
    thread: &'static str,
    next_seq: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    aggs: BTreeMap<&'static str, Agg>,
}

impl Tracer {
    /// A tracer for `thread` whose clock starts at `epoch`.
    pub fn new(epoch: Instant, thread: &'static str) -> Self {
        Tracer {
            epoch,
            thread,
            next_seq: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            aggs: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let parent = self.stack.last().map(|o| o.seq);
        let start_ns = self.now_ns();
        self.stack.push(Open { name, id, seq, parent, start_ns, child_ns: 0 });
    }

    /// Closes the innermost open span; returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        self.close(open, end_ns, dur);
        dur
    }

    /// Records an already-measured span (one that started on another
    /// thread, such as a packet's due time at the gateway), as a child
    /// of the innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start_ns: u64, end_ns: u64) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let parent = self.stack.last().map(|o| o.seq);
        let dur = end_ns.saturating_sub(start_ns);
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
        }
        self.close(Open { name, id, seq, parent, start_ns, child_ns: 0 }, end_ns, dur);
    }

    fn close(&mut self, open: Open, end_ns: u64, dur: u64) {
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if self.spans.len() < RAW_SPAN_CAP {
            self.spans.push(Span {
                name: open.name,
                id: open.id,
                seq: open.seq,
                parent: open.parent,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// Totals of `name` (zero when no such span closed).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Spans closed, over all names.
    pub fn span_count(&self) -> u64 {
        self.aggs.values().map(|a| a.count).sum()
    }

    /// Writes the raw spans as JSON lines, then one aggregate line per
    /// span name.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\": \"{}\", \"name\": \"{}\", \"id\": {}, \"span\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                self.thread, s.name, s.id, s.seq, s.start_ns, s.end_ns
            )?;
        }
        for (name, a) in &self.aggs {
            writeln!(
                out,
                "{{\"thread\": \"{}\", \"aggregate\": \"{name}\", \"count\": {}, \
                 \"total_ns\": {}, \"self_ns\": {}}}",
                self.thread, a.count, a.total_ns, a.self_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), "test");
        t.enter("outer", 1);
        t.record("child", 1, 0, 0); // zero-length child
        t.enter("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = t.exit();
        let outer = t.exit();
        let (o, i) = (t.agg("outer"), t.agg("inner"));
        assert_eq!((o.count, i.count), (1, 1));
        assert_eq!(o.total_ns, outer);
        assert_eq!(o.self_ns, outer - inner);
        assert_eq!(i.self_ns, inner);
        assert_eq!(t.span_count(), 3);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"name\": \"inner\", \"id\": 1, \"span\": 2, \"parent\": 0"));
        assert!(text.contains("\"aggregate\": \"outer\""));
    }
}
