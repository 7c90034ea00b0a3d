//! In-memory spans recorded by the benchmark's own code around each call
//! into a layer, written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The operation this span belongs to (shared by all its spans).
    pub op: u64,
    /// Unique span id.
    pub id: u64,
    /// The span that caused this one (`None` for an operation's root).
    pub parent: Option<u64>,
    /// Layer boundary, e.g. `client.first_byte` or `engine.parse`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. Ids carry the owner's `lane` in their top
/// 16 bits, so buffers filled on different threads merge without
/// collisions.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    lane: u64,
    next: u64,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty buffer timing from `epoch`.
    pub fn new(epoch: Instant, lane: u16) -> Spans {
        Spans { epoch, lane: u64::from(lane) << 48, next: 0, spans: Vec::new() }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// A fresh id (for an operation or a span).
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.lane | self.next
    }

    fn offset(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span over `start..end`; returns its id.
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.push(id, op, parent, name, start, end);
        id
    }

    /// Record a span under an id taken earlier with [`Spans::id`] (a
    /// parent whose children finish first).
    pub fn push(
        &mut self,
        id: u64,
        op: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        self.spans.push(Span { op, id, parent, name, start_ns, end_ns });
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).collect()
    }

    /// Append another buffer's spans.
    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self, out: &mut String) {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, s.name, s.start_ns, s.end_ns
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_serialize() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch, 1);
        let op = a.id();
        let t1 = epoch + Duration::from_micros(5);
        let root = a.record(op, None, "client.op", epoch, t1);
        a.record(op, Some(root), "client.write", epoch, epoch + Duration::from_micros(2));
        let mut b = Spans::new(epoch, 2);
        let op_b = b.id();
        assert_ne!(op, op_b, "lanes keep ids apart");
        b.record(op_b, None, "client.op", epoch, t1);
        a.absorb(b);
        assert_eq!(a.durations("client.op"), vec![5_000, 5_000]);
        let mut out = String::new();
        a.to_jsonl(&mut out);
        assert_eq!(out.lines().count(), 3);
        assert!(out.contains(&format!("\"parent\":{root}")));
        assert!(out.contains("\"parent\":null"));
    }
}
