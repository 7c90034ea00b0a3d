//! In-process replay of the workload's own requests through the serving
//! layers the gateway stacks — framing, the head parse, the engine stages
//! — each call timed as a span from the benchmark's side.

use crate::inputs::Op;
use crate::spans::Spans;
use crate::stats::median;
use aon_net::wire::{FrameBuf, WireLimits, WireStream};
use aon_obs::stage::{Stage, StageRecorder, STAGE_COUNT};
use aon_server::{http, Engine, ParseMode, UseCase};
use aon_trace::num::exact_f64;
use aon_trace::NullProbe;
use aon_xml::input::TBuf;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// A request held in memory, read the way a socket would deliver it.
#[derive(Debug)]
struct MemStream<'a> {
    data: &'a [u8],
}

impl Read for MemStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

impl Write for MemStream<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl WireStream for MemStream<'_> {
    fn arm_read_timeout(&mut self, _remaining: Duration) -> io::Result<()> {
        Ok(())
    }
}

/// Span name of an engine stage.
fn stage_span(stage: Stage) -> &'static str {
    match stage {
        Stage::Parse => "engine.parse",
        Stage::XPath => "engine.xpath",
        Stage::Validate => "engine.validate",
        Stage::Dpi => "engine.dpi",
        Stage::Crypto => "engine.crypto",
        Stage::Write => "engine.write",
    }
}

/// The benchmark's own stage recorder: each stage becomes a span, and
/// its time is summed per stage.
struct StageSpans<'a> {
    spans: &'a mut Spans,
    op: u64,
    parent: u64,
    ns: [u64; STAGE_COUNT],
}

impl StageRecorder for StageSpans<'_> {
    fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.record(self.op, Some(self.parent), stage_span(stage), start, end);
        self.ns[stage.index()] += u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        out
    }
}

/// Median per-op cost of each layer for one use case, ns.
#[derive(Debug, Clone, Default)]
pub struct CaseCost {
    /// `FrameBuf::read_frame` over the request bytes.
    pub frame_ns: f64,
    /// `http::parse_request` over the framed bytes.
    pub parse_ns: f64,
    /// The whole engine call.
    pub engine_ns: f64,
    /// Each engine stage, by [`Stage::index`].
    pub stage_ns: [f64; STAGE_COUNT],
    /// Requests replayed (timed pass).
    pub ops: u64,
    /// Replayed requests whose verdict disagreed with the oracle.
    pub wrong: u64,
}

fn ns_since(t: Instant) -> f64 {
    exact_f64(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// One replayed request's layer times, ns.
struct OneOp {
    frame_ns: f64,
    parse_ns: f64,
    engine_ns: f64,
    stage_ns: [u64; STAGE_COUNT],
    /// The verdict agreed with the oracle.
    right: bool,
}

/// Replay one request, recording its spans into `spans`. `None` when
/// the request could not even be framed or parsed.
fn replay_one(engine: &Engine, uc: UseCase, op: &Op, spans: &mut Spans) -> Option<OneOp> {
    let op_id = spans.id();
    let root = spans.id();
    let t_root = Instant::now();
    let mut fb = FrameBuf::new();
    let mut stream = MemStream { data: &op.request };
    let t = Instant::now();
    let framed = fb.read_frame(&mut stream, &WireLimits::default(), t + Duration::from_secs(1));
    let frame_ns = ns_since(t);
    let t_frame = Instant::now();
    let msg = &fb.bytes()[..framed.ok()?.total()];
    let req = http::parse_request(TBuf::msg(msg), &mut NullProbe);
    let parse_ns = ns_since(t_frame);
    let t_parse = Instant::now();
    let span = req.ok()?.body_span(msg.len()).ok()?;
    let body = &msg[span.start..span.end];
    let engine_id = spans.id();
    let mut rec = StageSpans { spans, op: op_id, parent: engine_id, ns: [0; STAGE_COUNT] };
    let t = Instant::now();
    let verdict = engine.process_mode_staged(ParseMode::Fast, uc, body, &mut rec);
    let engine_ns = ns_since(t);
    let stage_ns = rec.ns;
    let end = Instant::now();
    spans.record(op_id, Some(root), "wire.read_frame", t_root, t_frame);
    spans.record(op_id, Some(root), "http.parse_request", t_frame, t_parse);
    spans.push(engine_id, op_id, Some(root), "engine.process", t_parse, end);
    spans.push(root, op_id, None, "replay.op", t_root, end);
    Some(OneOp { frame_ns, parse_ns, engine_ns, stage_ns, right: verdict == Ok(op.expect_routed) })
}

/// Replay `ops` (all of one use case) through framing, head parse and
/// the engine in fast parse mode (the server's default): one warm pass
/// whose spans are discarded, then one timed pass recorded into `spans`.
pub fn replay(engine: &Engine, uc: UseCase, ops: &[Op], spans: &mut Spans) -> CaseCost {
    let mut scratch = Spans::new(Instant::now(), u16::MAX);
    for op in ops {
        replay_one(engine, uc, op, &mut scratch);
    }
    let mut frame = Vec::new();
    let mut parse = Vec::new();
    let mut whole = Vec::new();
    let mut stages: Vec<Vec<f64>> = vec![Vec::new(); STAGE_COUNT];
    let mut cost = CaseCost::default();
    for op in ops {
        cost.ops += 1;
        let Some(one) = replay_one(engine, uc, op, spans) else {
            cost.wrong += 1;
            continue;
        };
        cost.wrong += u64::from(!one.right);
        frame.push(one.frame_ns);
        parse.push(one.parse_ns);
        whole.push(one.engine_ns);
        for (i, ns) in one.stage_ns.iter().enumerate() {
            stages[i].push(exact_f64(*ns));
        }
    }
    cost.frame_ns = median(&frame).unwrap_or(0.0);
    cost.parse_ns = median(&parse).unwrap_or(0.0);
    cost.engine_ns = median(&whole).unwrap_or(0.0);
    for (i, v) in stages.iter().enumerate() {
        cost.stage_ns[i] = median(v).unwrap_or(0.0);
    }
    cost
}

/// Median ms of `Engine::new` (schema, XPath and DPI compilation) over
/// `n` constructions.
pub fn engine_new_ms(n: usize) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(Engine::new());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use std::time::Instant;

    #[test]
    fn replay_times_every_layer_and_agrees_with_the_oracle() {
        let engine = Engine::new();
        let mut spans = Spans::new(Instant::now(), 9);
        for (uc, ops) in inputs::ledger(4, 4, 2) {
            let cost = replay(&engine, uc, &ops, &mut spans);
            assert_eq!(cost.wrong, 0, "{uc}");
            assert_eq!(cost.ops, u64::try_from(ops.len()).expect("small"));
            assert!(cost.frame_ns > 0.0 && cost.parse_ns > 0.0 && cost.engine_ns > 0.0);
            if uc == UseCase::Sv {
                assert!(cost.stage_ns[Stage::Parse.index()] > 0.0);
                assert!(cost.stage_ns[Stage::Validate.index()] > 0.0);
            }
        }
        let ops = spans.durations("replay.op").len();
        assert_eq!(ops, 4 * 4 + 2);
        assert_eq!(spans.durations("wire.read_frame").len(), ops);
        assert_eq!(spans.durations("engine.dpi").len(), 2);
    }
}
