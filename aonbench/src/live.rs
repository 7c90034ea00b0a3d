//! The live gateway, driven from outside: `aon-serve` runs in its own
//! process with its default flags, and the benchmark's own HTTP/1.1
//! client loads it over loopback.

use crate::inputs::{Op, ROUND};
use crate::oracle::{self, Response, Verdict};
use crate::procfs::{self, ThreadCounters};
use crate::spans::Spans;
use aon_server::UseCase;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Client-side limit on any one request; a slower answer is a failed op.
pub const OP_TIMEOUT: Duration = Duration::from_secs(2);

/// Traced loads record the client spans of one op in this many, which
/// keeps a 10 s keep-alive run to about a hundred thousand spans.
pub const TRACE_EVERY: usize = 32;

/// A running `aon-serve` process. Dropping it kills the process and
/// waits for it.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// Kept open so the server's own log lines never meet a closed pipe.
    stdout_pipe: BufReader<ChildStdout>,
    /// Bound address.
    pub addr: SocketAddr,
    /// Process id.
    pub pid: u32,
}

impl ServerProc {
    /// Start `bin` on an ephemeral loopback port and wait for it to
    /// report the address it bound.
    pub fn spawn(bin: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id();
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout was not captured".to_string());
        };
        let mut server = ServerProc {
            child,
            stdout_pipe: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
        };
        let mut line = String::new();
        server.stdout_pipe.read_line(&mut line).map_err(|e| format!("server stdout: {e}"))?;
        server.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        Ok(server)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start the server and time spawn → first correct response to `probe`
/// (a request asking to close).
pub fn cold_start(bin: &Path, probe: &Op) -> Result<(ServerProc, f64), String> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(bin)?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    conn.send(&probe.request).map_err(|e| format!("probe send: {e}"))?;
    let (resp, _) = conn.recv().map_err(|e| format!("probe response: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    if oracle::judge(&resp, probe.expect_routed) != Verdict::Correct {
        return Err(format!("probe answered {} {:?}", resp.status, resp.body));
    }
    Ok((server, secs))
}

/// One client connection with its receive buffer.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle off and [`OP_TIMEOUT`] on both directions.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, OP_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        stream.set_write_timeout(Some(OP_TIMEOUT))?;
        Ok(Conn { stream, buf: Vec::with_capacity(512) })
    }

    /// Write one whole request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Read one whole response; also returns when its first byte arrived.
    pub fn recv(&mut self) -> io::Result<(Response, Instant)> {
        let mut first_byte = None;
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(i) = oracle::find(&self.buf, b"\r\n\r\n") {
                break i;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed before a reply"));
            }
            first_byte.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let (status, len, close) = oracle::parse_head(&self.buf[..head_end])
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad response head"))?;
        let total = head_end + 4 + len;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated reply"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok((Response { status, close, body }, first_byte.unwrap_or_else(Instant::now)))
    }
}

/// What one load thread saw.
#[derive(Debug)]
struct ThreadTally {
    /// Use case, latency (ns) and completion time of each measured op
    /// that did not fail.
    lat_ns: Vec<(UseCase, u64, Instant)>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    connects: u64,
    spans: Spans,
    done: Instant,
}

impl ThreadTally {
    fn new(epoch: Instant, lane: u16) -> ThreadTally {
        ThreadTally {
            lat_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            connects: 0,
            spans: Spans::new(epoch, lane),
            done: epoch,
        }
    }
}

/// Send `op` on `conn` (connecting first when there is none) and judge
/// the answer. A transport error, timeout or a status that is no verdict
/// (a 503 among them) fails the op; the connection is dropped after an
/// error or a `Connection: close`. Returns whether the op failed, and
/// whether its answer was wrong (a verdict contradicting the oracle, or
/// a body contradicting its status).
fn exchange(
    addr: SocketAddr,
    conn: &mut Option<Conn>,
    op: &Op,
    tally: &mut ThreadTally,
    measured: bool,
    started: Instant,
    trace: bool,
) -> (bool, bool) {
    let op_id = tally.spans.id();
    let root = tally.spans.id();
    let mut result = || -> io::Result<Response> {
        if conn.is_none() {
            let t = Instant::now();
            let c = Conn::connect(addr)?;
            if measured {
                tally.connects += 1;
            }
            if trace {
                tally.spans.record(op_id, Some(root), "client.connect", t, Instant::now());
            }
            *conn = Some(c);
        }
        let c = conn.as_mut().ok_or_else(|| io::Error::other("no connection"))?;
        let t_write = Instant::now();
        c.send(&op.request)?;
        let t_sent = Instant::now();
        let (resp, first) = c.recv()?;
        if trace {
            let end = Instant::now();
            tally.spans.record(op_id, Some(root), "client.write", t_write, t_sent);
            tally.spans.record(op_id, Some(root), "client.first_byte", t_sent, first);
            tally.spans.record(op_id, Some(root), "client.read_rest", first, end);
        }
        Ok(resp)
    };
    let outcome = result();
    if trace {
        // The root: the op as the load generator sees it.
        tally.spans.push(root, op_id, None, "client.op", started, Instant::now());
    }
    match outcome {
        Ok(resp) => {
            if resp.close {
                *conn = None;
            }
            match oracle::judge(&resp, op.expect_routed) {
                Verdict::Correct => (false, false),
                Verdict::Failed => (true, false),
                Verdict::Wrong => (false, true),
            }
        }
        Err(_) => {
            *conn = None;
            (true, false)
        }
    }
}

/// Closed loop on one connection at a time, reopened whenever the server
/// closes it (at its keep-alive cap): walk `ops` cyclically from `start`,
/// counting ops that start from the first round boundary at or after
/// `measure_from`, and stopping at the first round boundary at or after
/// `stop_at`, so a run holds whole rounds of [`ROUND`] ops.
#[allow(clippy::too_many_arguments)]
fn closed_thread(
    addr: SocketAddr,
    ops: &[Op],
    start: usize,
    measure_from: Instant,
    stop_at: Instant,
    trace: bool,
    epoch: Instant,
    lane: u16,
) -> ThreadTally {
    let mut tally = ThreadTally::new(epoch, lane);
    let mut conn = None;
    let mut measuring = false;
    let mut k = start;
    loop {
        let now = Instant::now();
        if k.is_multiple_of(ROUND) {
            if now >= stop_at {
                break;
            }
            measuring |= now >= measure_from;
        }
        let op = &ops[k % ops.len()];
        let t = Instant::now();
        let traced = trace && k.is_multiple_of(TRACE_EVERY);
        let (failed, wrong) = exchange(addr, &mut conn, op, &mut tally, measuring, t, traced);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if measuring {
            tally.attempted += 1;
            tally.failed += u64::from(failed);
            tally.wrong += u64::from(wrong);
            if !failed {
                tally.lat_ns.push((op.use_case, ns, Instant::now()));
            }
        }
        k += 1;
    }
    tally.done = Instant::now();
    tally
}

/// Length of the sub-windows a measured load is cut into.
pub const WINDOW: Duration = Duration::from_secs(1);

/// One sub-window of a measured load: ops that completed in it, and the
/// server CPU spent in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Correct ops completed per second.
    pub ops_per_s: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 90th percentile latency, µs (`None` below 40 ops).
    pub p90_us: Option<f64>,
    /// Server CPU (all threads) per completed op, µs.
    pub cpu_us_per_op: f64,
}

/// Everything one measured load produced.
#[derive(Debug)]
pub struct LoadResult {
    /// Latency (µs) of each measured op that did not fail.
    pub lat_us: Vec<f64>,
    /// Median latency (µs) of each use case in the load.
    pub case_p50: Vec<(UseCase, f64)>,
    /// Measured ops.
    pub attempted: u64,
    /// Failed ops (transport error, timeout, a status that is no verdict).
    pub failed: u64,
    /// Ops answered wrongly: a verdict contradicting the oracle, or a body
    /// contradicting its status.
    pub wrong: u64,
    /// Connections opened during the measured window.
    pub connects: u64,
    /// Measured window, s (first measured op to the last thread's stop).
    pub window_s: f64,
    /// The measured window cut into [`WINDOW`]s.
    pub windows: Vec<Window>,
    /// Per-thread server counter growth over the window.
    pub server: Vec<ThreadCounters>,
    /// Client spans (traced runs).
    pub spans: Spans,
}

impl LoadResult {
    /// No ops yet.
    pub fn empty(epoch: Instant) -> LoadResult {
        LoadResult {
            lat_us: Vec::new(),
            case_p50: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            connects: 0,
            window_s: 0.0,
            windows: Vec::new(),
            server: Vec::new(),
            spans: Spans::new(epoch, 0),
        }
    }

    /// Ops that completed with a correct answer.
    pub fn good(&self) -> u64 {
        self.attempted - self.failed - self.wrong
    }
}

/// Drive `server` with `ops` from `threads` threads for `warmup` and then
/// `measure`, sampling the server's `/proc` counters at every [`WINDOW`]
/// boundary of the measured window.
pub fn load(
    server: &ServerProc,
    ops: &[Op],
    threads: usize,
    warmup: Duration,
    measure: Duration,
    trace: bool,
    epoch: Instant,
) -> Result<LoadResult, String> {
    let t0 = Instant::now();
    let measure_from = t0 + warmup;
    let stop_at = measure_from + measure;
    let addr = server.addr;
    let (tallies, samples) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lane = u16::try_from(t + 1).unwrap_or(u16::MAX);
                // Threads start a whole number of rounds apart.
                let start = (ops.len() / threads / ROUND) * ROUND * t;
                s.spawn(move || {
                    closed_thread(addr, ops, start, measure_from, stop_at, trace, epoch, lane)
                })
            })
            .collect();
        let mut snaps = Vec::new();
        let mut next = measure_from;
        while next <= stop_at {
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            snaps.push((Instant::now(), procfs::snapshot(server.pid)));
            next += WINDOW;
        }
        let tallies: Vec<ThreadTally> =
            handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect();
        (tallies, snaps)
    });
    let snaps = samples
        .into_iter()
        .map(|(t, s)| s.map(|s| (t, s)))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("server /proc: {e}"))?;
    let after = procfs::snapshot(server.pid).map_err(|e| format!("server /proc: {e}"))?;
    let before = &snaps.first().ok_or("no /proc sample")?.1;
    let done = tallies.iter().map(|t| t.done).max().unwrap_or(stop_at);
    let mut out = LoadResult {
        lat_us: Vec::new(),
        case_p50: Vec::new(),
        attempted: 0,
        failed: 0,
        wrong: 0,
        connects: 0,
        window_s: done.saturating_duration_since(measure_from).as_secs_f64(),
        windows: Vec::new(),
        server: procfs::delta(before, &after),
        spans: Spans::new(epoch, 0),
    };
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); snaps.len().saturating_sub(1)];
    let mut by_case: Vec<(UseCase, Vec<f64>)> = Vec::new();
    for t in tallies {
        for &(uc, ns, at) in &t.lat_ns {
            let us = crate::stats::us(ns);
            out.lat_us.push(us);
            if let Some(w) = snaps.windows(2).position(|p| p[0].0 <= at && at < p[1].0) {
                per_window[w].push(us);
            }
            match by_case.iter_mut().find(|(c, _)| *c == uc) {
                Some((_, v)) => v.push(us),
                None => by_case.push((uc, vec![us])),
            }
        }
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.wrong += t.wrong;
        out.connects += t.connects;
        out.spans.absorb(t.spans);
    }
    out.case_p50 =
        by_case.iter().map(|(uc, v)| (*uc, crate::stats::median(v).unwrap_or(0.0))).collect();
    for (pair, lat) in snaps.windows(2).zip(&per_window) {
        let Some(sum) = crate::stats::summarize(lat) else { continue };
        let cpu = procfs::sum_named(&procfs::delta(&pair[0].1, &pair[1].1), &[]);
        let ops = aon_trace::num::exact_f64(u64::try_from(lat.len()).unwrap_or(u64::MAX));
        out.windows.push(Window {
            ops_per_s: ops / (pair[1].0 - pair[0].0).as_secs_f64(),
            p50_us: sum.p50,
            p90_us: sum.p90,
            cpu_us_per_op: crate::stats::us(cpu.run_ns) / ops,
        });
    }
    Ok(out)
}

/// Send `ops` one after another on one keep-alive connection (no
/// concurrency, so no queueing): the per-use-case latency the ledger
/// reconciles.
pub fn serial(addr: SocketAddr, ops: &[Op], trace: bool, epoch: Instant, lane: u16) -> LoadResult {
    let mut tally = ThreadTally::new(epoch, lane);
    let mut conn = None;
    let t0 = Instant::now();
    for op in ops {
        let t = Instant::now();
        let (failed, wrong) = exchange(addr, &mut conn, op, &mut tally, true, t, trace);
        tally.attempted += 1;
        tally.failed += u64::from(failed);
        tally.wrong += u64::from(wrong);
        if !failed {
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            tally.lat_ns.push((op.use_case, ns, Instant::now()));
        }
    }
    LoadResult {
        lat_us: tally.lat_ns.iter().map(|&(_, ns, _)| crate::stats::us(ns)).collect(),
        case_p50: Vec::new(),
        attempted: tally.attempted,
        failed: tally.failed,
        wrong: tally.wrong,
        connects: tally.connects,
        window_s: t0.elapsed().as_secs_f64(),
        windows: Vec::new(),
        server: Vec::new(),
        spans: tally.spans,
    }
}

/// Open and close `n` connections to `addr`, timing each `connect` (µs).
pub fn connect_probe(addr: SocketAddr, n: usize) -> io::Result<Vec<f64>> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let c = TcpStream::connect_timeout(&addr, OP_TIMEOUT)?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            drop(c);
            Ok(us)
        })
        .collect()
}

/// Loopback floor: two benchmark threads ping-pong `req_len` bytes out
/// and `resp_len` bytes back over one TCP connection, `rounds` times, with
/// no AON code involved. Returns each round trip in µs.
pub fn loopback_floor(req_len: usize, resp_len: usize, rounds: usize) -> io::Result<Vec<f64>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> io::Result<()> {
            let (mut peer, _) = listener.accept()?;
            peer.set_nodelay(true)?;
            let mut req = vec![0u8; req_len];
            let resp = vec![b'r'; resp_len];
            for _ in 0..rounds {
                peer.read_exact(&mut req)?;
                peer.write_all(&resp)?;
            }
            Ok(())
        });
        let mut c = TcpStream::connect(addr)?;
        c.set_nodelay(true)?;
        c.set_read_timeout(Some(OP_TIMEOUT))?;
        let req = vec![b'q'; req_len];
        let mut resp = vec![0u8; resp_len];
        let mut out = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t = Instant::now();
            c.write_all(&req)?;
            c.read_exact(&mut resp)?;
            out.push(t.elapsed().as_secs_f64() * 1e6);
        }
        echo.join().map_err(|_| io::Error::other("echo thread panicked"))??;
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_probe_round_trips() {
        let rtts = loopback_floor(5_000, 100, 20).expect("loopback works");
        assert_eq!(rtts.len(), 20);
        assert!(rtts.iter().all(|&r| r > 0.0));
    }
}
