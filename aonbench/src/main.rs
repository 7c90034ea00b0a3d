//! `aonbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! aonbench --workload soap_mix|secure_mix --seed N
//!          --seconds S --trace 0|1 --server-bin PATH
//! ```
//!
//! Each workload starts `aon-serve` (default flags) as a separate process
//! and loads it over loopback with the benchmark's own client; traced
//! runs also probe the simulator's layers in this process. Every answer
//! is checked against [`oracle`]. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics untraced, the per-layer metrics traced (spans
//! and `/proc` deltas also go to `.bench_out/<workload>-<seed>.jsonl`).

mod grid;
mod inputs;
mod layers;
mod live;
mod oracle;
mod procfs;
mod spans;
mod stats;

use aon_core::experiment::run_cell;
use aon_core::memo::CorpusSpec;
use aon_core::report::check_all_shapes;
use aon_core::{Measurement, WorkloadKind};
use aon_obs::stage::Stage;
use aon_server::{Engine, UseCase};
use aon_sim::config::Platform;
use aon_trace::num::exact_f64;
use inputs::Op;
use live::{LoadResult, ServerProc};
use procfs::ThreadCounters;
use spans::Spans;
use stats::{median, summarize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Cold starts per untraced run (a traced run makes the first half only);
/// `setup_s` is their median. One start takes about 2.2 ms, so they cost
/// about half a second.
const COLD_STARTS: usize = 201;
/// Load before the measured window of a live run.
const WARMUP: Duration = Duration::from_secs(1);
/// Ledger pass: keep-alive requests per use case (DPI, at ms each, fewer).
const LEDGER_OPS: usize = 400;
const LEDGER_DPI_OPS: usize = 40;
/// Requests per use case replayed in process (all 40 for DPI).
const REPLAY_OPS: usize = 64;
/// One-shot pass: FR requests on a new connection each, one at a time.
const ONESHOT_OPS: usize = 400;
/// Length of the server's `200 routed="true"` keep-alive reply, the
/// floor probe's answer size.
const REPLY_LEN: usize = 105;
/// Where traced runs write their spans.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        server_bin: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--trace" => args.trace = num(&value)? != 0,
            "--server-bin" => args.server_bin = PathBuf::from(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// The run's result, printed as the last line.
#[derive(Debug, Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> Result<String, String> {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a number ({value})"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(m, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        ))
    }
}

fn main() {
    let result = parse_args().and_then(|args| run(&args)).and_then(|r| Ok((r.json()?, r.correct)));
    match result {
        Ok((json, correct)) => {
            println!("{json}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("aonbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!("aonbench: {} seed {} for {}s on {cpus} CPUs", args.workload, args.seed, args.seconds);
    let ops = match args.workload.as_str() {
        "soap_mix" => inputs::soap_mix(args.seed),
        "secure_mix" => inputs::secure_mix(args.seed),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let epoch = Instant::now();
    let probe = inputs::probe(args.seed);
    // Half the cold starts run before the load and half after it, so
    // `setup_s` samples the host at two moments a run apart.
    let (mut starts, server) = cold_starts(&args.server_bin, &probe, COLD_STARTS / 2)?;
    let measure = Duration::from_secs(args.seconds);
    // One client thread (and connection) per CPU, as many as the server
    // has workers.
    let load = live::load(&server, &ops, cpus, WARMUP, measure, args.trace, epoch)?;
    let rss_kib = procfs::peak_rss_kib(server.pid).ok_or("server VmHWM unreadable")?;

    let lat = summarize(&load.lat_us).ok_or("no op completed")?;
    let server_cpu = procfs::sum_named(&load.server, &[]);
    let throughput = exact_f64(load.good()) / load.window_s;
    println!(
        "whole window: ops {} failed {} wrong {} connects {} | {throughput:.1} ops/s, \
         {:.1}us CPU/op | p50 {:.1}us p90 {:.1}us p99 {:.1}us ({} beyond p99)",
        load.attempted,
        load.failed,
        load.wrong,
        load.connects,
        stats::us(server_cpu.run_ns) / exact_f64(load.attempted),
        lat.p50,
        lat.p90.unwrap_or(f64::NAN),
        lat.p99,
        lat.beyond_p99
    );
    for (uc, p50) in &load.case_p50 {
        println!("  {:<6} p50 {p50:.1}us", uc.label());
    }
    let mut report = Report {
        correct: load.wrong == 0,
        attempted: load.attempted,
        failed: load.failed,
        ..Report::default()
    };
    // The gated figures are medians over the one-second sub-windows: a
    // stall or a slow phase of the shared host spoils a few windows, not
    // the run.
    let w = &load.windows;
    let of = |f: fn(&live::Window) -> f64| median(&w.iter().map(f).collect::<Vec<_>>());
    let ops_per_s = of(|w| w.ops_per_s).ok_or("no measured window")?;
    let p50 = of(|w| w.p50_us).ok_or("no measured window")?;
    if !args.trace {
        report.metric("throughput_ops_s", ops_per_s, "1/s");
        report.metric("latency_p50_us", p50, "us");
        if w.iter().all(|w| w.p90_us.is_some()) {
            report.metric("latency_p90_us", of(|w| w.p90_us.unwrap_or(0.0)).unwrap_or(0.0), "us");
        }
        report.metric("cpu_us_per_op", of(|w| w.cpu_us_per_op).unwrap_or(0.0), "us");
        drop(server);
        let (after, last) = cold_starts(&args.server_bin, &probe, COLD_STARTS - COLD_STARTS / 2)?;
        drop(last);
        starts.extend(after);
        report.metric("setup_s", median(&starts).unwrap_or(0.0), "s");
        report.metric("peak_rss_mib", exact_f64(rss_kib) / 1024.0, "MiB");
        return Ok(report);
    }

    let mut trace = Trace::new(epoch);
    trace.proc("workload", &load.server);
    serve_metrics(&mut report, &load);
    let connects: Vec<f64> =
        load.spans.durations("client.connect").iter().map(|&n| stats::us(n)).collect();
    let first_byte = median_us(&load.spans, "client.first_byte");
    trace.spans.absorb(load.spans);
    let probe_connects = ledger_pass(&server, args.seed, &mut trace, &mut report)?;
    drop(server);
    let mut all_connects = connects;
    all_connects.extend(probe_connects);
    report.metric("client.connect_us", median(&all_connects).unwrap_or(0.0), "us");
    report.metric("client.first_byte_us", first_byte, "us");
    sim_probe(args.seed, &mut trace, &mut report);
    report.metric("traced.throughput_ops_s", ops_per_s, "1/s");
    report.metric("traced.latency_p50_us", p50, "us");
    trace.write(&args.workload, args.seed)?;
    Ok(report)
}

/// Start the server `n` times (`n > 0`), stopping each before the next
/// start; returns the spawn-to-first-correct-response times (s) and the
/// last server, still running.
fn cold_starts(bin: &Path, probe: &Op, n: usize) -> Result<(Vec<f64>, ServerProc), String> {
    let mut starts = Vec::with_capacity(n);
    let mut server = None;
    for _ in 0..n {
        // Stop the previous server before the next start.
        drop(server.take());
        let (s, secs) = live::cold_start(bin, probe)?;
        starts.push(secs);
        server = Some(s);
    }
    Ok((starts, server.ok_or("no cold start ran")?))
}

fn median_us(spans: &Spans, name: &str) -> f64 {
    let v: Vec<f64> = spans.durations(name).iter().map(|&n| stats::us(n)).collect();
    median(&v).unwrap_or(0.0)
}

/// The serving-layer metrics of one load, from the server's `/proc`
/// counter growth: per op for the workers, per second for the listener
/// and the background threads.
fn serve_metrics(report: &mut Report, load: &LoadResult) {
    let ops = exact_f64(load.attempted.max(1));
    let secs = load.window_s;
    let workers = procfs::sum_named(&load.server, &["aon-worker-"]);
    let accept = procfs::sum_named(&load.server, &["aon-accept"]);
    let background = procfs::sum_named(&load.server, &["aon-governor", "aon-profiler"]);
    report.metric("serve.worker_cpu_us_per_op", stats::us(workers.run_ns) / ops, "us");
    report.metric("serve.worker_wakeups_per_op", exact_f64(workers.wakeups) / ops, "count");
    report.metric("serve.worker_preemptions_per_op", exact_f64(workers.preemptions) / ops, "count");
    report.metric("serve.accept_cpu_us_per_s", stats::us(accept.run_ns) / secs, "us/s");
    report.metric("serve.accept_wakeups_per_s", exact_f64(accept.wakeups) / secs, "1/s");
    report.metric("serve.background_cpu_us_per_s", stats::us(background.run_ns) / secs, "us/s");
}

/// Spans, counter deltas and ledger rows of a traced run, written as
/// JSON lines at the end.
struct Trace {
    spans: Spans,
    lines: String,
}

impl Trace {
    fn new(epoch: Instant) -> Trace {
        Trace { spans: Spans::new(epoch, 0), lines: String::new() }
    }

    fn proc(&mut self, pass: &str, deltas: &[ThreadCounters]) {
        for d in deltas {
            let _ = writeln!(
                self.lines,
                "{{\"type\":\"proc\",\"pass\":\"{pass}\",\"thread\":\"{}\",\"run_ns\":{},\
                 \"wakeups\":{},\"preemptions\":{}}}",
                d.name, d.run_ns, d.wakeups, d.preemptions
            );
        }
    }

    fn write(&self, workload: &str, seed: u64) -> Result<(), String> {
        let mut out = self.lines.clone();
        self.spans.to_jsonl(&mut out);
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/{workload}-{seed}.jsonl");
        std::fs::write(&path, out).map_err(|e| format!("{path}: {e}"))?;
        println!("trace: {} spans written to {path}", self.spans.spans.len());
        Ok(())
    }
}

/// Per use case, reconcile the live unloaded p50 with the costs of the
/// layers it crosses: live p50 = frame + head parse + engine + loopback
/// floor + an unattributed remainder (response build and write, wake-ups,
/// the observability planes, anything no layer probe sees). Returns the
/// `connect` times (µs) of a connection probe run after it.
fn ledger_pass(
    server: &ServerProc,
    seed: u64,
    trace: &mut Trace,
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let sets = inputs::ledger(seed, LEDGER_OPS, LEDGER_DPI_OPS);
    let engine = Engine::new();
    report.metric("engine.new_ms", layers::engine_new_ms(5), "ms");
    let req_len = sets[0].1[0].request.len();
    let floor =
        live::loopback_floor(req_len, REPLY_LEN, 2000).map_err(|e| format!("floor: {e}"))?;
    let floor_us = median(&floor).unwrap_or(0.0);
    report.metric("floor.loopback_rtt_us", floor_us, "us");

    let before = procfs::snapshot(server.pid).map_err(|e| format!("server /proc: {e}"))?;
    let t = Instant::now();
    let mut live = LoadResult::empty(trace.spans.epoch());
    println!("ledger (us)  live_p50 = frame + head + engine + floor + unattributed");
    for (i, (uc, ops)) in sets.iter().enumerate() {
        // Live and in-process passes of one use case run back to back,
        // so both see the same phase of the host.
        let lane = u16::try_from(100 + i).unwrap_or(u16::MAX);
        let r = live::serial(server.addr, ops, true, trace.spans.epoch(), lane);
        live.attempted += r.attempted;
        live.failed += r.failed;
        live.wrong += r.wrong;
        live.connects += r.connects;
        let p50 = summarize(&r.lat_us).map_or(0.0, |s| s.p50);
        trace.spans.absorb(r.spans);
        let cost =
            layers::replay(&engine, *uc, &ops[..REPLAY_OPS.min(ops.len())], &mut trace.spans);
        report.attempted += cost.ops;
        report.correct &= cost.wrong == 0;
        let stage = |s: Stage| cost.stage_ns[s.index()];
        match uc {
            UseCase::Fr => {
                report.metric("wire.frame_ns_per_op", cost.frame_ns, "ns");
                report.metric("http.parse_ns_per_op", cost.parse_ns, "ns");
                report.metric("engine.fr_ns", cost.engine_ns, "ns");
            }
            UseCase::Cbr => {
                report.metric("engine.cbr.parse_ns", stage(Stage::Parse), "ns");
                report.metric("engine.cbr.xpath_ns", stage(Stage::XPath), "ns");
            }
            UseCase::Sv => {
                report.metric("engine.sv.parse_ns", stage(Stage::Parse), "ns");
                report.metric("engine.sv.validate_ns", stage(Stage::Validate), "ns");
            }
            UseCase::Dpi => report.metric("engine.dpi.scan_ns", stage(Stage::Dpi), "ns"),
            UseCase::Crypto => report.metric("engine.crypto.hmac_ns", stage(Stage::Crypto), "ns"),
        }
        let (frame, head, eng) = (cost.frame_ns / 1e3, cost.parse_ns / 1e3, cost.engine_ns / 1e3);
        let rest = p50 - frame - head - eng - floor_us;
        println!(
            "  {:<6} {p50:9.1} = {frame:6.2} + {head:5.2} + {eng:8.1} + {floor_us:5.1} + {rest:7.1}",
            uc.label()
        );
        let _ = writeln!(
            trace.lines,
            "{{\"type\":\"ledger\",\"use_case\":\"{}\",\"live_p50_us\":{p50},\"frame_us\":{frame},\
             \"head_parse_us\":{head},\"engine_us\":{eng},\"floor_us\":{floor_us},\
             \"unattributed_us\":{rest}}}",
            uc.label()
        );
        let name = match uc {
            UseCase::Fr => "ledger.fr.unattributed_us",
            UseCase::Cbr => "ledger.cbr.unattributed_us",
            UseCase::Sv => "ledger.sv.unattributed_us",
            UseCase::Dpi => "ledger.dpi.unattributed_us",
            UseCase::Crypto => "ledger.crypto.unattributed_us",
        };
        report.metric(name, rest, "us");
    }
    live.window_s = t.elapsed().as_secs_f64();
    let after = procfs::snapshot(server.pid).map_err(|e| format!("server /proc: {e}"))?;
    live.server = procfs::delta(&before, &after);
    trace.proc("ledger", &live.server);
    report.attempted += live.attempted;
    report.failed += live.failed;
    report.correct &= live.wrong == 0;
    oneshot_pass(server, seed, trace, report)?;
    live::connect_probe(server.addr, 50).map_err(|e| format!("connect probe: {e}"))
}

/// The accept path, which no listed workload loads: [`ONESHOT_OPS`] FR
/// requests on 1 KiB bodies, each on a new connection asking to close,
/// one at a time. Reports their p50 (connect to whole answer), the
/// server CPU per request and the listener's useful wake-ups.
fn oneshot_pass(
    server: &ServerProc,
    seed: u64,
    trace: &mut Trace,
    report: &mut Report,
) -> Result<(), String> {
    let ops = inputs::fr_oneshot(seed);
    let ops = &ops[..ONESHOT_OPS.min(ops.len())];
    let before = procfs::snapshot(server.pid).map_err(|e| format!("server /proc: {e}"))?;
    let r = live::serial(server.addr, ops, true, trace.spans.epoch(), 99);
    let after = procfs::snapshot(server.pid).map_err(|e| format!("server /proc: {e}"))?;
    let deltas = procfs::delta(&before, &after);
    trace.proc("oneshot", &deltas);
    trace.spans.absorb(r.spans);
    let accept = procfs::sum_named(&deltas, &["aon-accept"]);
    let server_cpu = procfs::sum_named(&deltas, &[]);
    let p50 = summarize(&r.lat_us).map_or(0.0, |s| s.p50);
    println!(
        "one-shot pass: {} requests, p50 {p50:.1}us, {} connects over {} listener wake-ups",
        r.attempted, r.connects, accept.wakeups
    );
    report.metric("client.oneshot_us", p50, "us");
    report.metric(
        "serve.oneshot_cpu_us_per_op",
        stats::us(server_cpu.run_ns) / exact_f64(r.attempted.max(1)),
        "us",
    );
    report.metric(
        "serve.accepts_per_accept_wakeup",
        exact_f64(r.connects) / exact_f64(accept.wakeups.max(1)),
        "ratio",
    );
    report.attempted += r.attempted;
    report.failed += r.failed;
    report.correct &= r.wrong == 0;
    Ok(())
}

/// The simulator's layers and checks: one cold memo recording, the
/// paper's 25 cells through `run_cell` (the paper's shape checks are
/// counted on them), then one cell of each workload kind on the two-core
/// Pentium M again, step by step. Its counters must equal the same cell
/// of the round (a repeated cell) and an unmemoized reference replay, and
/// `Machine::validate` must report nothing.
fn sim_probe(seed: u64, trace: &mut Trace, report: &mut Report) {
    let cfg = grid::config(seed);
    grid::record_netperf();
    let record_s = grid::record(CorpusSpec::of(&cfg), &mut trace.spans);
    let round: Vec<Measurement> = WorkloadKind::ALL
        .iter()
        .flat_map(|&w| Platform::ALL.iter().map(move |&p| (p, w)))
        .map(|(p, w)| run_cell(p, w, &cfg))
        .collect();
    let shapes = check_all_shapes(&round);
    let passed = shapes.iter().filter(|c| c.pass).count();
    println!("simulator: shape checks passed {passed}/{}", shapes.len());
    let mut tally = grid::SimTally::default();
    let p = Platform::TwoCorePentiumM;
    for w in WorkloadKind::ALL {
        let (stats, violations) = grid::replica_cell(p, w, &cfg, &mut trace.spans, &mut tally);
        let repeated = round
            .iter()
            .any(|m| m.platform == p && m.workload == w && grid::same(&m.stats, &stats));
        let (reference, ref_violations) = grid::reference_cell(p, w, &cfg);
        let ok = repeated && grid::same(&stats, &reference) && violations + ref_violations == 0;
        if !ok {
            println!(
                "simulator: {w} on {p:?}: repeat equal {repeated}, reference equal {}, \
                 violations {violations} + {ref_violations}",
                grid::same(&stats, &reference)
            );
        }
        report.attempted += 1;
        report.correct &= ok;
    }
    sim_metrics(report, record_s * 1e3, &tally);
}

fn sim_metrics(report: &mut Report, record_ms: f64, tally: &grid::SimTally) {
    report.metric("trace.record_ms", record_ms, "ms");
    report.metric("sim.build_ms_per_cell", median(&tally.build_ms).unwrap_or(0.0), "ms");
    report.metric("core.collect_ms_per_cell", median(&tally.collect_ms).unwrap_or(0.0), "ms");
    let rate = |(x, s): (f64, f64)| if s > 0.0 { x / s / 1e6 } else { 0.0 };
    report.metric("sim.netperf.mcycles_per_s", rate(tally.netperf), "Mcycles/s");
    report.metric("sim.server.mcycles_per_s", rate(tally.server), "Mcycles/s");
    report.metric("sim.minstr_per_s", rate(tally.instr), "Minstr/s");
}
