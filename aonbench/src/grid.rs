//! The simulator probe of traced runs: the paper's cells (five platforms
//! × {netperf loopback, netperf end-to-end, FR, CBR, SV}) through the
//! same public calls `run_cell` makes, one at a time on the calling
//! thread, with the persistent cell cache left off.

use crate::spans::Spans;
use aon_core::experiment::ExperimentConfig;
use aon_core::memo::{self, CorpusSpec};
use aon_core::WorkloadKind;
use aon_net::netperf::NetperfConfig;
use aon_server::corpus::Corpus;
use aon_server::UseCase;
use aon_sim::config::Platform;
use aon_sim::machine::Machine;
use aon_sim::stats::MachineStats;
use std::time::Instant;

/// Fixed cell windows: the repository's quick windows (2M warm-up + 8M
/// measured cycles), at which the shape checks still reproduce 19 of 20
/// claims, over the default four-message corpus drawn from `seed`.
pub fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        warmup_cycles: 2_000_000,
        measure_cycles: 8_000_000,
        corpus_seed: seed,
        corpus_variants: 4,
    }
}

/// Two runs of a cell produced the same counters.
pub fn same(a: &MachineStats, b: &MachineStats) -> bool {
    a.cycles == b.cycles
        && a.completed_units == b.completed_units
        && a.completed_bytes == b.completed_bytes
        && a.total == b.total
        && a.per_cpu == b.per_cpu
}

/// Generate the corpus for `spec` and record the FR/CBR/SV traces
/// through the memo (cold on a spec's first use in the process); returns
/// the seconds taken.
pub fn record(spec: CorpusSpec, spans: &mut Spans) -> f64 {
    let op = spans.id();
    let t = Instant::now();
    memo::corpus(spec);
    for uc in [UseCase::Fr, UseCase::Cbr, UseCase::Sv] {
        memo::server_recording(uc, spec);
    }
    spans.record(op, None, "core.memo.record", t, Instant::now());
    t.elapsed().as_secs_f64()
}

/// Record the netperf traces (keyed by send size only, so once per
/// process); returns the seconds taken.
pub fn record_netperf() -> f64 {
    let t = Instant::now();
    memo::netperf_recording(&NetperfConfig::default());
    t.elapsed().as_secs_f64()
}

/// Per-layer tallies from cells run through [`replica_cell`].
#[derive(Debug, Default, Clone)]
pub struct SimTally {
    /// `Machine::new` + workload wiring, ms per cell.
    pub build_ms: Vec<f64>,
    /// `MachineStats::collect`, ms per cell.
    pub collect_ms: Vec<f64>,
    /// Simulated cycles and wall seconds inside `Machine::run`, netperf
    /// cells.
    pub netperf: (f64, f64),
    /// The same for server cells.
    pub server: (f64, f64),
    /// Instructions retired in measured windows, and their wall seconds.
    pub instr: (f64, f64),
}

/// Run one cell step by step through the same public calls
/// `run_cell` makes (build from the memo, warm up, reset, measure,
/// collect), timing each as a span. Returns the stats and how many
/// invariant violations `Machine::validate` reported.
pub fn replica_cell(
    platform: Platform,
    workload: WorkloadKind,
    cfg: &ExperimentConfig,
    spans: &mut Spans,
    tally: &mut SimTally,
) -> (MachineStats, usize) {
    let op = spans.id();
    let root = spans.id();
    let t0 = Instant::now();
    let mut machine = Machine::new(platform.config());
    workload.build_memoized(&mut machine, CorpusSpec::of(cfg));
    let t1 = Instant::now();
    machine.run(cfg.warmup_cycles);
    machine.reset_counters();
    let t2 = Instant::now();
    let out = machine.run(cfg.warmup_cycles + cfg.measure_cycles);
    let t3 = Instant::now();
    let stats = MachineStats::collect(&machine, &out);
    let t4 = Instant::now();
    let violations = machine.validate().len();
    spans.record(op, Some(root), "sim.build", t0, t1);
    spans.record(op, Some(root), "sim.warmup", t1, t2);
    spans.record(op, Some(root), "sim.measure", t2, t3);
    spans.record(op, Some(root), "core.collect", t3, t4);
    spans.push(root, op, None, "grid.cell", t0, t4);

    tally.build_ms.push((t1 - t0).as_secs_f64() * 1e3);
    tally.collect_ms.push((t4 - t3).as_secs_f64() * 1e3);
    let cycles = aon_trace::num::exact_f64(cfg.warmup_cycles + cfg.measure_cycles);
    let run_s = (t3 - t1).as_secs_f64();
    let slot = match workload {
        WorkloadKind::NetperfLoopback | WorkloadKind::NetperfE2E => &mut tally.netperf,
        _ => &mut tally.server,
    };
    slot.0 += cycles;
    slot.1 += run_s;
    tally.instr.0 += stats.total.inst_retired();
    tally.instr.1 += (t3 - t2).as_secs_f64();
    (stats, violations)
}

/// The unmemoized reference for a cell: a fresh corpus, traces recorded
/// anew, and the scalar reference replay. Returns the stats and the
/// number of invariant violations.
pub fn reference_cell(
    platform: Platform,
    workload: WorkloadKind,
    cfg: &ExperimentConfig,
) -> (MachineStats, usize) {
    let corpus = Corpus::generate(cfg.corpus_seed, cfg.corpus_variants);
    let mut machine = Machine::new(platform.config());
    machine.set_reference_replay(true);
    workload.build(&mut machine, &corpus);
    machine.run(cfg.warmup_cycles);
    machine.reset_counters();
    let out = machine.run(cfg.warmup_cycles + cfg.measure_cycles);
    (MachineStats::collect(&machine, &out), machine.validate().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_core::experiment::run_cell;

    #[test]
    fn replica_matches_run_cell_and_reference() {
        let cfg = ExperimentConfig { warmup_cycles: 200_000, measure_cycles: 800_000, ..config(3) };
        let mut spans = Spans::new(Instant::now(), 1);
        let mut tally = SimTally::default();
        for w in [WorkloadKind::NetperfLoopback, WorkloadKind::Cbr] {
            let p = Platform::TwoCorePentiumM;
            let (replica, violations) = replica_cell(p, w, &cfg, &mut spans, &mut tally);
            assert_eq!(violations, 0);
            assert!(same(&replica, &run_cell(p, w, &cfg).stats));
            let (reference, violations) = reference_cell(p, w, &cfg);
            assert_eq!(violations, 0);
            assert!(same(&replica, &reference), "{w}: memoized differs from reference");
        }
        assert_eq!(spans.durations("grid.cell").len(), 2);
        assert_eq!(tally.build_ms.len(), 2);
        assert!(tally.netperf.0 > 0.0 && tally.server.0 > 0.0);
    }
}
