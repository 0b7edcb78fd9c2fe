//! Wire-level serving benchmark for `elm-server`.
//!
//! One run spawns a release `elm-server` as a child process, drives it
//! over the NDJSON/TCP wire from this process (two threads, two
//! connections at most), checks every answer against a governed
//! synchronous replay of the same generated inputs, and reports
//! end-to-end metrics. A traced run (`--trace 1`) instead reports
//! per-layer metrics: the same workload with a span around every
//! request, a six-rung ladder from a native graph up to the wire, and
//! single-layer probes.
//!
//! Workloads:
//!
//! * `interactive` — 64 observed, subscribed `dashboard` sessions fed
//!   single events on an open-loop schedule at a base rate, then at twice
//!   it, with a periodic metrics scrape.
//! * `batch-saturate` — 32 distinct synth programs fed `batch` + `query`
//!   pairs in a closed loop, one operation in flight, then a fixed
//!   window.
//! * `session-churn` — open → batch → query → close cycles of ad-hoc
//!   synth sources, one in flight, then a fixed window; a fixed share of
//!   sources repeat.
//!
//! Every workload reports the bounded end-to-end metrics
//! ([`END_TO_END`]): set-up time, the server's CPU time per operation and
//! its peak RSS. Latencies (an `update` line, or the `query` reply after
//! a `batch`), rates and scrape times are printed in the table beside
//! them. The closed loops take their scrapes once the load has stopped;
//! `interactive` scrapes once a second under load.

pub mod closed;
pub mod gate;
pub mod inputs;
pub mod interactive;
pub mod ladder;
pub mod native;
pub mod report;
pub mod spans;
pub mod stats;
pub mod wire;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use elm_runtime::PlainValue;

use crate::closed::{ChurnPlan, SaturatePlan};
use crate::inputs::Lane;
use crate::interactive::{Prediction, Schedule};
use crate::ladder::Ladder;
use crate::report::Report;
use crate::spans::Spans;
use crate::wire::{Conn, Launched, Launcher};

/// The workloads, by their `--workload` names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop single events to observed, subscribed dashboards.
    Interactive,
    /// Closed-loop batches to distinct synth programs.
    BatchSaturate,
    /// Closed-loop open/batch/query/close cycles.
    SessionChurn,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "interactive" => Some(Workload::Interactive),
            "batch-saturate" => Some(Workload::BatchSaturate),
            "session-churn" => Some(Workload::SessionChurn),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::BatchSaturate => "batch-saturate",
            Workload::SessionChurn => "session-churn",
        }
    }
}

/// One run's settings.
#[derive(Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where the server comes from.
    pub launcher: Launcher,
    /// Where the traced run writes its spans and layer table.
    pub out_dir: PathBuf,
    /// Corrupt one expected answer, so the gate must fail (self-test).
    pub plant: bool,
}

/// The end-to-end metrics `BENCHMARK.json` bounds, in the JSON line of
/// every untraced run. The run's other figures (tail latencies,
/// throughputs, scrape times) go to the table only: on a shared host they
/// move with hypervisor steal by more than any regression bound allows.
pub const END_TO_END: &[&str] = &["setup_s", "cpu_us_per_op", "rss_mb"];

/// Server set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// `batch-saturate` sessions, each a distinct program. Each seed draws
/// its own programs; with 8 of them, one seed's mix could cost a fifth
/// more per event than another's and load one shard more than the
/// other, so the seed set the figures. 32 average that out.
pub const SATURATE_SESSIONS: usize = 32;
/// Interior nodes per `batch-saturate` program, at most.
pub const SATURATE_INTERIOR: usize = 24;
/// Compiled graph sizes `batch-saturate` programs are drawn from. With
/// no `async` nodes either, the programs cost about the same per event,
/// so neither shard's share of them sets the pace alone.
pub const SATURATE_NODES: std::ops::RangeInclusive<usize> = 9..=11;
/// Slices each phase's latencies are cut into, by count; a latency
/// percentile is the median of the slices' percentiles. A closed loop's
/// base phase, one operation in flight, holds a few thousand samples, so
/// the ten-samples-beyond rule lowers a slice's p99 to about p98.5; the
/// table prints the percentile used.
pub const SLICES: usize = 9;
/// Slices for the sparser `interactive` updates (about 2,000 in a 30 s
/// run's base phase).
pub const SPARSE_SLICES: usize = 3;
/// Slices per phase that closed-loop rates are measured over.
pub const RATE_SLICES: usize = 10;
/// `metrics` scrapes taken after a closed-loop run; `scrape_ms` is
/// their median.
pub const AFTER_LOAD_SCRAPES: usize = 25;
/// `batch-saturate` operations in flight in the loaded phase (the base
/// phase keeps one in flight).
pub const SATURATE_WINDOW: usize = 16;
/// `session-churn` cycles in flight in the loaded phase (the base phase
/// keeps one in flight).
pub const CHURN_WINDOW: usize = 8;
/// `batch-saturate` operations (of [`closed::BATCH`] events) per measured
/// second after which its `rss_mb` is read. The server's footprint grows
/// with the events its sessions have applied (by about a fifth between a
/// run at 10% host steal and one at 27%, which applied half as many), so
/// runs of the same length read it at the same amount of work: 1920
/// operations in a 30 s run, done within its first quarter even at 27%
/// steal.
pub const SATURATE_RSS_OPS_PER_S: f64 = 64.0;
/// Events per `batch-saturate` lane before its stream repeats.
pub const SATURATE_STREAM: usize = 8192;
/// Calls in the `interactive` ladder, paced at the base rate as the
/// workload's open loop is.
pub const LADDER_PACED_CALLS: usize = 2500;
/// Sessions in the `session-churn` ladder, one call each.
pub const LADDER_CHURN_SESSIONS: usize = 512;
/// Server shards, passed explicitly so results do not follow the
/// host's parallelism.
pub const SHARDS: usize = 2;
/// Upper bound on churn cycles per measured second (the plan is
/// generated before the clock starts).
pub const MAX_CHURN_PER_S: f64 = 4000.0;

/// Perturbs a value, for the planted-wrong-answer self-test.
pub fn plant(v: PlainValue) -> PlainValue {
    match v {
        PlainValue::Int(n) => PlainValue::Int(n.wrapping_add(1)),
        other => PlainValue::Str(format!("planted {other:?}")),
    }
}

/// Reports latency percentile `q` of one phase's samples: the median of
/// the percentiles of its `k` slices.
fn ms_pct(
    report: &mut Report,
    name: &str,
    samples: &[f64],
    q: f64,
    k: usize,
) -> Result<(), String> {
    let slices = stats::count_slices(samples, k);
    let p = stats::median_slice_percentile(&slices, q)
        .ok_or_else(|| format!("{name}: too few samples ({} in {k} slices)", samples.len()))?;
    report.metric(
        name,
        p.value,
        "ms",
        format!("median of {k} slices, {}", p.describe()),
    );
    Ok(())
}

/// The median of a run's `metrics` round trips, in ms.
fn scrape_metric(report: &mut Report, samples: &[f64], when: &str) -> Result<(), String> {
    report.metric(
        "scrape_ms",
        stats::median(samples).ok_or("no scrapes completed")?,
        "ms",
        format!("median of {} {when}", samples.len()),
    );
    Ok(())
}

/// The server's CPU time and peak RSS at one moment.
#[derive(Clone, Copy)]
struct Usage {
    /// User and system CPU seconds.
    cpu_s: [f64; 2],
    rss_mb: f64,
}

fn usage(launched: &Launched) -> Option<Usage> {
    Some(Usage {
        cpu_s: launched.cpu_seconds()?,
        rss_mb: launched.peak_rss_mb()?,
    })
}

/// Reads the server's usage, failing the run when procfs cannot.
fn usage_now(launched: &Launched) -> Result<Usage, String> {
    usage(launched).ok_or_else(|| "cannot read the server's CPU time or VmHWM".to_string())
}

/// `cpu_us_per_op` over the base phase, and over the loaded phase
/// (table only): `start` is read as the load begins, `base` as the
/// loaded phase begins, `end` as the load stops; `ops` is what each phase
/// completed. Then `rss_mb`, with what it was read after.
///
/// Over ten seeds the base phase spread least (interquartile range over
/// median 0.07 on `interactive` and `batch-saturate`, against 0.14 and
/// 0.17 for the loaded phase, where throughput and so the contention
/// each operation meets follow the host's steal).
fn usage_metrics(
    report: &mut Report,
    start: Usage,
    base: Option<Usage>,
    end: Usage,
    ops: [usize; 2],
    what: &str,
    rss_mb: (f64, &str),
) -> Result<(), String> {
    let base = base.ok_or("no server usage reading where the base phase ended")?;
    let per_op = |a: Usage, b: Usage, n: usize| {
        (b.cpu_s.iter().sum::<f64>() - a.cpu_s.iter().sum::<f64>()) * 1e6 / n.max(1) as f64
    };
    report.metric(
        "cpu_us_per_op",
        per_op(start, base, ops[0]),
        "us",
        format!("server utime+stime over the base phase / {} {what}", ops[0]),
    );
    report.metric(
        "cpu_us_per_op.loaded",
        per_op(base, end, ops[1]),
        "us",
        format!("the same over the loaded phase / {} {what}", ops[1]),
    );
    report.metric(
        "rss_mb",
        rss_mb.0,
        "MB",
        format!("server peak RSS (VmHWM) {}", rss_mb.1),
    );
    Ok(())
}

/// Starts a server and brings up resident sessions for `lanes`, opened
/// with `"observe":true` and subscribed when `observe`. Returns the
/// server, its connection, and the session ids.
pub(crate) fn setup(
    launcher: &Launcher,
    lanes: &[Lane],
    observe: bool,
) -> Result<(Launched, Conn, Vec<u64>), String> {
    let (launched, mut conn) = launcher.launch()?;
    conn.set_read_timeout(Some(closed::REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    // Requests are pipelined (the server answers a connection's requests
    // in order), so set-up time is the server's work rather than one
    // round trip per session.
    for lane in lanes {
        conn.send(&lane.open_line(observe))
            .map_err(|e| format!("open: {e}"))?;
    }
    let mut sids = Vec::new();
    for _ in lanes {
        let reply = wire::parse(conn.recv().map_err(|e| format!("open: {e}"))?)?;
        wire::ok(&reply)?;
        sids.push(wire::u64_at(&reply, "session").ok_or("opened without id")?);
    }
    if observe {
        for &sid in &sids {
            conn.send(&wire::session_cmd("subscribe", sid))
                .map_err(|e| format!("subscribe: {e}"))?;
        }
        for _ in &sids {
            wire::ok(&wire::parse(
                conn.recv().map_err(|e| format!("subscribe: {e}"))?,
            )?)?;
        }
    }
    if lanes.is_empty() {
        // Nothing resident: the server is up once it answers.
        wire::ok(&wire::parse(
            conn.call(wire::STATS).map_err(|e| e.to_string())?,
        )?)?;
    }
    Ok((launched, conn, sids))
}

/// Sets the server up [`SETUP_REPS`] times and keeps the last one.
/// `setup_s` is the median of the server's time on the CPU from spawn
/// until its sessions are open (and subscribed); the median wall time is
/// printed beside it. Set-up is the server's CPU-bound work (each `open`
/// compiles its program; wall time tracked the server's CPU time within
/// a few percent on a quiet host), but its wall time also stretches with
/// the time the hypervisor gives the host's CPUs to other guests: the
/// median of ten runs' wall medians rose by 47% and 67% between two sets
/// of runs a quarter of an hour apart, while the CPU time per operation
/// moved by 7-12%.
fn setups(
    cfg: &Config,
    lanes: &[Lane],
    report: &mut Report,
) -> Result<(Launched, Conn, Vec<u64>), String> {
    let mut wall = Vec::new();
    let mut cpu = Vec::new();
    let mut last = None;
    let observe = cfg.workload == Workload::Interactive;
    for _ in 0..SETUP_REPS {
        // Stop the previous server before timing the next.
        drop(last.take());
        let t = Instant::now();
        let s = setup(&cfg.launcher, lanes, observe)?;
        wall.push(t.elapsed().as_secs_f64());
        cpu.push(
            s.0.run_seconds()
                .ok_or("cannot read the server's schedstat")?,
        );
        last = Some(s);
    }
    let (launched, conn, sids) = last.expect("at least one set-up");
    if !cfg.trace {
        report.metric(
            "setup_s",
            stats::median(&cpu).unwrap_or(0.0),
            "s",
            format!(
                "median of {} set-ups: server CPU time, spawn -> sessions open",
                cpu.len()
            ),
        );
        report.metric(
            "setup_wall_s",
            stats::median(&wall).unwrap_or(0.0),
            "s",
            format!("median of {} set-ups: wall time", wall.len()),
        );
    }
    Ok((launched, conn, sids))
}

/// Runs `cfg` and returns its report.
///
/// # Errors
///
/// Fails on anything that stops the run from measuring: a server that
/// does not start, a broken connection, an error reply in a closed loop.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let cpu_start = host_cpu_ticks();
    let mut report = Report::default();
    let mut spans = cfg.trace.then(Spans::new);
    let measured = if cfg.trace {
        cfg.seconds * 0.5
    } else {
        cfg.seconds
    };
    let table = match cfg.workload {
        Workload::Interactive => run_interactive(cfg, measured, &mut report, spans.as_mut())?,
        Workload::BatchSaturate => run_saturate(cfg, measured, &mut report, spans.as_mut())?,
        Workload::SessionChurn => run_churn(cfg, measured, &mut report, spans.as_mut())?,
    };
    if !cfg.trace {
        let (bounded, table_only) = std::mem::take(&mut report.metrics)
            .into_iter()
            .partition(|m| END_TO_END.contains(&m.name.as_str()));
        report.metrics = bounded;
        report.info = table_only;
    }
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_start, host_cpu_ticks()) {
        // Time the hypervisor gave this machine's CPUs to other guests
        // slows every figure; the log says how much there was.
        eprintln!(
            "perfbench: host steal {:.1}% of CPU time during the run (/proc/stat)",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        );
    }
    if let (Some(spans), Some(table)) = (spans, table) {
        std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
        let stem = format!("{}-seed{}", cfg.workload.name(), cfg.seed);
        let span_path = cfg.out_dir.join(format!("spans-{stem}.ndjson"));
        spans
            .write_ndjson(&span_path)
            .map_err(|e| format!("write spans: {e}"))?;
        let table_path = cfg.out_dir.join(format!("layers-{stem}.txt"));
        let text = format!(
            "per-layer table: {} seed {} ({})\n{table}\n{}",
            cfg.workload.name(),
            cfg.seed,
            cfg.launcher.flags(),
            report.table()
        );
        std::fs::write(&table_path, &text).map_err(|e| format!("write table: {e}"))?;
        eprint!("{text}");
        eprintln!(
            "spans: {} ({} spans); table: {}",
            span_path.display(),
            spans.all().len(),
            table_path.display()
        );
    }
    Ok(report)
}

/// Climbs the ladder when the run is traced, before the workload runs.
fn climb(
    cfg: &Config,
    ladder: Option<&Ladder<'_>>,
    spans: Option<&mut Spans>,
    report: &mut Report,
) -> Result<Option<ladder::Climb>, String> {
    match (ladder, spans) {
        (Some(l), Some(spans)) => ladder::run(l, &cfg.launcher, spans, report).map(Some),
        _ => Ok(None),
    }
}

/// The traced run's shared tail: the climb reconciled with
/// `workload_call_ms` (the workload's own wire calls with one in flight),
/// wire-side layer metrics from the workload's own connection, and the
/// probes. Returns the per-layer table.
#[allow(clippy::too_many_arguments)]
fn traced_tail(
    cfg: &Config,
    conn: &mut Conn,
    ladder: &Ladder<'_>,
    climb: &ladder::Climb,
    workload_call_ms: &[f64],
    compile: &[(Option<&str>, &str)],
    compile_reps: usize,
    offered: u64,
    bytes: u64,
    gen: (f64, f64),
    report: &mut Report,
) -> Result<String, String> {
    let workload_us = stats::median(workload_call_ms).ok_or("no workload calls completed")? * 1e3;
    let table = ladder::check(climb, workload_us, report);
    let scrape = wire::parse(conn.call(wire::METRICS).map_err(|e| e.to_string())?)?;
    let text = scrape.get("metrics").and_then(|m| m.as_str()).unwrap_or("");
    let series = |s: &str| wire::prom_sample(text, s).unwrap_or(0.0);
    let count = series("elm_ingest_latency_hist_seconds_count{session=\"all\"}");
    let sum = series("elm_ingest_latency_hist_seconds_sum{session=\"all\"}");
    report.metric(
        "shard.queue_wait_us",
        if count > 0.0 { sum / count * 1e6 } else { 0.0 },
        "us",
        format!("mean of elm_ingest_latency_hist_seconds over {count} live-session events"),
    );
    report.metric(
        "blackbox.records_per_event",
        series("elm_blackbox_records_total") / offered.max(1) as f64,
        "count",
        format!("elm_blackbox_records_total / {offered} offered events"),
    );
    report.metric(
        "admission.admitted_frac",
        gate::admitted_frac(conn)?,
        "ratio",
        "admitted / offered (stats)",
    );
    report.metric(
        "net.bytes_per_event",
        bytes as f64 / offered.max(1) as f64,
        "B",
        "both directions on the workload connection",
    );
    report.metric(
        "gen.late_p99_ms",
        gen.0,
        "ms",
        "sender lateness: behind schedule in the open loop, slot freed -> next send in closed loops",
    );
    report.metric(
        "gen.outstanding_max",
        gen.1,
        "count",
        "most updates outstanding (the window in closed loops)",
    );
    ladder::probes(ladder, &cfg.launcher, report)?;
    ladder::compile_probes(compile, compile_reps, report)?;
    Ok(table)
}

fn run_interactive(
    cfg: &Config,
    measured: f64,
    report: &mut Report,
    mut spans: Option<&mut Spans>,
) -> Result<Option<String>, String> {
    let t_phase = measured * 0.5;
    let sched = Schedule::new(
        interactive::BASE_RATE,
        t_phase,
        t_phase,
        interactive::SESSIONS,
    );
    let per_lane = sched.len() / interactive::SESSIONS + 2;
    let lanes = inputs::dashboard_lanes(cfg.seed, interactive::SESSIONS, per_lane);
    let (launched, conn, sids) = setups(cfg, &lanes, report)?;
    let ladder = cfg.trace.then(|| Ladder {
        lanes: &lanes,
        calls: (0..sched.len().min(LADDER_PACED_CALLS))
            .map(|k| vec![(sched.lane[k], sched.index[k])])
            .collect(),
        observe: true,
        batched: false,
        shards: SHARDS,
        fresh: false,
        pace: Some(Duration::from_secs_f64(1.0 / interactive::BASE_RATE)),
    });
    let climbed = climb(cfg, ladder.as_ref(), spans.as_deref_mut(), report)?;
    let mut scrape = Conn::connect(launched.addr).map_err(|e| e.to_string())?;
    let start = usage_now(&launched)?;
    let mut at_base_end = None;
    let pred: Arc<Prediction> = Arc::new(interactive::predict(&lanes, &sids, &sched));
    let lines: Vec<String> = (0..sched.len())
        .map(|k| {
            let (input, value) = &lanes[sched.lane[k]].events[sched.index[k]];
            wire::event(sids[sched.lane[k]], input, value)
        })
        .collect();
    let sched = Arc::new(sched);
    let out = interactive::run(
        conn,
        &mut scrape,
        sched.clone(),
        &lines,
        pred.clone(),
        &mut || at_base_end = usage(&launched),
        report,
        spans,
    )?;
    let end = usage_now(&launched)?;
    interactive::check_open_loop(&out, report);
    eprintln!("perfbench: open loop {}", interactive::phase_summary(&out));
    scrape
        .set_read_timeout(Some(closed::REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let offered: Vec<(u64, u64)> = sids
        .iter()
        .copied()
        .zip(pred.offered.iter().copied())
        .collect();
    let finals = gate::check_ledger(&mut scrape, &offered, gate::Ledger::default(), report)?;
    for (lane, sid) in sids.iter().enumerate() {
        let (mut want, applied) = pred.finals[lane].clone();
        if cfg.plant && lane == 0 {
            want = plant(want);
        }
        let got = finals.get(sid).cloned();
        report.check(got == Some((applied, want.clone())), || {
            format!("session {sid}: replay ({applied}, {want:?}), server {got:?}")
        });
    }
    let applied: u64 = pred.finals.iter().map(|f| f.1).sum();
    report.attempted += out.requests;
    if let (Some(ladder), Some(climbed)) = (&ladder, &climbed) {
        let gen = (
            late_p99(&out.late_ms.concat()),
            out.outstanding.iter().flatten().copied().max().unwrap_or(0) as f64,
        );
        let src = lanes[0].source.clone();
        return traced_tail(
            cfg,
            &mut scrape,
            ladder,
            climbed,
            &out.call_ms,
            &[(Some("dashboard"), &src)],
            200,
            sched.len() as u64,
            out.bytes,
            gen,
            report,
        )
        .map(Some);
    }
    let [base, double] = &out.update_ms;
    ms_pct(report, "update_p50_ms", base, 0.5, SPARSE_SLICES)?;
    ms_pct(report, "update_p99_ms", base, 0.99, SPARSE_SLICES)?;
    ms_pct(report, "update_p99_ms.2x", double, 0.99, SPARSE_SLICES)?;
    scrape_metric(report, &out.scrape_ms, "under load")?;
    // Applied events are seen as the update lines they push; the replay
    // says how many applied events each update line stands for.
    let per_update = applied as f64 / pred.updates.len().max(1) as f64;
    report.metric(
        "applied_per_s",
        stats::phase_rate(&out.update_at, RATE_SLICES).ok_or("no updates arrived")? * per_update,
        "1/s",
        format!(
            "update arrival rate, mean over phases of the median of {RATE_SLICES} slices, \
             x {per_update:.3} applied per update; {applied} applied of {} offered",
            sched.len()
        ),
    );
    usage_metrics(
        report,
        start,
        at_base_end,
        end,
        sched.phase_len,
        "offered events (scrapes included)",
        (end.rss_mb, "when the load stops"),
    )?;
    Ok(None)
}

fn churn_metrics(report: &mut Report, churn: &closed::ChurnOut, k: usize) -> Result<(), String> {
    // Opens with one cycle in flight.
    ms_pct(report, "open_p50_ms", &churn.open_ms[0], 0.5, k)?;
    ms_pct(report, "open_p99_ms", &churn.open_ms[0], 0.99, k)?;
    report.metric(
        "churn_per_s",
        stats::phase_rate(&churn.done_at, RATE_SLICES).ok_or("no cycles completed")?,
        "1/s",
        format!(
            "mean over phases of the median of {RATE_SLICES} slices; {} cycles",
            churn.records.len()
        ),
    );
    Ok(())
}

/// The p99 of the generator's lateness samples, in ms.
fn late_p99(late_ms: &[f64]) -> f64 {
    stats::percentile(late_ms, 0.99).map_or(0.0, |p| p.value)
}

/// The host's `(steal, total)` CPU ticks so far, from `/proc/stat`.
pub(crate) fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn run_saturate(
    cfg: &Config,
    measured: f64,
    report: &mut Report,
    mut spans: Option<&mut Spans>,
) -> Result<Option<String>, String> {
    let lanes = inputs::synth_lanes(
        cfg.seed,
        SATURATE_SESSIONS,
        SATURATE_INTERIOR,
        SATURATE_NODES,
        SATURATE_STREAM,
    );
    let (launched, mut conn, sids) = setups(cfg, &lanes, report)?;
    let plan = SaturatePlan::new(lanes, sids.clone());
    let ladder = cfg.trace.then(|| {
        let per_lane = SATURATE_STREAM / closed::BATCH;
        let calls: Vec<_> = (0..480)
            .map(|c| {
                let lane = c % plan.lanes.len();
                let start = (c / plan.lanes.len()) % per_lane * closed::BATCH;
                (start..start + closed::BATCH).map(|i| (lane, i)).collect()
            })
            .collect();
        Ladder {
            lanes: &plan.lanes,
            calls,
            observe: false,
            batched: true,
            shards: SHARDS,
            fresh: false,
            pace: None,
        }
    });
    let climbed = climb(cfg, ladder.as_ref(), spans.as_deref_mut(), report)?;
    let start = usage_now(&launched)?;
    let mut at_base_end = None;
    let mut rss_at_ops = None;
    let rss_ops = (SATURATE_RSS_OPS_PER_S * cfg.seconds) as usize;
    let t0 = Instant::now();
    let t_phase = Duration::from_secs_f64(measured * 0.5);
    let bytes0 = conn.bytes_in + conn.bytes_out;
    let out = closed::saturate(
        &mut conn,
        &plan,
        SATURATE_WINDOW,
        [t0 + t_phase, t0 + 2 * t_phase],
        &mut || at_base_end = usage(&launched),
        (rss_ops, &mut || rss_at_ops = launched.peak_rss_mb()),
        spans,
    )?;
    let bytes = conn.bytes_in + conn.bytes_out - bytes0;
    let end = usage_now(&launched)?;
    report.attempted += out.requests;
    let offered: Vec<(u64, u64)> = sids
        .iter()
        .copied()
        .zip(out.offered.iter().copied())
        .collect();
    gate::check_ledger(&mut conn, &offered, gate::Ledger::default(), report)?;
    closed::verify_saturate(&plan, &out, cfg.plant, report);
    let applied: u64 = out.offered.iter().sum();
    if let (Some(ladder), Some(climbed)) = (&ladder, &climbed) {
        let compile: Vec<(Option<&str>, &str)> = plan
            .lanes
            .iter()
            .map(|l| (None, l.source.as_str()))
            .collect();
        return traced_tail(
            cfg,
            &mut conn,
            ladder,
            climbed,
            &out.update_ms[0],
            &compile,
            25,
            applied,
            bytes,
            (late_p99(&out.late_ms), SATURATE_WINDOW as f64),
            report,
        )
        .map(Some);
    }
    let [base, double] = &out.update_ms;
    ms_pct(report, "update_p50_ms", base, 0.5, SLICES)?;
    ms_pct(report, "update_p99_ms", base, 0.99, SLICES)?;
    ms_pct(report, "update_p99_ms.2x", double, 0.99, SLICES)?;
    scrape_after_load(report, &mut conn)?;
    report.metric(
        "applied_per_s",
        stats::phase_rate(&out.done_at, RATE_SLICES).ok_or("no operations completed")?
            * closed::BATCH as f64,
        "1/s",
        format!(
            "mean over phases of the median of {RATE_SLICES} slices; {applied} applied in {:.2} s",
            out.elapsed.as_secs_f64()
        ),
    );
    usage_metrics(
        report,
        start,
        at_base_end,
        end,
        out.done_at.each_ref().map(|d| d.len() * closed::BATCH),
        "applied events",
        (
            rss_at_ops.ok_or("too few operations completed to read rss_mb")?,
            &format!("after {} applied events", rss_ops * closed::BATCH),
        ),
    )?;
    report.metric(
        "rss_mb.end",
        end.rss_mb,
        "MB",
        "server peak RSS (VmHWM) when the load stops",
    );
    Ok(None)
}

/// `scrape_ms` for the closed loops, from [`AFTER_LOAD_SCRAPES`] scrapes
/// once the load has stopped.
fn scrape_after_load(report: &mut Report, conn: &mut Conn) -> Result<(), String> {
    let samples = closed::scrapes(conn, AFTER_LOAD_SCRAPES)?;
    report.attempted += samples.len() as u64;
    scrape_metric(report, &samples, "after the load")
}

fn run_churn(
    cfg: &Config,
    measured: f64,
    report: &mut Report,
    mut spans: Option<&mut Spans>,
) -> Result<Option<String>, String> {
    let mut plan = ChurnPlan::new(cfg.seed, (MAX_CHURN_PER_S * measured) as usize);
    let (launched, mut conn, _) = setups(cfg, &[], report)?;
    // Like the workload's cycles, each ladder call is the first batch on
    // a session of its own.
    let ladder_lanes: Vec<Lane> = if cfg.trace {
        (0..LADDER_CHURN_SESSIONS.min(plan.sources.len()))
            .map(|i| {
                let mut lane = Lane {
                    builtin: None,
                    source: plan.sources[i].clone(),
                    ir: Some(plan.irs[i].clone()),
                    events: Vec::new(),
                };
                let g = lane.graph();
                lane.events = inputs::events_for(&g, cfg.seed ^ i as u64, closed::CHURN_BATCH);
                lane
            })
            .collect()
    } else {
        Vec::new()
    };
    let ladder = cfg.trace.then(|| Ladder {
        lanes: &ladder_lanes,
        calls: (0..ladder_lanes.len())
            .map(|lane| (0..closed::CHURN_BATCH).map(|i| (lane, i)).collect())
            .collect(),
        observe: false,
        batched: true,
        shards: SHARDS,
        fresh: true,
        pace: None,
    });
    let climbed = climb(cfg, ladder.as_ref(), spans.as_deref_mut(), report)?;

    let start = usage_now(&launched)?;
    let mut at_base_end = None;
    let t0 = Instant::now();
    let half = Duration::from_secs_f64(measured * 0.5);
    let bytes0 = conn.bytes_in + conn.bytes_out;
    let out = closed::churn(
        &mut conn,
        &mut plan,
        CHURN_WINDOW,
        [t0 + half, t0 + 2 * half],
        &mut || at_base_end = usage(&launched),
        spans,
    )?;
    let bytes = conn.bytes_in + conn.bytes_out - bytes0;
    let end = usage_now(&launched)?;
    report.attempted += out.requests;
    report.check(out.records.len() < plan.cycles.len(), || {
        "the churn plan ran out before the clock did".to_string()
    });
    closed::verify_churn(&plan, &out.records, cfg.plant, report);
    let offered: u64 = out.records.iter().map(|r| r.events.len() as u64).sum();
    let applied: u64 = out.records.iter().map(|r| r.last_seq).sum();
    // No session outlives its cycle: the cycles' own batch and query
    // replies are the per-session ledgers, and the global admission
    // counters must match their sum.
    let closed_ledger = out
        .records
        .iter()
        .fold(gate::Ledger::default(), |acc, r| gate::Ledger {
            offered: acc.offered + r.events.len() as u64,
            applied: acc.applied + r.last_seq,
            ignored: acc.ignored + r.outcome[1],
            shed: 0,
            lost: acc.lost + r.outcome[2],
        });
    gate::check_ledger(&mut conn, &[], closed_ledger, report)?;
    if let (Some(ladder), Some(climbed)) = (&ladder, &climbed) {
        closed::leave_hot_sessions(&mut conn, &mut plan)?;
        let compile: Vec<(Option<&str>, &str)> = plan
            .sources
            .iter()
            .take(100)
            .map(|s| (None, s.as_str()))
            .collect();
        return traced_tail(
            cfg,
            &mut conn,
            ladder,
            climbed,
            &out.update_ms[0],
            &compile,
            2,
            offered,
            bytes,
            (late_p99(&out.late_ms), CHURN_WINDOW as f64),
            report,
        )
        .map(Some);
    }
    let [base, double] = &out.update_ms;
    ms_pct(report, "update_p50_ms", base, 0.5, SLICES)?;
    ms_pct(report, "update_p99_ms", base, 0.99, SLICES)?;
    ms_pct(report, "update_p99_ms.2x", double, 0.99, SLICES)?;
    scrape_after_load(report, &mut conn)?;
    let per_cycle = applied as f64 / out.records.len().max(1) as f64;
    report.metric(
        "applied_per_s",
        stats::phase_rate(&out.done_at, RATE_SLICES).ok_or("no cycles completed")? * per_cycle,
        "1/s",
        format!(
            "cycle rate x {per_cycle:.2} applied per cycle; {applied} applied of {offered} offered"
        ),
    );
    usage_metrics(
        report,
        start,
        at_base_end,
        end,
        out.done_at.each_ref().map(Vec::len),
        "cycles",
        (end.rss_mb, "when the load stops"),
    )?;
    churn_metrics(report, &out, SLICES)?;
    Ok(None)
}
