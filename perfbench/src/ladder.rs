//! The traced run's per-layer ladder.
//!
//! The same generated calls run on six rungs, each adding one layer to
//! the rung below:
//!
//! 1. `native`   — a natively built graph of the program's shape on
//!    `SyncRuntime`;
//! 2. `compiled` — the FElm-compiled graph on `SyncRuntime` (adds FElm
//!    function-body evaluation);
//! 3. `governed` — the compiled graph in a governed `Running` (adds the
//!    signals layer and the per-event governor, plus the tracer when the
//!    workload observes its sessions);
//! 4. `session`  — a standalone `Session`: `enqueue` + `pump` (adds the
//!    ingress queue, journal, snapshots, blackbox and publish);
//! 5. `server`   — the in-process `Server` (adds the shard command
//!    channel, admission and subscriber fan-out);
//! 6. `wire`     — a spawned `elm-server` over NDJSON/TCP (adds the
//!    front end, protocol decode/encode and the socket).
//!
//! A call ends when its effect is visible, as it does for a client: on
//! the top two rungs a single event waits for the `update` lines it
//! pushes, and a batch is followed by a `query` (which applies pending
//! events before it answers), as in the workloads.
//!
//! Each rung runs its calls in alternating blocks: untraced (one clock
//! read around the block) and traced (a span around every call). Rungs
//! run one after another, so their spans do not nest; the spans of one
//! call on every rung share its request id. A layer's self time is its
//! rung's median traced call minus the rung below's, so the self times
//! of a call sum to the wire rung's median call.
//!
//! That sum must reconcile with a figure the ladder does not produce:
//! the workload's own median call on the wire, one call in flight, from
//! the same run (its base phase, on its own server and sessions, right
//! after the climb). A missing or misattributed layer leaves the ladder
//! short of what the workload saw. Tracing overhead is the traced wire
//! rung over its untraced blocks, reported on its own.

use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use elm_runtime::{EventLimits, Occurrence, SignalGraph, SyncRuntime, Tracer, Value};
use elm_server::{
    protocol, BatchOutcome, EnqueueOutcome, ProgramSpec, Request, Server, ServerConfig, Session,
    SessionConfig, Update,
};
use elm_signals::{Engine, Program, Running};

use crate::inputs::{Lane, Replay};
use crate::native;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats;
use crate::wire::{self, Conn, Launched, Launcher};

/// Rungs from the bottom (`native`) to the top (`wire`).
pub const LEVELS: usize = RUNGS.len();

/// Rung names, bottom to top.
const RUNGS: [&str; 6] = [
    "native", "compiled", "governed", "session", "server", "wire",
];
const SPAN_NAMES: [&str; 6] = [
    "ladder.native",
    "ladder.compiled",
    "ladder.governed",
    "ladder.session",
    "ladder.server",
    "ladder.wire",
];

/// The ladder's self times must sum to the workload's own median wire
/// call within this share of it (the benchmark's regression bound).
pub const RECONCILE_BOUND: f64 = 0.25;
/// Host steal, as a share of CPU time from the climb to the check, above
/// which the reconciliation is reported but not enforced: the ladder's
/// single thread and the workload's generator then lose different
/// shares of their time to other guests, so a gap says nothing about
/// the layers.
pub const RECONCILE_STEAL_LIMIT: f64 = 0.05;

/// One call: events `(lane, index)` sent together (one `event`, or one
/// `batch`).
pub type Call = Vec<(usize, usize)>;

/// What the ladder runs.
pub struct Ladder<'a> {
    /// The workload's programs and event streams.
    pub lanes: &'a [Lane],
    /// The calls, in order.
    pub calls: Vec<Call>,
    /// Sessions opened with `"observe":true` (and subscribed).
    pub observe: bool,
    /// Calls are `batch` requests rather than single `event`s.
    pub batched: bool,
    /// Server shard count.
    pub shards: usize,
    /// Give each call a fresh instance of its lane (a new session on the
    /// server rungs), opened right before the call and untimed, as a
    /// churn cycle's batch lands on the session it has just opened.
    pub fresh: bool,
    /// Start call `k` at `k` times this after the pass begins, as an open
    /// loop does (`None`: back to back). Between paced calls the threads
    /// involved go idle, and waking them is part of what a call costs.
    pub pace: Option<Duration>,
}

impl Ladder<'_> {
    fn events(&self) -> usize {
        self.calls.iter().map(Vec::len).sum()
    }

    fn event(&self, (lane, i): (usize, usize)) -> &(String, elm_runtime::PlainValue) {
        &self.lanes[lane].events[i]
    }
}

// One rung exists at a time, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Rung {
    Sync(Vec<(SignalGraph, SyncRuntime)>),
    Governed(Vec<(SignalGraph, Running<Value>)>),
    Session(Vec<Session>),
    Server(Server, Vec<u64>, Vec<Receiver<Update>>),
    Wire {
        conn: Conn,
        sids: Vec<u64>,
        // Held so the server child lives as long as the rung.
        _server: Launched,
    },
}

fn governed(graph: &SignalGraph, traced: bool) -> Running<Value> {
    let tracer = traced.then(|| {
        let t = Tracer::for_graph(graph);
        t.set_enabled(true);
        t
    });
    let mut running =
        Program::from_dynamic_graph(graph.clone()).start_observed(Engine::Synchronous, tracer);
    running.set_governor(Some(EventLimits::default()), None);
    running
}

fn session(i: usize, graph: SignalGraph, observe: bool) -> Session {
    let config = SessionConfig {
        observe,
        ..SessionConfig::default()
    };
    Session::new(i as u64, "ladder".to_string(), graph, config)
}

fn build(level: usize, l: &Ladder<'_>, launcher: &Launcher) -> Result<Rung, String> {
    let graphs: Vec<SignalGraph> = l.lanes.iter().map(Lane::graph).collect();
    Ok(match level {
        0 => Rung::Sync(
            l.lanes
                .iter()
                .map(|lane| {
                    let g = native::for_lane(lane);
                    let rt = SyncRuntime::new(&g);
                    (g, rt)
                })
                .collect(),
        ),
        1 => Rung::Sync(
            graphs
                .into_iter()
                .map(|g| {
                    let rt = SyncRuntime::new(&g);
                    (g, rt)
                })
                .collect(),
        ),
        2 => Rung::Governed(
            graphs
                .into_iter()
                .map(|g| {
                    let r = governed(&g, l.observe);
                    (g, r)
                })
                .collect(),
        ),
        3 => Rung::Session(
            graphs
                .into_iter()
                .enumerate()
                .map(|(i, g)| session(i, g, l.observe))
                .collect(),
        ),
        4 => {
            let server = Server::start(ServerConfig {
                shards: l.shards,
                ..ServerConfig::default()
            });
            let mut sids = Vec::new();
            let mut rxs = Vec::new();
            for lane in l.lanes {
                let sid = server.open(lane.spec(), None, None, l.observe)?.session;
                if l.observe {
                    rxs.push(server.subscribe(sid)?);
                }
                sids.push(sid);
            }
            Rung::Server(server, sids, rxs)
        }
        _ => {
            let (launched, conn, sids) = crate::setup(launcher, l.lanes, l.observe)?;
            Rung::Wire {
                conn,
                sids,
                _server: launched,
            }
        }
    })
}

impl Rung {
    /// Makes one call and waits until its effect is visible: the
    /// `updates` it must push (single events), or the `query` reply that
    /// follows it (batches).
    fn call(
        &mut self,
        l: &Ladder<'_>,
        call: &Call,
        line: Option<&str>,
        updates: usize,
    ) -> Result<(), String> {
        match self {
            Rung::Sync(rts) => {
                for &e in call {
                    let (input, value) = l.event(e);
                    let (g, rt) = &mut rts[e.0];
                    if let Some(id) = g.input_named(input) {
                        rt.feed(Occurrence::input(id, value.to_value()))
                            .map_err(|e| e.to_string())?;
                        rt.run_to_quiescence();
                    }
                }
            }
            Rung::Governed(runs) => {
                for &e in call {
                    let (input, value) = l.event(e);
                    let (g, r) = &mut runs[e.0];
                    if g.input_named(input).is_some() {
                        r.send_named(input, value.to_value())
                            .and_then(|()| r.drain_raw().map(drop))
                            .map_err(|e| e.to_string())?;
                    }
                }
            }
            Rung::Session(sessions) => {
                for &e in call {
                    let (input, value) = l.event(e);
                    sessions[e.0].enqueue(input, value.to_value());
                }
                sessions[call[0].0].pump();
            }
            Rung::Server(server, sids, rxs) => {
                let lane = call[0].0;
                let sid = sids[lane];
                if l.batched {
                    let events: Vec<_> = call.iter().map(|&e| l.event(e).clone()).collect();
                    server.batch(sid, &events)?;
                    server.query(sid)?;
                } else {
                    let (input, value) = l.event(call[0]);
                    server.event(sid, input, value.clone())?;
                    for _ in 0..updates {
                        rxs[lane]
                            .recv_timeout(crate::closed::REPLY_TIMEOUT)
                            .map_err(|e| format!("ladder update: {e:?}"))?;
                    }
                }
            }
            Rung::Wire { conn, .. } => {
                conn.send(line.expect("wire calls are pre-rendered"))
                    .map_err(|e| e.to_string())?;
                // Batched calls carry a trailing `query`: two replies.
                let mut replies = if l.batched { 2 } else { 1 };
                let mut pushes = updates;
                while replies + pushes > 0 {
                    let reply = conn.recv().map_err(|e| format!("ladder wire: {e}"))?;
                    if reply.starts_with("{\"update\"") {
                        pushes = pushes.saturating_sub(1);
                    } else {
                        wire::ok(&wire::parse(reply)?)?;
                        replies -= 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Replaces `lane`'s instance with a fresh one and closes the old,
    /// as a churn cycle opens a session of its own before its batch.
    fn reopen(&mut self, l: &Ladder<'_>, lane: usize) -> Result<(), String> {
        let program = &l.lanes[lane];
        match self {
            Rung::Sync(rts) => {
                let (g, rt) = &mut rts[lane];
                *rt = SyncRuntime::new(g);
            }
            Rung::Governed(runs) => {
                let (g, r) = &mut runs[lane];
                std::mem::replace(r, governed(g, l.observe)).stop();
            }
            Rung::Session(sessions) => {
                let fresh = session(lane, program.graph(), l.observe);
                std::mem::replace(&mut sessions[lane], fresh).stop();
            }
            Rung::Server(server, sids, _) => {
                server.close(sids[lane])?;
                sids[lane] = server.open(program.spec(), None, None, l.observe)?.session;
            }
            Rung::Wire { conn, sids, .. } => {
                let closed = conn.call(&wire::session_cmd("close", sids[lane]));
                wire::ok(&wire::parse(closed.map_err(|e| e.to_string())?)?)?;
                let opened = conn.call(&program.open_line(l.observe));
                let reply = wire::parse(opened.map_err(|e| e.to_string())?)?;
                wire::ok(&reply)?;
                sids[lane] = wire::u64_at(&reply, "session").ok_or("opened without id")?;
            }
        }
        Ok(())
    }

    /// The wire request for `call` on the wire rung (`None` elsewhere).
    fn line(&self, l: &Ladder<'_>, call: &Call) -> Option<String> {
        match self {
            Rung::Wire { sids, .. } => Some(call_line(l, call, sids)),
            _ => None,
        }
    }

    fn finish(self) {
        match self {
            Rung::Server(server, _, rxs) => {
                drop(rxs);
                server.shutdown();
            }
            Rung::Session(sessions) => sessions.into_iter().for_each(Session::stop),
            Rung::Governed(runs) => runs.into_iter().for_each(|(_, r)| r.stop()),
            _ => {}
        }
    }
}

fn call_line(l: &Ladder<'_>, call: &Call, sids: &[u64]) -> String {
    let sid = sids[call[0].0];
    if l.batched {
        let events: Vec<_> = call.iter().map(|&e| l.event(e).clone()).collect();
        wire::batch(sid, &events) + &wire::session_cmd("query", sid)
    } else {
        let (input, value) = l.event(call[0]);
        wire::event(sid, input, value)
    }
}

/// Per call, the `update` lines a subscribed session pushes for it
/// (zero when sessions are not subscribed), from a synchronous replay.
fn expected_updates(l: &Ladder<'_>) -> Vec<usize> {
    if !l.observe {
        return vec![0; l.calls.len()];
    }
    let mut replays: Vec<Replay> = l
        .lanes
        .iter()
        .map(|lane| Replay::new(lane.graph()))
        .collect();
    l.calls
        .iter()
        .map(|call| {
            call.iter()
                .map(|&e| {
                    let (input, value) = l.event(e);
                    replays[e.0].step(input, value).updates.len()
                })
                .sum()
        })
        .collect()
}

/// Calls per block. Block 0 warms the rung up untimed; after it,
/// odd blocks are traced and even blocks untraced, on the same rung
/// instance, so both see the same mix of calls and the same server.
const BLOCK: usize = 32;

/// Whether call `k` is in a traced block (`Some(true)`), an untraced
/// one (`Some(false)`), or the warm-up (`None`).
fn block_traced(k: usize) -> Option<bool> {
    match k / BLOCK {
        0 => None,
        b => Some(b % 2 == 1),
    }
}

/// One pass of one rung over every call: the untraced blocks' time and
/// event count, and each traced call's `(call, start, end)`. Back-to-back
/// untraced blocks are timed whole; paced or fresh ones call by call,
/// since the waits and reopens between their calls are not the rung's
/// work.
#[allow(clippy::type_complexity)]
fn pass(
    level: usize,
    l: &Ladder<'_>,
    updates: &[usize],
    launcher: &Launcher,
) -> Result<(Duration, usize, Vec<(usize, Instant, Instant)>), String> {
    let mut rung = build(level, l, launcher)?;
    let mut marks = Vec::with_capacity(l.calls.len() / 2);
    let mut untraced = Duration::ZERO;
    let mut untraced_events = 0usize;
    let mut block_start = Instant::now();
    let begin = Instant::now();
    for (k, call) in l.calls.iter().enumerate() {
        if l.fresh {
            rung.reopen(l, call[0].0)?;
        }
        let line = rung.line(l, call);
        let line = line.as_deref();
        if let Some(gap) = l.pace {
            let due = begin + gap * k as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        match block_traced(k) {
            Some(true) => {
                let start = Instant::now();
                rung.call(l, call, line, updates[k])?;
                marks.push((k, start, Instant::now()));
            }
            Some(false) if l.pace.is_some() || l.fresh => {
                let start = Instant::now();
                rung.call(l, call, line, updates[k])?;
                untraced += start.elapsed();
                untraced_events += call.len();
            }
            Some(false) => {
                if k % BLOCK == 0 {
                    block_start = Instant::now();
                }
                rung.call(l, call, line, updates[k])?;
                untraced_events += call.len();
                if k % BLOCK == BLOCK - 1 || k + 1 == l.calls.len() {
                    untraced += block_start.elapsed();
                }
            }
            None => rung.call(l, call, line, updates[k])?,
        }
    }
    rung.finish();
    Ok((untraced, untraced_events, marks))
}

fn us_per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e6 / n.max(1) as f64
}

/// Each layer's self time from its rung's median call and the rung
/// below's (the bottom rung's is its whole call). Signed: a layer that
/// adds nothing may come out slightly negative, and flooring it would
/// bias the sum upward.
pub fn self_times(rung_us: &[f64]) -> Vec<f64> {
    rung_us
        .iter()
        .enumerate()
        .map(|(i, &t)| t - if i == 0 { 0.0 } else { rung_us[i - 1] })
        .collect()
}

/// How far the ladder's self times fall from the workload's own median
/// wire call: `(sum of self times - workload) / workload`.
pub fn reconcile(self_us: &[f64], workload_us: f64) -> f64 {
    (self_us.iter().sum::<f64>() - workload_us) / workload_us
}

/// What a climb of the ladder found: the per-layer table and each
/// layer's self time per call.
pub struct Climb {
    /// The per-layer table, one row per rung.
    pub table: String,
    /// Self time per call of each layer, bottom to top, in us.
    pub self_us: Vec<f64>,
    /// The host's `(steal, total)` CPU ticks when the climb began.
    pub host_ticks: Option<(u64, u64)>,
}

/// Runs every rung untraced and traced, bottom rung first, records the
/// spans, and reports the rung figures and tracing overhead. The traced
/// run climbs the ladder right before the workload whose wire calls it
/// is reconciled with ([`check`]), so the wire pass, last, runs nearest
/// in time to them and drift in the host's speed moves the comparison
/// least.
///
/// # Errors
///
/// Fails when a rung cannot be built or a call fails.
pub fn run(
    l: &Ladder<'_>,
    launcher: &Launcher,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<Climb, String> {
    let host_ticks = crate::host_cpu_ticks();
    let events = l.events();
    let updates = expected_updates(l);
    let traced_events: usize = (0..l.calls.len())
        .filter(|&k| block_traced(k) == Some(true))
        .map(|k| l.calls[k].len())
        .sum();
    let mut untraced = [0.0f64; LEVELS];
    let mut traced = [0.0f64; LEVELS];
    let mut median_call = [0.0f64; LEVELS];
    for level in 0..LEVELS {
        let (wall, n, marks) = pass(level, l, &updates, launcher)?;
        untraced[level] = us_per(wall, n);
        let mut total = Duration::ZERO;
        let mut calls = Vec::with_capacity(marks.len());
        for &(k, s, e) in &marks {
            spans.record(SPAN_NAMES[level], s, e, None, k as u64);
            total += e - s;
            calls.push((e - s).as_secs_f64() * 1e6);
        }
        traced[level] = us_per(total, traced_events);
        median_call[level] = stats::median(&calls).unwrap_or(0.0);
    }
    let self_us = self_times(&median_call);
    let self_sum: f64 = self_us.iter().sum();
    let overhead = (traced[LEVELS - 1] - untraced[LEVELS - 1]) / untraced[LEVELS - 1];
    let mut table = String::from(
        "  rung       untraced us/event   traced us/event   median us/call   self us/call   self share\n",
    );
    for level in 0..LEVELS {
        table.push_str(&format!(
            "  {:<10} {:>17.3} {:>17.3} {:>16.3} {:>14.3} {:>11.1}%\n",
            RUNGS[level],
            untraced[level],
            traced[level],
            median_call[level],
            self_us[level],
            100.0 * self_us[level] / self_sum.max(1e-12)
        ));
    }
    table.push_str(&format!("  tracing overhead {:+.1}%\n", overhead * 100.0));
    for level in 0..LEVELS {
        report.metric(
            &format!("ladder.{}_us_per_event", RUNGS[level]),
            untraced[level],
            "us",
            format!(
                "untraced blocks of {events} events in {} calls",
                l.calls.len()
            ),
        );
    }
    report.metric(
        "trace.overhead_frac",
        overhead,
        "ratio",
        "(traced - untraced) / untraced, wire rung",
    );
    let per_call = |us: f64| us * events as f64 / l.calls.len().max(1) as f64;
    report.metric(
        "runtime.sync_us_per_event",
        untraced[1],
        "us",
        "compiled graph on SyncRuntime",
    );
    report.metric(
        "runtime.governed_us_per_event",
        untraced[2],
        "us",
        "governed Running",
    );
    report.metric(
        "felm.eval_us_per_event",
        untraced[1] - untraced[0],
        "us",
        "compiled minus native graph",
    );
    report.metric(
        "session.pump_us_per_event",
        untraced[3],
        "us",
        "standalone Session enqueue + pump",
    );
    report.metric(
        "shard.call_us",
        per_call(untraced[4]),
        "us",
        if l.batched {
            "Server::batch + Server::query"
        } else {
            "Server::event + its updates"
        },
    );
    report.metric(
        "net.wire_self_us",
        per_call(untraced[5] - untraced[4]),
        "us",
        "wire round trip minus in-process Server call",
    );
    Ok(Climb {
        table,
        self_us,
        host_ticks,
    })
}

/// Checks that the climb's self times sum to `workload_us` (the
/// workload's own median wire call, one in flight, in us) within
/// [`RECONCILE_BOUND`], unless the host's steal since the climb began
/// exceeded [`RECONCILE_STEAL_LIMIT`]; reports `ladder.reconcile_frac`,
/// and returns the table with the reconciliation line.
pub fn check(climb: &Climb, workload_us: f64, report: &mut Report) -> String {
    let self_sum: f64 = climb.self_us.iter().sum();
    let gap = reconcile(&climb.self_us, workload_us);
    let steal = match (climb.host_ticks, crate::host_cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => 0.0,
    };
    let enforced = steal <= RECONCILE_STEAL_LIMIT;
    report.metric(
        "ladder.reconcile_frac",
        gap,
        "ratio",
        "(sum of self times - workload's median wire call) / workload's",
    );
    if enforced {
        report.check(gap.abs() <= RECONCILE_BOUND, || {
            format!(
                "ladder self times ({self_sum:.3} us/call) do not reconcile with the \
                 workload's median wire call ({workload_us:.3} us)"
            )
        });
    }
    format!(
        "{}  self times sum to {self_sum:.3} us/call against the workload's own median wire \
         call {workload_us:.3} us ({:+.1}%, bound ±{:.0}%); host steal {:.1}%{}\n",
        climb.table,
        gap * 100.0,
        RECONCILE_BOUND * 100.0,
        steal * 100.0,
        if enforced {
            ""
        } else {
            ", above the limit: reported, not enforced"
        }
    )
}

/// Layer probes that need no ladder pass: the governed runtime with a
/// tracer, its work counters, session snapshots, protocol decode and
/// encode, and the metrics renderer on the workload's population.
///
/// # Errors
///
/// Fails when the in-process server rejects the workload's programs.
pub fn probes(l: &Ladder<'_>, launcher: &Launcher, report: &mut Report) -> Result<(), String> {
    let events = l.events();
    // Governed runtime with a tracer attached, and its counters.
    let mut rung = Rung::Governed(
        l.lanes
            .iter()
            .map(|lane| {
                let g = lane.graph();
                let r = governed(&g, true);
                (g, r)
            })
            .collect(),
    );
    let begin = Instant::now();
    for call in &l.calls {
        rung.call(l, call, None, 0)?;
    }
    report.metric(
        "runtime.traced_us_per_event",
        us_per(begin.elapsed(), events),
        "us",
        "governed Running with a Tracer",
    );
    let Rung::Governed(runs) = rung else {
        unreachable!("built as a governed rung")
    };
    let totals = runs
        .iter()
        .map(|(_, r)| r.stats())
        .fold(elm_runtime::StatsSnapshot::default(), |a, b| a.merged(&b));
    runs.into_iter().for_each(|(_, r)| r.stop());
    report.metric(
        "runtime.computations_per_event",
        totals.computations as f64 / totals.events.max(1) as f64,
        "count",
        format!("{} runtime events", totals.events),
    );
    report.metric(
        "runtime.memo_skip_frac",
        totals.memo_skips as f64 / (totals.computations + totals.memo_skips).max(1) as f64,
        "ratio",
        "memo skips / (computations + memo skips)",
    );

    // Standalone sessions: ignored share and snapshot cost.
    let mut rung = build(3, l, launcher)?;
    for call in &l.calls {
        rung.call(l, call, None, 0)?;
    }
    let Rung::Session(mut sessions) = rung else {
        unreachable!("built as a session rung")
    };
    let ignored: u64 = sessions.iter().map(|s| s.ingress_stats().ignored).sum();
    report.metric(
        "session.ignored_frac",
        ignored as f64 / events.max(1) as f64,
        "ratio",
        format!("{ignored} of {events} events"),
    );
    let mut snap = Vec::new();
    for _ in 0..20 {
        for s in sessions.iter_mut() {
            let t = Instant::now();
            s.snapshot_now();
            snap.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    report.metric(
        "session.snapshot_us",
        stats::median(&snap).unwrap_or(0.0),
        "us",
        format!("median of {}", snap.len()),
    );
    sessions.into_iter().for_each(Session::stop);

    // Protocol: decode the request lines, encode the replies they get.
    let sids: Vec<u64> = (0..l.lanes.len() as u64).collect();
    let lines: Vec<String> = l
        .calls
        .iter()
        .flat_map(|call| {
            let text = call_line(l, call, &sids);
            text.lines().map(str::to_string).collect::<Vec<_>>()
        })
        .collect();
    let reps = (20_000 / lines.len().max(1)).max(1);
    let begin = Instant::now();
    for _ in 0..reps {
        for line in &lines {
            std::hint::black_box(Request::parse(line)?);
        }
    }
    report.metric(
        "protocol.decode_us",
        us_per(begin.elapsed(), reps * lines.len()),
        "us",
        format!("Request::parse per line, {} lines", reps * lines.len()),
    );
    let update = Update::Changed {
        session: 7,
        seq: 1234,
        value: elm_runtime::PlainValue::Int(4_012_345),
    };
    let outcome = BatchOutcome {
        accepted: l.calls[0].len() as u64,
        ..BatchOutcome::default()
    };
    let n = 20_000;
    let begin = Instant::now();
    for _ in 0..n / 2 {
        if l.batched {
            std::hint::black_box(protocol::batch_line(&outcome));
        } else {
            std::hint::black_box(protocol::event_line(EnqueueOutcome::Accepted));
        }
        std::hint::black_box(protocol::update_line(&update));
    }
    report.metric(
        "protocol.encode_us",
        us_per(begin.elapsed(), n),
        "us",
        if l.batched {
            "batch_line + update_line per line"
        } else {
            "event_line + update_line per line"
        },
    );

    // The metrics renderer over the workload's population.
    let mut rung = build(4, l, launcher)?;
    for (call, &n) in l.calls.iter().zip(&expected_updates(l)) {
        rung.call(l, call, None, n)?;
    }
    let Rung::Server(server, sids, _) = &rung else {
        unreachable!("built as a server rung")
    };
    for &sid in sids {
        server.query(sid)?;
    }
    let mut render = Vec::new();
    let mut text = String::new();
    for _ in 0..3 {
        let t = Instant::now();
        text = server.metrics_text();
        render.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let sessions = sids.len();
    rung.finish();
    report.metric(
        "metrics.render_ms",
        stats::median(&render).unwrap_or(0.0),
        "ms",
        format!("Server::metrics_text, median of 3, {sessions} sessions"),
    );
    report.metric("metrics.bytes", text.len() as f64, "B", "one exposition");
    report.metric(
        "metrics.series",
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .count() as f64,
        "count",
        "sample lines in one exposition",
    );
    Ok(())
}

/// Times each FElm compile stage and the registry's whole `resolve` on
/// the workload's sources: parse (with data declarations and
/// desugaring), type inference, normalization, and translation to a
/// signal graph. Each figure is the mean over `reps` passes of every
/// source.
///
/// # Errors
///
/// Fails when a source does not compile.
pub fn compile_probes(
    sources: &[(Option<&str>, &str)],
    reps: usize,
    report: &mut Report,
) -> Result<(), String> {
    use felm::env::{Adts, InputEnv};
    use felm::eval::{normalize, DEFAULT_FUEL};
    use felm::infer::infer_type_with;
    use felm::intermediate::FinalTerm;
    use felm::parser::parse_program;
    use felm::translate::translate;

    let env = InputEnv::standard();
    let registry = elm_server::Registry::standard();
    let mut t = [Duration::ZERO; 5];
    let mut n = 0usize;
    for _ in 0..reps {
        for &(builtin, src) in sources {
            let s0 = Instant::now();
            let program = parse_program(src).map_err(|e| e.to_string())?;
            let adts = Adts::from_defs(&program.datas).map_err(|e| e.to_string())?;
            let expr = program.to_expr().map_err(|e| e.to_string())?;
            let expr = adts.resolve(&expr).map_err(|e| e.to_string())?;
            let s1 = Instant::now();
            infer_type_with(&env, &adts, &expr).map_err(|e| e.to_string())?;
            let s2 = Instant::now();
            let normal = normalize(&expr, DEFAULT_FUEL).map_err(|e| e.to_string())?;
            let s3 = Instant::now();
            if let FinalTerm::Signal(term) =
                FinalTerm::from_expr(&normal).map_err(|e| e.to_string())?
            {
                std::hint::black_box(translate(&term, &env).map_err(|e| e.to_string())?);
            }
            let s4 = Instant::now();
            let spec = match builtin {
                Some(name) => ProgramSpec::Builtin(name),
                None => ProgramSpec::Source(src),
            };
            std::hint::black_box(registry.resolve(spec)?);
            let s5 = Instant::now();
            for (i, (a, b)) in [(s0, s1), (s1, s2), (s2, s3), (s3, s4), (s4, s5)]
                .into_iter()
                .enumerate()
            {
                t[i] += b - a;
            }
            n += 1;
        }
    }
    let note = format!("mean of {n} compiles over {} sources", sources.len());
    for (i, name) in [
        "felm.parse_us",
        "felm.infer_us",
        "felm.normalize_us",
        "felm.translate_us",
        "registry.resolve_us",
    ]
    .into_iter()
    .enumerate()
    {
        report.metric(name, us_per(t[i], n), "us", note.clone());
    }
    Ok(())
}
