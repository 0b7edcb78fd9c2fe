//! Closed loops: pipelined `batch`+`query` operations on
//! long-lived sessions (`batch-saturate`), open→batch→query→close cycles
//! (`session-churn`), and the metrics scrapes taken once the load has
//! stopped. Each runs one operation in flight in its base phase, then a
//! fixed window in its loaded phase.
//!
//! One connection carries no subscriptions here, so every line is the
//! reply to the oldest outstanding request (the server answers a
//! connection's requests in order); a FIFO of what was sent matches
//! replies to requests.

use std::collections::{HashMap, VecDeque};
use std::thread;
use std::time::{Duration, Instant};

use elm_runtime::PlainValue;
use serde_json::Value as Json;

use elm_synth::gen::ProgramIr;

use crate::inputs::{synth, Lane, Replay, SplitMix};
use crate::report::Report;
use crate::spans::Spans;
use crate::wire::{self, Conn};

/// How long any one reply may take before the run counts it failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `n` `metrics` round trips, one after another, in ms: the scrape cost
/// of the population a closed-loop run leaves behind.
///
/// # Errors
///
/// Fails on a socket error or a failed scrape.
pub fn scrapes(conn: &mut Conn, n: usize) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let sent = Instant::now();
        let line = conn
            .call(wire::METRICS)
            .map_err(|e| format!("scrape: {e}"))?;
        if !line.starts_with("{\"ok\":true,\"metrics\":") {
            return Err(format!("scrape failed: {line:.120}"));
        }
        samples.push(ms(sent.elapsed()));
    }
    Ok(samples)
}

// ---------------------------------------------------------------------------
// Session churn
// ---------------------------------------------------------------------------

/// Events in each churn cycle's batch.
pub const CHURN_BATCH: usize = 8;
/// Share of churn cycles that reopen a source from the hot set.
pub const REPEAT_SHARE: f64 = 0.25;
/// Sources in the hot set repeats are drawn from.
pub const HOT_SOURCES: usize = 16;
/// Interior nodes per churn program, at most.
pub const CHURN_INTERIOR: usize = 12;

/// The churn workload's seeded cycle plan: a pool of distinct synth
/// sources and, per cycle, which source it opens and the batch it sends.
pub struct ChurnPlan {
    /// Distinct sources; the first [`HOT_SOURCES`] are the hot set.
    pub sources: Vec<String>,
    /// The synth IR each source was rendered from.
    pub irs: Vec<ProgramIr>,
    /// Per cycle: source index.
    pub cycles: Vec<usize>,
    /// Pre-rendered `open` lines, per source.
    open_lines: Vec<String>,
    rng: SplitMix,
}

impl ChurnPlan {
    /// Plans `cycles` cycles: each reopens a hot source with probability
    /// [`REPEAT_SHARE`], and otherwise opens the next fresh source.
    pub fn new(seed: u64, cycles: usize) -> ChurnPlan {
        let generator = synth(CHURN_INTERIOR, true);
        let mut rng = SplitMix(seed ^ 0xc4_0e);
        let mut plan = ChurnPlan {
            sources: Vec::new(),
            irs: Vec::new(),
            cycles: Vec::with_capacity(cycles),
            open_lines: Vec::new(),
            rng: SplitMix(seed ^ 0xba7c4),
        };
        let mut next_seed = seed.wrapping_mul(104_729);
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut fresh = |plan: &mut ChurnPlan| loop {
            let ir = generator.program(next_seed);
            next_seed = next_seed.wrapping_add(1);
            let src = ir.render();
            if seen.insert(src.clone()) {
                plan.open_lines.push(wire::open_source(&src));
                plan.irs.push(ir);
                plan.sources.push(src);
                return plan.sources.len() - 1;
            }
        };
        for _ in 0..HOT_SOURCES {
            fresh(&mut plan);
        }
        let mut hot_used = 0usize;
        for _ in 0..cycles {
            let idx = if hot_used < HOT_SOURCES {
                // The hot set opens once each before any repeat.
                hot_used += 1;
                hot_used - 1
            } else if rng.chance(REPEAT_SHARE) {
                (rng.next_u64() % HOT_SOURCES as u64) as usize
            } else {
                fresh(&mut plan)
            };
            plan.cycles.push(idx);
        }
        plan
    }

    fn batch(&mut self, source: usize) -> Vec<(String, PlainValue)> {
        let inputs = self.irs[source].inputs();
        (0..CHURN_BATCH)
            .map(|_| {
                let input = inputs[(self.rng.next_u64() % inputs.len() as u64) as usize];
                let value = (self.rng.next_u64() % 2001) as i64 - 1000;
                (input.to_string(), PlainValue::Int(value))
            })
            .collect()
    }
}

/// What one completed churn cycle saw, for the replay check.
#[derive(Clone, Debug)]
pub struct CycleRecord {
    /// Source index in the plan.
    pub source: usize,
    /// The batch it sent.
    pub events: Vec<(String, PlainValue)>,
    /// The batch reply's tally: accepted, ignored, dropped+coalesced+shed.
    pub outcome: [u64; 3],
    /// The query reply's applied high-water mark.
    pub last_seq: u64,
    /// The query reply's value.
    pub value: PlainValue,
}

/// Results of a churn run.
#[derive(Default)]
pub struct ChurnOut {
    /// `open` → `opened` round trips, ms, per phase.
    pub open_ms: [Vec<f64>; 2],
    /// `batch` sent → its `query` reply, ms, per phase.
    pub update_ms: [Vec<f64>; 2],
    /// The generator's turnaround: a slot freed (its last reply read) →
    /// the next request sent into it, ms.
    pub late_ms: Vec<f64>,
    /// Completed cycles.
    pub records: Vec<CycleRecord>,
    /// When each cycle completed, per phase, in order.
    pub done_at: [Vec<Instant>; 2],
    /// Requests sent.
    pub requests: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Open,
    Batch,
    Query,
    Close,
}

struct Slot {
    cycle: usize,
    session: u64,
    phase: usize,
    started: Instant,
    batch_sent: Instant,
    events: Vec<(String, PlainValue)>,
    outcome: [u64; 3],
    last_seq: u64,
    value: PlainValue,
    /// Span ids of this cycle's step spans (traced runs).
    steps: Vec<usize>,
}

/// Runs churn cycles on `conn`: one in flight until `t1`, then `window`
/// until `t2`, calling `base_end` once as the loaded phase begins.
/// Replies that are errors or malformed fail the run; values are checked
/// afterwards by [`verify_churn`].
///
/// # Errors
///
/// Fails on a socket error, an error reply, or a timeout.
pub fn churn(
    conn: &mut Conn,
    plan: &mut ChurnPlan,
    window: usize,
    [t1, t2]: [Instant; 2],
    base_end: &mut dyn FnMut(),
    mut spans: Option<&mut Spans>,
) -> Result<ChurnOut, String> {
    conn.set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut out = ChurnOut::default();
    let mut slots: HashMap<usize, Slot> = HashMap::new();
    let mut fifo: VecDeque<(usize, Step, Instant)> = VecDeque::new();
    let mut next_cycle = 0usize;
    let mut base_ended = false;
    let mut freed: VecDeque<Instant> = VecDeque::new();
    // (slots wanted in flight, phase index) — 0 slots means stop.
    let want = |now: Instant| -> (usize, usize) {
        if now < t1 {
            (1, 0)
        } else if now < t2 {
            (window, 1)
        } else {
            (0, 1)
        }
    };
    loop {
        let now = Instant::now();
        let (in_flight, phase) = want(now);
        if phase == 1 && !base_ended {
            base_ended = true;
            base_end();
        }
        while slots.len() < in_flight && next_cycle < plan.cycles.len() {
            let cycle = next_cycle;
            next_cycle += 1;
            let source = plan.cycles[cycle];
            let sent = Instant::now();
            if let Some(at) = freed.pop_front() {
                out.late_ms.push(ms(sent - at));
            }
            conn.send(&plan.open_lines[source])
                .map_err(|e| format!("send open: {e}"))?;
            out.requests += 1;
            slots.insert(
                cycle,
                Slot {
                    cycle,
                    session: 0,
                    phase,
                    started: sent,
                    batch_sent: sent,
                    events: Vec::new(),
                    outcome: [0; 3],
                    last_seq: 0,
                    value: PlainValue::Unit,
                    steps: Vec::new(),
                },
            );
            fifo.push_back((cycle, Step::Open, sent));
        }
        let Some((cycle, step, sent)) = fifo.pop_front() else {
            break;
        };
        let line = conn.recv().map_err(|e| format!("churn reply: {e}"))?;
        let recv = Instant::now();
        let reply = wire::parse(line)?;
        wire::ok(&reply).map_err(|e| format!("churn {step:?}: {e}"))?;
        let slot = slots
            .get_mut(&cycle)
            .expect("a reply belongs to a live cycle");
        if let Some(s) = spans.as_deref_mut() {
            let name = match step {
                Step::Open => "wire.open",
                Step::Batch => "wire.batch",
                Step::Query => "wire.query",
                Step::Close => "wire.close",
            };
            slot.steps
                .push(s.record(name, sent, recv, None, cycle as u64));
        }
        match step {
            Step::Open => {
                out.open_ms[slot.phase].push(ms(recv - sent));
                slot.session = wire::u64_at(&reply, "session").ok_or("opened without id")?;
                slot.events = plan.batch(plan.cycles[cycle]);
                slot.batch_sent = Instant::now();
                conn.send(&wire::batch(slot.session, &slot.events))
                    .and_then(|()| conn.send(&wire::session_cmd("query", slot.session)))
                    .map_err(|e| format!("send batch: {e}"))?;
                out.requests += 2;
                fifo.push_back((cycle, Step::Batch, slot.batch_sent));
                fifo.push_back((cycle, Step::Query, slot.batch_sent));
            }
            Step::Batch => {
                slot.outcome = outcome_tally(&reply)?;
            }
            Step::Query => {
                out.update_ms[slot.phase].push(ms(recv - slot.batch_sent));
                slot.last_seq = wire::u64_at(&reply, "last_seq").ok_or("query without seq")?;
                slot.value = wire::value_at(&reply, "value").ok_or("query without value")?;
                let close_sent = Instant::now();
                conn.send(&wire::session_cmd("close", slot.session))
                    .map_err(|e| format!("send close: {e}"))?;
                out.requests += 1;
                fifo.push_back((cycle, Step::Close, close_sent));
            }
            Step::Close => {
                let slot = slots.remove(&cycle).expect("closing a live cycle");
                freed.push_back(recv);
                if let Some(s) = spans.as_deref_mut() {
                    // The cycle contains each of its steps.
                    let id = s.record("wire.cycle", slot.started, recv, None, cycle as u64);
                    for &step in &slot.steps {
                        s.set_parent(step, id);
                    }
                }
                out.done_at[slot.phase].push(recv);
                out.records.push(CycleRecord {
                    source: plan.cycles[slot.cycle],
                    events: slot.events,
                    outcome: slot.outcome,
                    last_seq: slot.last_seq,
                    value: slot.value,
                });
            }
        }
    }
    Ok(out)
}

/// Opens each hot source as a session that stays open and feeds it one
/// batch and a query. No churn session outlives its cycle, and the
/// server's ingest-latency histograms are per live session, so a traced
/// `session-churn` run leaves these for its final scrape.
///
/// # Errors
///
/// Fails on a socket error or an error reply.
pub fn leave_hot_sessions(conn: &mut Conn, plan: &mut ChurnPlan) -> Result<(), String> {
    for source in 0..HOT_SOURCES {
        let line = conn
            .call(&plan.open_lines[source])
            .map_err(|e| format!("open: {e}"))?;
        let reply = wire::parse(line)?;
        wire::ok(&reply)?;
        let session = wire::u64_at(&reply, "session").ok_or("opened without id")?;
        let events = plan.batch(source);
        for request in [
            wire::batch(session, &events),
            wire::session_cmd("query", session),
        ] {
            let line = conn.call(&request).map_err(|e| e.to_string())?;
            wire::ok(&wire::parse(line)?)?;
        }
    }
    Ok(())
}

fn outcome_tally(reply: &Json) -> Result<[u64; 3], String> {
    let o = reply.get("outcome").ok_or("batch reply without outcome")?;
    let f = |k: &str| wire::u64_at(o, k).unwrap_or(0);
    Ok([
        f("accepted"),
        f("ignored"),
        f("dropped") + f("coalesced") + f("shed"),
    ])
}

/// Checks every completed cycle against a governed synchronous replay of
/// its batch on a fresh instance of its program: the ledger (applied +
/// ignored + lost == offered), the applied count, and the final value.
pub fn verify_churn(plan: &ChurnPlan, records: &[CycleRecord], plant: bool, report: &mut Report) {
    let mut graphs: HashMap<usize, elm_runtime::SignalGraph> = HashMap::new();
    for (i, rec) in records.iter().enumerate() {
        let graph = graphs
            .entry(rec.source)
            .or_insert_with(|| {
                Lane {
                    builtin: None,
                    source: plan.sources[rec.source].clone(),
                    ir: None,
                    events: Vec::new(),
                }
                .graph()
            })
            .clone();
        let mut replay = Replay::new(graph);
        for (input, value) in &rec.events {
            replay.step(input, value);
        }
        let [accepted, ignored, lost] = rec.outcome;
        let offered = rec.events.len() as u64;
        report.check(rec.last_seq + ignored + lost == offered && accepted == rec.last_seq, || {
            format!(
                "cycle {i}: ledger applied {} + ignored {ignored} + lost {lost} != offered {offered}",
                rec.last_seq
            )
        });
        let mut expected = replay.current();
        if plant && i == records.len() - 1 {
            expected = crate::plant(expected);
        }
        report.check(
            replay.applied() == rec.last_seq && expected == rec.value,
            || {
                format!(
                    "cycle {i}: replay applied {} value {expected:?}, server {} {:?}",
                    replay.applied(),
                    rec.last_seq,
                    rec.value
                )
            },
        );
    }
}

// ---------------------------------------------------------------------------
// Batch saturation
// ---------------------------------------------------------------------------

/// Events per `batch` request.
pub const BATCH: usize = 64;

/// Per-session pre-rendered batches, cycled.
pub struct SaturatePlan {
    /// The programs and their event streams (cycled in `BATCH` slices).
    pub lanes: Vec<Lane>,
    /// Session ids, parallel to `lanes`.
    pub sessions: Vec<u64>,
    lines: Vec<Vec<String>>,
    query_lines: Vec<String>,
}

impl SaturatePlan {
    /// Renders each lane's event stream as `BATCH`-event requests.
    pub fn new(lanes: Vec<Lane>, sessions: Vec<u64>) -> SaturatePlan {
        let lines = lanes
            .iter()
            .zip(&sessions)
            .map(|(lane, &sid)| {
                lane.events
                    .chunks_exact(BATCH)
                    .map(|chunk| wire::batch(sid, chunk))
                    .collect()
            })
            .collect();
        let query_lines = sessions
            .iter()
            .map(|&s| wire::session_cmd("query", s))
            .collect();
        SaturatePlan {
            lanes,
            sessions,
            lines,
            query_lines,
        }
    }

    /// The `k`-th event a lane is sent (the stream repeats).
    pub fn event(&self, lane: usize, k: u64) -> &(String, PlainValue) {
        let events = &self.lanes[lane].events;
        let per_cycle = (events.len() / BATCH) * BATCH;
        &events[(k % per_cycle as u64) as usize]
    }
}

/// Results of a saturation run.
#[derive(Default)]
pub struct SaturateOut {
    /// `batch` sent → its `query` reply, ms, per phase.
    pub update_ms: [Vec<f64>; 2],
    /// The generator's turnaround: a slot freed (its last reply read) →
    /// the next request sent into it, ms.
    pub late_ms: Vec<f64>,
    /// Per lane: `(last_seq, value)` from every query reply, in order.
    pub checkpoints: Vec<Vec<(u64, PlainValue)>>,
    /// Events offered per lane.
    pub offered: Vec<u64>,
    /// When each operation's `query` reply arrived, per phase, in order.
    pub done_at: [Vec<Instant>; 2],
    /// Wall time from first send to last reply.
    pub elapsed: Duration,
    /// Requests sent.
    pub requests: u64,
}

/// Feeds every lane `batch`+`query` pairs in a closed loop: one
/// operation in flight until `t1`, then `window` until `t2`, calling
/// `base_end` once as the loaded phase begins and `at_ops.1` once
/// when `at_ops.0` operations have completed.
///
/// # Errors
///
/// Fails on a socket error, an error reply, a timeout, or a batch that
/// was not wholly accepted.
pub fn saturate(
    conn: &mut Conn,
    plan: &SaturatePlan,
    window: usize,
    [t1, t2]: [Instant; 2],
    base_end: &mut dyn FnMut(),
    at_ops: (usize, &mut dyn FnMut()),
    mut spans: Option<&mut Spans>,
) -> Result<SaturateOut, String> {
    conn.set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let n = plan.lanes.len();
    let mut out = SaturateOut {
        checkpoints: vec![Vec::new(); n],
        offered: vec![0; n],
        ..SaturateOut::default()
    };
    // Per lane: batches started.
    let mut started = vec![0u64; n];
    // (lane, is_query, op id, batch sent at, phase)
    let mut fifo: VecDeque<(usize, bool, u64, Instant, usize)> = VecDeque::new();
    let mut in_flight = 0usize;
    let mut base_ended = false;
    let mut freed: VecDeque<Instant> = VecDeque::new();
    let mut next_lane = 0usize;
    let mut op = 0u64;
    let mut batch_spans: HashMap<u64, usize> = HashMap::new();
    let begin = Instant::now();
    loop {
        let now = Instant::now();
        let (want, phase) = if now < t1 {
            (1, 0)
        } else if now < t2 {
            (window, 1)
        } else {
            (0, 1)
        };
        if phase == 1 && !base_ended {
            base_ended = true;
            base_end();
        }
        while in_flight < want {
            let lane = next_lane;
            next_lane = (next_lane + 1) % n;
            let lines = &plan.lines[lane];
            let k = started[lane];
            started[lane] += 1;
            let sent = Instant::now();
            if let Some(at) = freed.pop_front() {
                out.late_ms.push(ms(sent - at));
            }
            conn.send(&lines[(k % lines.len() as u64) as usize])
                .and_then(|()| conn.send(&plan.query_lines[lane]))
                .map_err(|e| format!("send batch: {e}"))?;
            out.requests += 2;
            out.offered[lane] += BATCH as u64;
            fifo.push_back((lane, false, op, sent, phase));
            fifo.push_back((lane, true, op, sent, phase));
            op += 1;
            in_flight += 1;
        }
        let Some((lane, is_query, id, sent, phase)) = fifo.pop_front() else {
            break;
        };
        let line = conn.recv().map_err(|e| format!("saturate reply: {e}"))?;
        let recv = Instant::now();
        let reply = wire::parse(line)?;
        wire::ok(&reply)?;
        if !is_query {
            let [accepted, ignored, lost] = outcome_tally(&reply)?;
            if accepted != BATCH as u64 || ignored + lost != 0 {
                return Err(format!(
                    "lane {lane}: batch accepted {accepted}, ignored {ignored}, lost {lost}"
                ));
            }
            if let Some(s) = spans.as_deref_mut() {
                batch_spans.insert(id, s.record("wire.batch", sent, recv, None, id));
            }
            continue;
        }
        in_flight -= 1;
        if out.done_at.iter().map(Vec::len).sum::<usize>() + 1 == at_ops.0 {
            (at_ops.1)();
        }
        freed.push_back(recv);
        out.update_ms[phase].push(ms(recv - sent));
        if let Some(s) = spans.as_deref_mut() {
            // The operation (batch sent → query reply) contains its batch.
            let op_span = s.record("wire.op", sent, recv, None, id);
            if let Some(batch) = batch_spans.remove(&id) {
                s.set_parent(batch, op_span);
            }
        }
        let last_seq = wire::u64_at(&reply, "last_seq").ok_or("query without seq")?;
        let value = wire::value_at(&reply, "value").ok_or("query without value")?;
        out.checkpoints[lane].push((last_seq, value));
        out.done_at[phase].push(recv);
    }
    out.elapsed = begin.elapsed();
    Ok(out)
}

/// Replays every lane's applied events on the governed synchronous
/// engine and checks each query checkpoint: the applied count must be
/// the events acknowledged so far, and the value the replay's value at
/// that point.
pub fn verify_saturate(plan: &SaturatePlan, out: &SaturateOut, plant: bool, report: &mut Report) {
    // Lanes are independent: replay them on two threads.
    let check_lane = |lane: usize| -> Vec<Option<String>> {
        let checkpoints = &out.checkpoints[lane];
        let mut replay = Replay::new(plan.lanes[lane].graph());
        let mut k = 0u64;
        let mut verdicts = Vec::with_capacity(checkpoints.len());
        for (j, (last_seq, value)) in checkpoints.iter().enumerate() {
            let want_seq = (j as u64 + 1) * BATCH as u64;
            while k < want_seq {
                let (input, v) = plan.event(lane, k);
                replay.step(input, v);
                k += 1;
            }
            let mut expected = replay.current();
            if plant && lane == 0 && j + 1 == checkpoints.len() {
                expected = crate::plant(expected);
            }
            verdicts.push((*last_seq != want_seq || *value != expected).then(|| {
                format!(
                    "lane {lane} op {j}: server seq {last_seq} value {value:?}, replay seq {want_seq} value {expected:?}"
                )
            }));
        }
        verdicts
    };
    let lanes = out.checkpoints.len();
    let (even, odd) = thread::scope(|s| {
        let odd = s.spawn(|| (1..lanes).step_by(2).map(check_lane).collect::<Vec<_>>());
        let even = (0..lanes).step_by(2).map(check_lane).collect::<Vec<_>>();
        (even, odd.join().expect("replay thread panicked"))
    });
    for verdict in even.into_iter().chain(odd).flatten() {
        report.check(verdict.is_none(), || verdict.clone().unwrap_or_default());
    }
}
