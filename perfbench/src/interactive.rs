//! The `interactive` workload's open loop: single `event` requests to
//! subscribed `dashboard` sessions on a fixed schedule, first at the base
//! rate and then at twice it, with a metrics scrape on a fixed period on
//! a second connection.
//!
//! One thread sends on schedule (and drives the scrape connection while
//! it waits); a second thread reads replies and pushed `update` lines.
//! Each update is timed from when its event was *due*, not when it was
//! sent, so a stalled sender shows up as latency instead of hiding as a
//! lower offered rate.

use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Write};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use elm_runtime::PlainValue;

use crate::inputs::{Lane, Replay};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats;
use crate::wire::{self, Conn};

/// Subscribed `dashboard` sessions.
pub const SESSIONS: usize = 64;
/// Offered events per second in the base phase (all sessions together).
/// Each scrape of the 64 observed sessions holds one of a two-core
/// host's cores for ~150 ms; at 1000 events/s and 28% host steal the
/// sender ran 15 ms late at p99 in the base phase and 38 ms in the
/// doubled one, with up to 81 updates outstanding.
pub const BASE_RATE: f64 = 400.0;
/// Metrics scrape period.
pub const SCRAPE_PERIOD: Duration = Duration::from_secs(1);
/// The sender falls behind its schedule when its lag grows through a
/// phase: the median lateness of the phase's last fifth exceeds twice
/// that of its first fifth plus this. A sender that wakes late but
/// catches up (the host's two cores are shared with the server and with
/// other tenants) is not behind: every event it delays is timed from
/// when it was due.
pub const LATE_LIMIT_MS: f64 = 1.0;

/// The open-loop schedule: event `k` goes to lane `lane[k]` (its
/// `index[k]`-th event) at `due_ns[k]` after the start.
pub struct Schedule {
    /// Events in each phase.
    pub phase_len: [usize; 2],
    /// Due time of each event, ns after the start.
    pub due_ns: Vec<u64>,
    /// Lane of each event.
    pub lane: Vec<usize>,
    /// Index of each event within its lane.
    pub index: Vec<usize>,
    /// End of phase 1, ns after the start.
    pub phase1_end_ns: u64,
}

impl Schedule {
    /// `rate` events/s for `t1` seconds, then `2 * rate` for `t2`,
    /// round-robin over `lanes` lanes.
    pub fn new(rate: f64, t1: f64, t2: f64, lanes: usize) -> Schedule {
        let n1 = (rate * t1).round() as usize;
        let n2 = (2.0 * rate * t2).round() as usize;
        let mut s = Schedule {
            phase_len: [n1, n2],
            due_ns: Vec::with_capacity(n1 + n2),
            lane: Vec::with_capacity(n1 + n2),
            index: Vec::with_capacity(n1 + n2),
            phase1_end_ns: (t1 * 1e9) as u64,
        };
        for k in 0..n1 + n2 {
            let due = if k < n1 {
                k as f64 / rate
            } else {
                t1 + (k - n1) as f64 / (2.0 * rate)
            };
            s.due_ns.push((due * 1e9) as u64);
            s.lane.push(k % lanes);
            s.index.push(k / lanes);
        }
        s
    }

    /// Total events.
    pub fn len(&self) -> usize {
        self.due_ns.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.due_ns.is_empty()
    }

    /// The phase event `k` belongs to.
    pub fn phase(&self, k: usize) -> usize {
        usize::from(k >= self.phase_len[0])
    }
}

/// What the server must answer, from a synchronous replay of every
/// scheduled event.
pub struct Prediction {
    /// Per event: whether the session applies it (`accepted`) or ignores
    /// it.
    pub applied: Vec<bool>,
    /// `(session, update seq)` → (event, value).
    pub updates: HashMap<(u64, u64), (usize, PlainValue)>,
    /// Due times (ns) of the events behind each expected update, in
    /// order.
    pub update_due_ns: Vec<u64>,
    /// Per lane: final value and applied count.
    pub finals: Vec<(PlainValue, u64)>,
    /// Per lane: events offered.
    pub offered: Vec<u64>,
}

/// Replays the schedule lane by lane.
pub fn predict(lanes: &[Lane], sessions: &[u64], sched: &Schedule) -> Prediction {
    let mut replays: Vec<Replay> = lanes.iter().map(|l| Replay::new(l.graph())).collect();
    let mut p = Prediction {
        applied: Vec::with_capacity(sched.len()),
        updates: HashMap::new(),
        update_due_ns: Vec::new(),
        finals: Vec::new(),
        offered: vec![0; lanes.len()],
    };
    for k in 0..sched.len() {
        let lane = sched.lane[k];
        let (input, value) = &lanes[lane].events[sched.index[k]];
        let step = replays[lane].step(input, value);
        p.offered[lane] += 1;
        p.applied.push(step.applied);
        for (seq, v) in step.updates {
            p.updates.insert((sessions[lane], seq), (k, v));
            p.update_due_ns.push(sched.due_ns[k]);
        }
    }
    p.finals = replays.iter().map(|r| (r.current(), r.applied())).collect();
    p
}

/// What the open loop measured.
#[derive(Default)]
pub struct OpenLoopOut {
    /// Due → `update` line received, ms (applied events), per phase, in
    /// arrival order.
    pub update_ms: [Vec<f64>; 2],
    /// When each `update` line arrived, per phase, in order.
    pub update_at: [Vec<Instant>; 2],
    /// Per base-phase event sent while no scrape was outstanding: sent →
    /// its reply and every update it pushes received, ms. One call's
    /// whole round trip on the wire.
    pub call_ms: Vec<f64>,
    /// Sent − due, ms, per phase.
    pub late_ms: [Vec<f64>; 2],
    /// Outstanding updates (due but not yet received), sampled at each
    /// update, per phase.
    pub outstanding: [Vec<u64>; 2],
    /// `metrics` round trips, ms.
    pub scrape_ms: Vec<f64>,
    /// Bytes sent and received on the event connection.
    pub bytes: u64,
    /// Requests sent (events and scrapes).
    pub requests: u64,
}

struct ReaderOut {
    update_ms: [Vec<f64>; 2],
    update_arrivals: [Vec<Instant>; 2],
    outstanding: [Vec<u64>; 2],
    reply_at: Vec<Option<Instant>>,
    update_at: Vec<Option<Instant>>,
    bytes_in: u64,
    problems: Vec<String>,
}

fn read_loop(
    mut conn: Conn,
    sched: Arc<Schedule>,
    pred: Arc<Prediction>,
    t0: Instant,
    deadline: Instant,
) -> ReaderOut {
    let n = sched.len();
    let mut out = ReaderOut {
        update_ms: [Vec::new(), Vec::new()],
        update_arrivals: [Vec::new(), Vec::new()],
        outstanding: [Vec::new(), Vec::new()],
        reply_at: vec![None; n],
        update_at: vec![None; n],
        bytes_in: 0,
        problems: Vec::new(),
    };
    let expected = pred.updates.len();
    let mut replies = 0usize;
    let mut received = 0usize;
    let mut due_ptr = 0usize;
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    let _ = conn.set_read_timeout(Some(Duration::from_millis(100)));
    while replies < n || received < expected {
        if Instant::now() > deadline {
            out.problems.push(format!(
                "timed out with {} of {n} replies and {} of {expected} updates",
                replies, received
            ));
            break;
        }
        let line = match conn.recv() {
            Ok(l) => l,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => {
                out.problems.push(format!("event connection: {e}"));
                break;
            }
        };
        let now = Instant::now();
        if line.starts_with("{\"update\"") {
            let v = match wire::parse(line) {
                Ok(v) => v,
                Err(e) => {
                    out.problems.push(e);
                    continue;
                }
            };
            let key = (
                wire::u64_at(&v, "session").unwrap_or(u64::MAX),
                wire::u64_at(&v, "seq").unwrap_or(0),
            );
            let Some((k, want)) = pred.updates.get(&key) else {
                out.problems.push(format!("unexpected update {line:.120}"));
                continue;
            };
            if !seen.insert(key) {
                out.problems.push(format!("duplicate update {line:.120}"));
                continue;
            }
            if wire::value_at(&v, "value").as_ref() != Some(want) {
                out.problems
                    .push(format!("update {key:?}: want {want:?}, got {line:.120}"));
                continue;
            }
            received += 1;
            out.update_at[*k] = Some(now);
            let due = t0 + Duration::from_nanos(sched.due_ns[*k]);
            let phase = sched.phase(*k);
            out.update_ms[phase].push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
            out.update_arrivals[phase].push(now);
            let now_ns = now.saturating_duration_since(t0).as_nanos() as u64;
            while due_ptr < pred.update_due_ns.len() && pred.update_due_ns[due_ptr] <= now_ns {
                due_ptr += 1;
            }
            let now_phase = usize::from(now_ns >= sched.phase1_end_ns);
            out.outstanding[now_phase].push(due_ptr.saturating_sub(received) as u64);
        } else {
            if replies >= n {
                out.problems
                    .push(format!("reply with no request: {line:.120}"));
                continue;
            }
            let k = replies;
            replies += 1;
            out.reply_at[k] = Some(now);
            let want = if pred.applied[k] {
                "accepted"
            } else {
                "ignored"
            };
            let ok = wire::parse(line)
                .ok()
                .filter(|v| wire::ok(v).is_ok())
                .and_then(|v| {
                    v.get("outcome")
                        .and_then(|o| o.as_str())
                        .map(str::to_string)
                });
            if ok.as_deref() != Some(want) {
                out.problems
                    .push(format!("event {k}: want {want}, got {line:.120}"));
            }
        }
    }
    out.bytes_in = conn.bytes_in;
    out
}

/// Runs the open loop: `conn` carries the events and the subscriptions
/// (already set up), `scrape` the metrics scrapes; `base_end` is called
/// once, when the first event of the doubled rate is due. Problems (wrong,
/// missing or duplicate updates, error replies, timeouts) are failed
/// operations in `report`.
///
/// # Errors
///
/// Fails on a socket error on the sending side.
#[allow(clippy::too_many_arguments)]
pub fn run(
    conn: Conn,
    scrape: &mut Conn,
    sched: Arc<Schedule>,
    lines: &[String],
    pred: Arc<Prediction>,
    base_end: &mut dyn FnMut(),
    report: &mut Report,
    spans: Option<&mut Spans>,
) -> Result<OpenLoopOut, String> {
    let mut writer = conn.writer_clone().map_err(|e| e.to_string())?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let run_len = Duration::from_nanos(*sched.due_ns.last().unwrap_or(&0));
    let deadline = t0 + run_len + Duration::from_secs(15);
    let reader = {
        let (sched, pred) = (sched.clone(), pred.clone());
        thread::spawn(move || read_loop(conn, sched, pred, t0, deadline))
    };
    let mut out = OpenLoopOut::default();
    let mut sent_at: Vec<Instant> = Vec::with_capacity(sched.len());
    // Per event: no scrape was outstanding when it was sent.
    let mut quiet: Vec<bool> = Vec::with_capacity(sched.len());
    let mut bytes_out = 0u64;
    let mut next_scrape = t0 + SCRAPE_PERIOD;
    let mut scrape_sent: Option<Instant> = None;
    let scrape_step = |scrape: &mut Conn,
                       scrape_sent: &mut Option<Instant>,
                       wait: Duration,
                       out: &mut OpenLoopOut|
     -> Result<(), String> {
        let Some(sent) = *scrape_sent else {
            thread::sleep(wait);
            return Ok(());
        };
        scrape
            .set_read_timeout(Some(wait.max(Duration::from_micros(50))))
            .map_err(|e| e.to_string())?;
        match scrape.skim_line() {
            Ok(None) => Ok(()),
            Ok(Some(head)) => {
                if !head.starts_with("{\"ok\":true,\"metrics\":") {
                    return Err(format!("scrape failed: {head}"));
                }
                out.scrape_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                *scrape_sent = None;
                Ok(())
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(()),
            Err(e) => Err(format!("scrape connection: {e}")),
        }
    };
    for (k, line) in lines.iter().enumerate() {
        let due = t0 + Duration::from_nanos(sched.due_ns[k]);
        loop {
            let now = Instant::now();
            if scrape_sent.is_none() && now >= next_scrape {
                scrape.send(wire::METRICS).map_err(|e| e.to_string())?;
                out.requests += 1;
                scrape_sent = Some(now);
                next_scrape += SCRAPE_PERIOD;
            }
            if now >= due {
                break;
            }
            scrape_step(scrape, &mut scrape_sent, due - now, &mut out)?;
        }
        if k == sched.phase_len[0] {
            base_end();
        }
        // Stamped before the write: on loopback the write itself carries
        // the request into the server's socket.
        let sent = Instant::now();
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send event: {e}"))?;
        bytes_out += line.len() as u64;
        out.requests += 1;
        out.late_ms[sched.phase(k)].push((sent - due).as_secs_f64() * 1e3);
        sent_at.push(sent);
        quiet.push(scrape_sent.is_none());
    }
    while scrape_sent.is_some() {
        if Instant::now() > deadline {
            return Err("scrape reply timed out".to_string());
        }
        scrape_step(
            scrape,
            &mut scrape_sent,
            Duration::from_millis(50),
            &mut out,
        )?;
    }
    let r = reader
        .join()
        .map_err(|_| "reader thread panicked".to_string())?;
    for p in r.problems {
        report.fail(p);
    }
    // Every event is one attempted operation, and so is every update it
    // must produce; each missing reply or update is a failure.
    report.attempted += (sched.len() + pred.updates.len()) as u64;
    let missing_replies = r.reply_at.iter().filter(|t| t.is_none()).count();
    let received: usize = r.update_ms.iter().map(Vec::len).sum();
    let missing_updates = pred.updates.len() - received;
    if missing_replies + missing_updates > 0 {
        report.failed += (missing_replies + missing_updates) as u64;
        report.problems.push(format!(
            "{missing_replies} event replies and {missing_updates} updates never arrived"
        ));
    }
    if let Some(s) = spans {
        for (k, sent) in sent_at.iter().enumerate() {
            let due = t0 + Duration::from_nanos(sched.due_ns[k]);
            if let Some(reply) = r.reply_at[k] {
                s.record("wire.event", *sent, reply, None, k as u64);
            }
            if let Some(update) = r.update_at[k] {
                s.record("wire.update", due, update, None, k as u64);
            }
        }
    }
    for (k, sent) in sent_at.iter().enumerate().take(sched.phase_len[0]) {
        let Some(reply) = r.reply_at[k].filter(|_| quiet[k]) else {
            continue;
        };
        let end = r.update_at[k].map_or(reply, |u| u.max(reply));
        out.call_ms.push((end - *sent).as_secs_f64() * 1e3);
    }
    out.update_ms = r.update_ms;
    out.update_at = r.update_arrivals;
    out.outstanding = r.outstanding;
    out.bytes = bytes_out + r.bytes_in;
    Ok(out)
}

/// The open loop's validity gate: per phase, the sender kept its
/// schedule and the backlog of outstanding updates did not grow through
/// the phase.
pub fn check_open_loop(out: &OpenLoopOut, report: &mut Report) {
    for phase in 0..2 {
        let late = &out.late_ms[phase];
        report.check(!behind_schedule(late), || {
            let p99 = stats::percentile(late, 0.99).map_or(0.0, |p| p.value);
            format!("phase {phase}: sender fell behind its schedule (late p99 {p99:.3} ms)")
        });
        report.check(!backlog_grows(&out.outstanding[phase]), || {
            format!("phase {phase}: the outstanding-update backlog grew through the phase")
        });
    }
}

/// Per phase, the sender's lateness p99 (with its rank and count) and
/// the most updates outstanding, as one line.
pub fn phase_summary(out: &OpenLoopOut) -> String {
    (0..2)
        .map(|p| {
            let late = stats::percentile(&out.late_ms[p], 0.99).map_or_else(
                || "too few samples".to_string(),
                |q| format!("{:.3} ms ({})", q.value, q.describe()),
            );
            let most = out.outstanding[p].iter().copied().max().unwrap_or(0);
            let (head, tail) = fifths(&out.late_ms[p]).unwrap_or_default();
            format!(
                "phase {}: late {late}, median {head:.3} ms in the first fifth and \
                 {tail:.3} ms in the last; outstanding max {most}",
                p + 1
            )
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// The medians of the first and the last fifth of `samples`.
fn fifths(samples: &[f64]) -> Option<(f64, f64)> {
    let fifth = samples.len() / 5;
    if fifth == 0 {
        return None;
    }
    Some((
        stats::median(&samples[..fifth])?,
        stats::median(&samples[samples.len() - fifth..])?,
    ))
}

/// True when the sender's lateness grows through `late` (one phase, in
/// send order): the median of the last fifth is more than twice the
/// median of the first fifth plus [`LATE_LIMIT_MS`].
pub fn behind_schedule(late: &[f64]) -> bool {
    fifths(late).is_some_and(|(head, tail)| tail > 2.0 * head + LATE_LIMIT_MS)
}

/// True when the backlog at the end of a phase (median of its last
/// fifth) is more than twice the backlog at its start (median of its
/// first fifth) plus 32 updates. Medians keep a scrape stall, which
/// briefly spikes the backlog, from reading as growth.
pub fn backlog_grows(samples: &[u64]) -> bool {
    if samples.len() < 20 {
        return false;
    }
    let all: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
    fifths(&all).is_some_and(|(head, tail)| tail > 2.0 * head + 32.0)
}
