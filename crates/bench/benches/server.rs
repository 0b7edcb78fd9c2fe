//! Serving-layer scenario: throughput of the multi-session signal server
//! as the session count grows, and the cost of crash recovery.
//!
//! Each iteration opens `sessions` instances of a builtin program on an
//! in-process [`Server`], drives every session with its own
//! deterministic simulator trace from a driver thread (batched ingress),
//! and waits for all queues to drain. The interesting comparisons are
//! events/sec at 1 session (pure per-event cost) versus 8 sessions
//! (shard-parallel hosting) — the serving layer should scale with
//! available cores rather than serialize sessions — and the chaos
//! variant, which prices write-ahead journaling, periodic snapshots, and
//! supervised restart under injected crashes against the fault-free
//! baseline.
//!
//! `metrics-render/64` prices one `metrics` scrape: 64 observed
//! `dashboard` sessions, fed a fixed simulator trace and left idle, are
//! rendered as Prometheus text (`Server::metrics_text`) and wrapped in the
//! NDJSON reply line (`protocol::metrics_line`) on every iteration.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use elm_environment::{FaultPlan, Simulator};
use elm_runtime::PlainValue;
use elm_server::{protocol, ProgramSpec, RestartPolicy, Server, ServerConfig, SessionConfig};

const EVENTS_PER_SESSION: usize = 2_000;
const BATCH: usize = 64;
/// Events fed to each observed session before the scrape is timed.
const SCRAPE_EVENTS_PER_SESSION: usize = 500;

fn drive(server: &Arc<Server>, program: &str, traces: &[elm_runtime::Trace]) {
    let mut sessions = Vec::with_capacity(traces.len());
    for _ in 0..traces.len() {
        sessions.push(
            server
                .open(ProgramSpec::Builtin(program), None, None, false)
                .unwrap()
                .session,
        );
    }
    let mut drivers = Vec::with_capacity(sessions.len());
    for (i, &session) in sessions.iter().enumerate() {
        let server = Arc::clone(server);
        let trace = traces[i].clone();
        drivers.push(thread::spawn(move || {
            let events: Vec<(String, PlainValue)> = trace
                .events
                .into_iter()
                .map(|e| (e.input, e.value))
                .collect();
            for chunk in events.chunks(BATCH) {
                server.batch(session, chunk).unwrap();
            }
            while server.query(session).unwrap().queue_len > 0 {
                thread::yield_now();
            }
        }));
    }
    for d in drivers {
        d.join().unwrap();
    }
    for session in sessions {
        server.close(session).unwrap();
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("server");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));

    for sessions in [1usize, 8] {
        let traces = Simulator::fan_out(42, sessions, EVENTS_PER_SESSION);
        let server = Arc::new(Server::start(ServerConfig::default()));
        group.throughput(Throughput::Elements((sessions * EVENTS_PER_SESSION) as u64));
        group.bench_with_input(
            BenchmarkId::new("hosted-dashboard", sessions),
            &sessions,
            |b, _| b.iter(|| drive(&server, "dashboard", &traces)),
        );
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    // Crash-recovery pricing: the same hosted load, but with seeded
    // runtime crashes forcing snapshot restores + journal replays.
    {
        let sessions = 8usize;
        let faults = FaultPlan {
            seed: 42,
            crash: 0.001,
            ..FaultPlan::disabled()
        };
        let traces = Simulator::fan_out_with_faults(42, sessions, EVENTS_PER_SESSION, &faults);
        let server = Arc::new(Server::start(ServerConfig {
            session: SessionConfig {
                snapshot_interval: 256,
                journal_segment: 256,
                restart: RestartPolicy {
                    max_restarts: 100_000,
                    ..RestartPolicy::default()
                },
                faults,
                ..SessionConfig::default()
            },
            ..ServerConfig::default()
        }));
        group.throughput(Throughput::Elements((sessions * EVENTS_PER_SESSION) as u64));
        group.bench_with_input(
            BenchmarkId::new("hosted-chaos", sessions),
            &sessions,
            |b, _| b.iter(|| drive(&server, "chaos", &traces)),
        );
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    // Scrape cost: per-node timing histograms for 64 observed sessions
    // dominate the exposition (~35k series on the wire benchmark's
    // `interactive` workload).
    {
        let sessions = 64usize;
        let server = Server::start(ServerConfig::default());
        let traces = Simulator::fan_out(42, sessions, SCRAPE_EVENTS_PER_SESSION);
        for trace in &traces {
            let session = server
                .open(ProgramSpec::Builtin("dashboard"), None, None, true)
                .unwrap()
                .session;
            let events: Vec<(String, PlainValue)> = trace
                .events
                .iter()
                .map(|e| (e.input.clone(), e.value.clone()))
                .collect();
            for chunk in events.chunks(BATCH) {
                server.batch(session, chunk).unwrap();
            }
            while server.query(session).unwrap().queue_len > 0 {
                thread::yield_now();
            }
        }
        group.throughput(Throughput::Bytes(
            protocol::metrics_line(&server.metrics_text()).len() as u64,
        ));
        group.bench_with_input(
            BenchmarkId::new("metrics-render", sessions),
            &sessions,
            |b, _| b.iter(|| protocol::metrics_line(&server.metrics_text())),
        );
        server.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
