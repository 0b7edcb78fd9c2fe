//! Golden test for the Prometheus exposition: `render_prometheus` on a
//! fixed, hand-built input must reproduce `golden/exposition.prom` byte
//! for byte.
//!
//! The input covers what a renderer rewrite is most likely to get wrong:
//! two sessions, node labels and kinds holding `"`, `\`, a newline and a
//! label-lookalike `le="0.5"`, one empty and one populated histogram at
//! each bucket scale (`1e-9` per-node timings, `1e-6` ingest latency),
//! non-zero traps, fractional gauges, and the cross-session latency
//! summary.

use elm_runtime::{Histogram, HistogramSnapshot, NodeTimingSnapshot, StatsSnapshot};
use elm_server::metrics::{render_prometheus, OverloadMetrics};
use elm_server::protocol::{
    AdmissionStats, IngressStats, LatencySummary, RecoveryStats, SessionStats, TrapStats,
};
use elm_server::{NetCounters, ShardCounters};

const GOLDEN: &str = include_str!("golden/exposition.prom");

fn histogram(observations: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in observations {
        h.observe(v);
    }
    h.snapshot()
}

fn node(node: u32, label: &str, kind: &str, compute: HistogramSnapshot) -> NodeTimingSnapshot {
    NodeTimingSnapshot {
        node,
        label: label.to_string(),
        kind: kind.to_string(),
        computes: compute.count,
        compute,
        // An unobserved histogram: no bucket vector at all.
        queue: HistogramSnapshot::default(),
    }
}

fn sessions() -> Vec<SessionStats> {
    let first = SessionStats {
        session: 7,
        program: "dashboard".to_string(),
        runtime: StatsSnapshot {
            events: 40,
            computations: 31,
            memo_skips: 9,
            messages: 120,
            node_panics: 1,
            async_events: 2,
            traps: 3,
        },
        ingress: IngressStats {
            enqueued: 40,
            dropped: 1,
            coalesced: 2,
            ignored: 17,
            pumps: 12,
            events_out: 25,
            queue_len: 3,
            subscribers: 1,
        },
        latency: LatencySummary::default(),
        ingest_hist: histogram(&[3, 700, 900, 40_000, 60_000, 2_000_000]),
        recovery: RecoveryStats {
            restarts: 1,
            replayed_events: 5,
            max_replay: 5,
            snapshot_count: 2,
            journal_len: 4,
            journal_appends: 40,
            journal_truncations: 2,
            journal_failures: 1,
        },
        poisoned: true,
        nodes: vec![
            node(
                0,
                "merge le=\"0.5\" of a\\b\nc",
                "input \"quoted\"\\\n",
                histogram(&[1, 2, 1_000, 123_456_789, u64::MAX / 4]),
            ),
            node(1, "lift2 (+)", "compute", HistogramSnapshot::default()),
        ],
        spans_dropped: 4,
        traps: TrapStats {
            out_of_fuel: 2,
            out_of_memory: 1,
            depth_exceeded: 0,
            deadline_exceeded: 5,
        },
    };
    let second = SessionStats {
        session: 12,
        program: "counter".to_string(),
        runtime: StatsSnapshot {
            events: 3,
            computations: 3,
            ..StatsSnapshot::default()
        },
        ingress: IngressStats {
            enqueued: 3,
            events_out: 3,
            pumps: 3,
            ..IngressStats::default()
        },
        latency: LatencySummary::default(),
        ingest_hist: HistogramSnapshot::default(),
        recovery: RecoveryStats::default(),
        poisoned: false,
        nodes: vec![node(
            0,
            "Mouse.clicks",
            "le=\"0.5\"",
            histogram(&[512, 513]),
        )],
        spans_dropped: 0,
        traps: TrapStats {
            depth_exceeded: 1,
            ..TrapStats::default()
        },
    };
    vec![first, second]
}

fn render() -> String {
    render_prometheus(
        &ShardCounters {
            opened: 9,
            closed: 4,
            evicted_idle: 2,
            recovery_failed: 1,
        },
        &sessions(),
        &[3, 0],
        &OverloadMetrics {
            admissions: &[
                AdmissionStats {
                    offered: 100,
                    admitted: 93,
                    shed: 7,
                },
                AdmissionStats::default(),
            ],
            backlogs: &[2, 11],
            memory_cells: 65_536,
            net: NetCounters {
                frames_rejected: 3,
                slow_disconnects: 1,
            },
        },
        &LatencySummary {
            count: 43,
            p50_us: 850,
            p90_us: 41_000,
            p99_us: 1_900_000,
            max_us: 2_000_000,
        },
        2_105_603,
    )
}

#[test]
fn exposition_matches_the_golden_file() {
    let text = render();
    if text != GOLDEN {
        let first_diff = text
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| text.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "exposition differs from golden/exposition.prom at line {}:\n  got:  {:?}\n  want: {:?}\n(lengths {} vs {})",
            first_diff + 1,
            text.lines().nth(first_diff),
            GOLDEN.lines().nth(first_diff),
            text.len(),
            GOLDEN.len(),
        );
    }
}
