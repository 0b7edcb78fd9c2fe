//! Self-tests for the benchmark's own machinery: the percentile rule,
//! layer self times and their reconciliation, span output, the ledger,
//! the open-loop validity checks, and the correctness gate catching a
//! planted wrong answer end to end against an in-process server.

use std::path::PathBuf;
use std::sync::Mutex;

use perfbench::gate::Ledger;
use perfbench::interactive::{backlog_grows, behind_schedule};
use perfbench::ladder::{reconcile, self_times, RECONCILE_BOUND};
use perfbench::spans::Spans;
use perfbench::stats::{
    count_slices, median_slice_percentile, percentile, phase_rate, slice_rates,
};
use perfbench::wire::Launcher;
use perfbench::{run, Config, Workload, END_TO_END};

#[test]
fn percentile_keeps_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = percentile(&samples, 0.99).unwrap();
    assert_eq!(p99.value, 990.0);
    assert_eq!(samples.iter().filter(|&&x| x > p99.value).count(), 10);
    assert_eq!(p99.describe(), "p99.0 of 1000");

    // Too few samples for a p99: the highest percentile with ten beyond.
    let samples: Vec<f64> = (1..=500).map(f64::from).collect();
    let p = percentile(&samples, 0.99).unwrap();
    assert_eq!(p.value, 490.0);
    assert_eq!(p.describe(), "p98.0 of 500");

    let p50 = percentile(&samples, 0.5).unwrap();
    assert_eq!(p50.value, 250.0);
    assert!(percentile(&[1.0; 10], 0.5).is_none());
    assert!(percentile(&[1.0; 11], 0.99).is_some());
}

#[test]
fn layer_self_times_are_rung_minus_rung_below() {
    // Median call per rung, native up to wire, in us.
    let rungs = [0.3, 1.0, 2.5, 6.0, 40.0, 110.0];
    let own = self_times(&rungs);
    let want = [0.3, 0.7, 1.5, 3.5, 34.0, 70.0];
    for (got, want) in own.iter().zip(want) {
        assert!((got - want).abs() < 1e-9, "{own:?}");
    }
    // A layer that adds nothing may come out negative; it is not floored.
    assert!(self_times(&[5.0, 4.5])[1] < 0.0);
}

#[test]
fn reconciliation_fails_when_a_layer_is_missing() {
    let rungs = [0.3, 1.0, 2.5, 6.0, 40.0, 110.0];
    // The workload's own median wire call, measured apart from the ladder.
    let workload = 104.0;
    let whole = reconcile(&self_times(&rungs), workload);
    assert!(whole.abs() <= RECONCILE_BOUND, "{whole}");
    // Without the wire layer the self times stop at the in-process
    // server and fall far short of what the workload saw on the wire.
    let no_wire = reconcile(&self_times(&rungs[..5]), workload);
    assert!(no_wire.abs() > RECONCILE_BOUND, "{no_wire}");
    // A layer counted twice overshoots just as clearly.
    let mut doubled = self_times(&rungs);
    doubled.push(70.0);
    assert!(reconcile(&doubled, workload) > RECONCILE_BOUND);
}

#[test]
fn spans_are_written_with_parent_and_request() {
    let mut spans = Spans::new();
    let t0 = std::time::Instant::now();
    let t1 = t0 + std::time::Duration::from_micros(40);
    let t2 = t0 + std::time::Duration::from_micros(100);
    let child = spans.record("wire.batch", t0, t1, None, 7);
    let parent = spans.record("wire.op", t0, t2, None, 7);
    spans.set_parent(child, parent);
    assert_eq!(spans.all()[child].duration_ns(), 40_000);
    let dir = PathBuf::from("out");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("selftest-spans.ndjson");
    spans.write_ndjson(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("\"name\":\"wire.batch\""), "{}", lines[0]);
    assert!(
        lines[0].contains("\"parent\":1,\"request\":7"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"parent\":null"), "{}", lines[1]);
}

#[test]
fn ledger_balances_only_when_every_event_is_accounted_for() {
    let ok = Ledger {
        offered: 100,
        applied: 30,
        ignored: 60,
        shed: 6,
        lost: 4,
    };
    assert!(ok.balanced());
    assert!(!Ledger { applied: 31, ..ok }.balanced());
    assert!(!Ledger { lost: 3, ..ok }.balanced());
}

#[test]
fn open_loop_checks_catch_lag_and_growth() {
    let steady = vec![0.1; 1000];
    assert!(!behind_schedule(&steady));
    // A sender whose lag keeps growing has fallen behind.
    let lagging: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.01).collect();
    assert!(behind_schedule(&lagging));
    // Waking late but catching up, however often, is not falling behind.
    let jittery: Vec<f64> = (0..1000)
        .map(|i| if i % 2 == 0 { 3.0 } else { 0.1 })
        .collect();
    assert!(!behind_schedule(&jittery));
    let mut stall = steady.clone();
    stall[500..520].fill(8.0);
    assert!(!behind_schedule(&stall));

    let flat: Vec<u64> = (0..1000).map(|i| i % 7).collect();
    assert!(!backlog_grows(&flat));
    let growing: Vec<u64> = (0..1000).collect();
    assert!(backlog_grows(&growing));
}

#[test]
fn slice_rates_count_per_slice() {
    let t0 = std::time::Instant::now();
    let stamps: Vec<_> = (0..=100)
        .map(|i| t0 + std::time::Duration::from_millis(i * 10))
        .collect();
    let rates = slice_rates(&stamps, 4);
    assert_eq!(rates.len(), 4);
    assert!(rates.iter().all(|r| (*r - 100.0).abs() < 5.0), "{rates:?}");
    // A stall that halves one slice's rate does not move the median.
    let mut stalled = stamps[..50].to_vec();
    stalled.extend(stamps[50..75].iter().step_by(2));
    stalled.extend(&stamps[75..]);
    let rate = phase_rate(&[stalled], 4).unwrap();
    assert!((rate - 100.0).abs() < 5.0, "{rate}");
    // One that halves the whole second half does.
    let mut slow = stamps[..50].to_vec();
    slow.extend(stamps[50..].iter().step_by(2));
    let rate = phase_rate(&[slow], 4).unwrap();
    assert!(rate < 90.0, "{rate}");
}

#[test]
fn median_slice_percentile_ignores_one_burst_but_not_a_recurring_stall() {
    let mut samples = vec![1.0; 3000];
    samples[..1000].fill(50.0);
    let slices = count_slices(&samples, 3);
    assert_eq!(slices.len(), 3);
    let p = median_slice_percentile(&slices, 0.99).unwrap();
    assert_eq!(p.value, 1.0);
    assert_eq!(p.describe(), "p99.0 of 3000");
    // A stall in every slice is the system's behaviour, and shows.
    let recurring: Vec<f64> = (0..3000)
        .map(|i| if i % 50 == 0 { 50.0 } else { 1.0 })
        .collect();
    let p = median_slice_percentile(&count_slices(&recurring, 3), 0.99).unwrap();
    assert_eq!(p.value, 50.0);
    // Every slice needs enough samples for its percentile.
    assert!(median_slice_percentile(&count_slices(&samples[..30], 3), 0.99).is_none());
    // A fixed number of slices, whatever the count; the remainder joins
    // the last.
    assert_eq!(
        count_slices(&samples[..2501], 3)
            .iter()
            .map(Vec::len)
            .collect::<Vec<_>>(),
        vec![833, 833, 835]
    );
}

/// The end-to-end self-tests share the host's two cores with their
/// in-process servers; running them one at a time keeps the open loop on
/// schedule.
static SERIAL: Mutex<()> = Mutex::new(());

fn small(workload: Workload, plant: bool) -> Config {
    Config {
        workload,
        seed: 3,
        // Two metrics scrapes at their one-second period, at 1 s and 2 s:
        // inside the 1.5 s phases, clear of the first and last fifths
        // the open-loop checks compare (in a full run every fifth holds
        // a few scrapes alike).
        seconds: 3.0,
        trace: false,
        launcher: Launcher::InProcess { shards: 2 },
        out_dir: PathBuf::from("out"),
        plant,
    }
}

/// The `end_to_end` metric names `BENCHMARK.json` lists.
fn listed_end_to_end() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let json: serde_json::Value = serde_json::from_str(&text).unwrap();
    json.get("end_to_end")
        .and_then(|m| m.as_seq())
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_gate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(listed_end_to_end(), END_TO_END);
    for w in [
        Workload::Interactive,
        Workload::BatchSaturate,
        Workload::SessionChurn,
    ] {
        let report = run(&small(w, false)).unwrap();
        assert!(report.correct(), "{w:?}: {:?}", report.problems);
        // The JSON line carries exactly the bounded metrics.
        let json: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(json, END_TO_END, "{w:?}");
        let churn: &[&str] = if w == Workload::SessionChurn {
            &["open_p50_ms", "churn_per_s"]
        } else {
            &[]
        };
        for &name in [
            "setup_s",
            "update_p50_ms",
            "applied_per_s",
            "cpu_us_per_op",
            "rss_mb",
        ]
        .iter()
        .chain(churn)
        {
            assert!(report.get(name).is_some_and(|v| v > 0.0), "{w:?} {name}");
        }
    }
}

#[test]
fn a_planted_wrong_answer_fails_the_gate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in [
        Workload::Interactive,
        Workload::BatchSaturate,
        Workload::SessionChurn,
    ] {
        let report = run(&small(w, true)).unwrap();
        assert!(
            !report.correct(),
            "{w:?}: the planted answer went unnoticed"
        );
        assert!(report.failed >= 1, "{w:?}");
    }
}
