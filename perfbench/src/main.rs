//! `perfbench` — the wire-level serving benchmark's entry point.
//!
//! ```text
//! perfbench --workload interactive|batch-saturate|session-churn
//!           --seed N --seconds S --trace 0|1 --server PATH [--out DIR]
//! ```
//!
//! Prints the metric table, then one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. Exits
//! 0 only when every answer matched its replay and every gate held.

use std::path::PathBuf;
use std::process::exit;

use perfbench::wire::Launcher;
use perfbench::{Config, Workload, SHARDS};

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload interactive|batch-saturate|session-churn \
         --seed N --seconds S --trace 0|1 --server PATH [--out DIR]"
    );
    exit(2)
}

fn main() {
    let mut workload = None;
    let mut seed: u64 = 1;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut server: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value() == "1",
            "--server" => server = Some(PathBuf::from(value())),
            "--out" => out_dir = PathBuf::from(value()),
            _ => usage(),
        }
    }
    let (Some(workload), Some(path)) = (workload, server) else {
        usage()
    };
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        launcher: Launcher::Binary {
            path,
            shards: SHARDS,
        },
        out_dir,
        plant: false,
    };
    eprintln!(
        "perfbench: workload {} seed {seed} seconds {seconds} trace {} server flags: {}",
        workload.name(),
        u8::from(trace),
        cfg.launcher.flags()
    );
    let code = match perfbench::run(&cfg) {
        Ok(report) => {
            for p in &report.problems {
                eprintln!("perfbench: FAILED {p}");
            }
            println!(
                "perfbench {} seed {seed}: attempted {}, failed {}",
                workload.name(),
                report.attempted,
                report.failed
            );
            print!("{}", report.table());
            println!("{}", report.json());
            if report.correct() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    exit(code)
}
