//! A FElm read-eval-print loop over the full pipeline.
//!
//! Reads one expression per line from stdin, then prints its inferred type
//! and — for pure expressions — its value via both interpreters; for
//! signal expressions it prints the signal-graph summary instead.
//!
//! Try: `echo '1 + 2 * 3
//! lift (\x -> x * 2) Mouse.x
//! foldp (\k c -> c + 1) 0 Mouse.clicks' | cargo run --example felm_repl`

use std::io::BufRead;

use elm_runtime::Value;
use felm::env::InputEnv;
use felm::eval::{normalize, DEFAULT_FUEL};
use felm::eval_big::{eval, Env};
use felm::infer::infer_type;
use felm::intermediate::FinalTerm;
use felm::parser::parse_expr;
use felm::pretty::pretty;
use felm::translate::translate;

fn main() {
    let env = InputEnv::standard();
    println!("FElm REPL — one expression per line (Ctrl-D to exit)");
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        println!("> {line}");
        let expr = match parse_expr(line) {
            Ok(e) => e,
            Err(e) => {
                println!("  parse error: {e}");
                continue;
            }
        };
        let ty = match infer_type(&env, &expr) {
            Ok(t) => t,
            Err(e) => {
                println!("  type error: {e}");
                continue;
            }
        };
        let normal = match normalize(&expr, DEFAULT_FUEL) {
            Ok(n) => n,
            Err(e) => {
                println!("  evaluation error: {e}");
                continue;
            }
        };
        match FinalTerm::from_expr(&normal) {
            Ok(FinalTerm::Value(v)) => {
                // Cross-check the two interpreters on the fly.
                let big = match eval(&Env::empty(), &expr) {
                    // Big-step closures are opaque runtime values.
                    Ok(Value::Ext(_)) => "<closure>".to_string(),
                    Ok(v) => format!("{v:?}"),
                    Err(e) => format!("<{e}>"),
                };
                println!("  : {ty}");
                println!("  = {}   (big-step: {big})", pretty(&v));
            }
            Ok(FinalTerm::Signal(term)) => {
                println!("  : {ty}");
                match translate(&term, &env) {
                    Ok(graph) => println!(
                        "  = signal graph with {} node(s) ({} source(s), {} async)",
                        graph.len(),
                        graph.sources().len(),
                        graph.async_sources().len()
                    ),
                    Err(e) => println!("  translation error: {e}"),
                }
            }
            Err(e) => println!("  internal error: {e}"),
        }
    }
}
