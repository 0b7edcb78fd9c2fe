//! Satellite property: fueled evaluation is *transparent* when the budget
//! suffices and *deterministic* when it does not.
//!
//! * With a sufficient budget, metered evaluation returns bit-identical
//!   results to unmetered evaluation — across both the big-step
//!   interpreter and the Fig. 6 small-step machine.
//! * With a fixed insufficient budget, `OutOfFuel` (and the fuel consumed
//!   before it) is a pure function of the term and the budget: two runs
//!   agree exactly. This is what makes trapped events safe to roll back
//!   and replay — governance can never diverge recovered state.
//!
//! Plus end-to-end checks that a runaway `twice`-tower and a
//! string-doubling allocator bomb trap inside a governed signal runtime,
//! with the event rolled back and the session healthy afterwards.

use felm::budget::{Budget, Meter, Trap};
use felm::env::InputEnv;
use felm::eval::{normalize, normalize_metered, EvalError, DEFAULT_FUEL};
use felm::eval_big::{eval, eval_metered, Env};
use felm::parser::parse_expr;
use felm::pipeline::compile_source;
use felm::translate::expr_to_value;

use elm_runtime::{EventLimits, Occurrence, SyncRuntime, TrapKind, Value};
use proptest::prelude::*;

/// Closed, well-typed-by-construction integer expressions: arithmetic,
/// `let`, fully-applied lambdas, pairs, and list primitives — total (no
/// stuck states: division by zero is defined as 0, lists are non-empty).
fn int_expr() -> BoxedStrategy<String> {
    fn gen(rng: &mut rand::rngs::StdRng, depth: usize) -> String {
        use rand::Rng;
        if depth == 0 || rng.gen_bool(0.25) {
            // Non-negative literals only: unary minus is not valid in
            // every expression position. Subtraction makes negatives.
            return format!("{}", rng.gen_range(0i64..10));
        }
        let d = depth - 1;
        match rng.gen_range(0u32..8) {
            0 => {
                let op = ["+", "-", "*", "/"][rng.gen_range(0usize..4)];
                format!("({} {op} {})", gen(rng, d), gen(rng, d))
            }
            1 => format!("(let x = {} in ({} + x))", gen(rng, d), gen(rng, d)),
            2 => format!("((\\x y -> x + y * 2) {} {})", gen(rng, d), gen(rng, d)),
            3 => format!("(fst ({}, {}))", gen(rng, d), gen(rng, d)),
            4 => format!("(snd ({}, {}))", gen(rng, d), gen(rng, d)),
            5 => format!("(head [{}, 0])", gen(rng, d)),
            6 => {
                let a = gen(rng, d);
                format!("(length [{a}, {a}, 1])")
            }
            _ => {
                let c = gen(rng, d);
                format!("(if {c} then {} else 1)", gen(rng, d))
            }
        }
    }
    BoxedStrategy::from_fn(|rng| gen(rng, 4))
}

fn big(src: &str, meter: &mut Meter) -> Result<Value, EvalError> {
    let e = parse_expr(src).expect("generated expression parses");
    eval_metered(&Env::empty(), &e, meter)
}

/// A `twice`-tower: `k` characters of source demanding `2^k` β-steps.
/// Monomorphic (`t : (Int -> Int) -> Int -> Int`), so it passes the
/// checker; only fuel can stop it in reasonable time.
fn runaway_tower(k: usize) -> String {
    let mut f = String::from("(\\n -> n + 1)");
    for _ in 0..k {
        f = format!("(t {f})");
    }
    format!("(let t = \\f y -> f (f y) in {f} 0)")
}

/// A string-doubling chain allocating `8 * 2^k` bytes.
fn allocator_bomb(k: usize) -> String {
    let mut s = String::from("\"88888888\"");
    for _ in 0..k {
        s = format!("(d {s})");
    }
    format!("(let d = \\s -> s ++ s in length [{s}])")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sufficient_budget_is_transparent_in_both_evaluators(src in int_expr()) {
        let e = parse_expr(&src).expect("generated expression parses");

        // Big-step: unmetered vs unlimited meter vs exactly-sufficient
        // budget — all three bit-identical.
        let plain = eval(&Env::empty(), &e).expect("total expression");
        let mut probe = Meter::unlimited();
        let unlimited = eval_metered(&Env::empty(), &e, &mut probe).unwrap();
        prop_assert_eq!(&plain, &unlimited);
        let exact = Budget {
            fuel: probe.fuel_used(),
            max_alloc_cells: probe.alloc_cells(),
            max_depth: u64::MAX,
        };
        let exact_run = big(&src, &mut Meter::new(exact)).expect("exact budget suffices");
        prop_assert_eq!(&plain, &exact_run);

        // Small-step: compare through the data universe (normal forms are
        // ground values here), sidestepping fresh-name counters.
        let spec = normalize(&e, DEFAULT_FUEL).expect("total expression");
        let mut meter = Meter::unlimited();
        let spec_metered = normalize_metered(&e, &mut meter).expect("unlimited budget");
        let v = expr_to_value(&spec);
        prop_assert!(v.is_some(), "normal form is data");
        prop_assert_eq!(v, expr_to_value(&spec_metered));
    }

    #[test]
    fn out_of_fuel_is_deterministic_for_a_fixed_budget(src in int_expr(), fuel in 0u64..64) {
        let budget = Budget::with_fuel(fuel);
        let mut m1 = Meter::new(budget);
        let mut m2 = Meter::new(budget);
        let r1 = big(&src, &mut m1);
        let r2 = big(&src, &mut m2);
        prop_assert_eq!(&r1, &r2);
        prop_assert_eq!(m1.fuel_used(), m2.fuel_used());
        if let Err(err) = r1 {
            prop_assert_eq!(err, EvalError::Trap(Trap::OutOfFuel));
        }

        // Small-step machine, same property.
        let e = parse_expr(&src).unwrap();
        let mut s1 = Meter::new(budget);
        let mut s2 = Meter::new(budget);
        let n1 = normalize_metered(&e, &mut s1);
        let n2 = normalize_metered(&e, &mut s2);
        prop_assert_eq!(n1.is_err(), n2.is_err());
        prop_assert_eq!(s1.fuel_used(), s2.fuel_used());
        if let (Ok(a), Ok(b)) = (&n1, &n2) {
            prop_assert_eq!(expr_to_value(a), expr_to_value(b));
        }
    }
}

#[test]
fn runaway_tower_traps_in_both_evaluators() {
    let src = runaway_tower(40); // 2^40 steps: finishes never, traps fast
    let err = big(&src, &mut Meter::new(Budget::default())).unwrap_err();
    assert_eq!(err, EvalError::Trap(Trap::OutOfFuel));

    // The small-step machine *duplicates* the argument on every β-step of
    // a `twice`, so on this term the space dimension explodes before the
    // step count does; the allocation budget must catch it (an
    // unlimited-allocation meter would eat gigabytes before 50k steps).
    let e = parse_expr(&src).unwrap();
    let budget = Budget {
        fuel: 50_000,
        max_alloc_cells: 100_000,
        max_depth: u64::MAX,
    };
    let err = normalize_metered(&e, &mut Meter::new(budget)).unwrap_err();
    assert!(
        matches!(
            err,
            EvalError::Trap(Trap::OutOfFuel) | EvalError::Trap(Trap::OutOfMemory)
        ),
        "expected a resource trap, got {err:?}"
    );
}

#[test]
fn allocator_bomb_traps_out_of_memory() {
    let src = allocator_bomb(40); // 8 * 2^40 bytes if left unchecked
    let err = big(&src, &mut Meter::new(Budget::default())).unwrap_err();
    assert_eq!(err, EvalError::Trap(Trap::OutOfMemory));
}

#[test]
fn depth_budget_traps_deep_nesting() {
    // 64 nested unapplied redexes exceed a depth budget of 16.
    let mut src = String::from("1");
    for _ in 0..64 {
        src = format!("((\\x -> x) {src})");
    }
    let budget = Budget {
        max_depth: 16,
        ..Budget::UNLIMITED
    };
    let err = big(&src, &mut Meter::new(budget)).unwrap_err();
    assert_eq!(err, EvalError::Trap(Trap::DepthExceeded));
}

/// End to end: a governed synchronous runtime traps a runaway event,
/// rolls it back completely (the fold's accumulator is untouched), keeps
/// the node healthy, and the session keeps serving honest events.
#[test]
fn governed_runtime_traps_runaway_event_and_rolls_back() {
    let src = format!(
        "main = foldp (\\k acc -> if k then {} else acc + 1) 0 Keyboard.lastPressed",
        runaway_tower(40)
    );
    let compiled = compile_source(&src, &InputEnv::standard()).unwrap();
    let graph = compiled.graph().expect("reactive program").clone();
    let keys = graph.input_named("Keyboard.lastPressed").unwrap();

    let mut rt = SyncRuntime::new(&graph);
    rt.set_governor(
        Some(EventLimits {
            fuel: 100_000,
            ..EventLimits::default()
        }),
        None,
    );

    // Honest event: k = 0 takes the cheap branch.
    rt.feed(Occurrence::input(keys, 0i64)).unwrap();
    let outs = rt.run_to_quiescence();
    assert_eq!(outs[0].value(), Some(&Value::Int(1)));

    // Adversarial event: k = 1 dives into the tower and traps.
    rt.feed(Occurrence::input(keys, 1i64)).unwrap();
    let outs = rt.run_to_quiescence();
    assert!(outs[0].value().is_none(), "trapped event reports NoChange");
    assert_eq!(
        rt.take_traps()
            .into_iter()
            .map(|(_, k)| k)
            .collect::<Vec<_>>(),
        vec![TrapKind::OutOfFuel]
    );
    assert_eq!(rt.stats().traps(), 1);
    assert_eq!(rt.stats().node_panics(), 0, "trap is not a poisoning");

    // Rollback: the accumulator still reads 1, and the node still works.
    assert_eq!(rt.output_value(), &Value::Int(1));
    rt.feed(Occurrence::input(keys, 0i64)).unwrap();
    let outs = rt.run_to_quiescence();
    assert_eq!(outs[0].value(), Some(&Value::Int(2)));
    assert!(rt.take_traps().is_empty());
}

/// The same trapped event on two runtimes leaves bit-identical state:
/// replaying the full event log (traps included) equals replaying it on a
/// fresh runtime — the recovery-determinism contract.
#[test]
fn trapped_events_replay_deterministically() {
    let src = format!(
        "main = foldp (\\k acc -> if k then {} else acc * 2 + 1) 0 Keyboard.lastPressed",
        runaway_tower(40)
    );
    let compiled = compile_source(&src, &InputEnv::standard()).unwrap();
    let graph = compiled.graph().unwrap().clone();
    let keys = graph.input_named("Keyboard.lastPressed").unwrap();
    let limits = EventLimits {
        fuel: 50_000,
        ..EventLimits::default()
    };

    let run = || {
        let mut rt = SyncRuntime::new(&graph);
        rt.set_governor(Some(limits), None);
        for k in [0i64, 1, 0, 1, 0] {
            rt.feed(Occurrence::input(keys, k)).unwrap();
        }
        rt.run_to_quiescence();
        (rt.output_value().clone(), rt.take_traps())
    };
    let (v1, t1) = run();
    let (v2, t2) = run();
    assert_eq!(v1, Value::Int(7)); // three honest events: 1, 3, 7
    assert_eq!(v1, v2);
    assert_eq!(t1, t2);
    assert_eq!(t1.len(), 2);
}

/// The `interpreter` bench's workload: a curried two-argument function
/// with `depth` nested lets and calls.
fn bench_workload(depth: usize) -> String {
    let mut body = String::from("x + y");
    for k in 0..depth {
        body = format!("let t{k} = ({body}) * 2 in t{k} - {k}");
    }
    format!("\\x y -> {body}")
}

/// Fuel and allocation charged for one node application are pinned, both
/// on a bare meter and as drawn from a governed event's pools, so any
/// drift in charging — which would move where budgets trap — fails here.
#[test]
fn node_application_charges_are_pinned() {
    use elm_runtime::governor;
    use felm::eval_big::apply_metered;
    use felm::translate::apply_function;

    let cases = [
        (
            bench_workload(8),
            vec![Value::Int(21), Value::Int(2)],
            (53, 10),
            Value::Int(5641),
        ),
        (
            "\\s xs -> (s ++ \"!\", s :: xs)".to_string(),
            vec![
                Value::str("hey"),
                Value::list([Value::str("a"), Value::str("b")]),
            ],
            (9, 12),
            Value::pair(
                Value::str("hey!"),
                Value::list([Value::str("hey"), Value::str("a"), Value::str("b")]),
            ),
        ),
    ];
    for (src, args, (fuel, alloc), out) in cases {
        let f = parse_expr(&src).unwrap();
        let mut meter = Meter::unlimited();
        let mut cur = eval_metered(&Env::empty(), &f, &mut meter).unwrap();
        for a in &args {
            cur = apply_metered(cur, a.clone(), &mut meter).unwrap();
        }
        assert_eq!(cur, out, "{src}");
        assert_eq!(
            (meter.fuel_used(), meter.alloc_cells()),
            (fuel, alloc),
            "{src}"
        );

        let limits = EventLimits {
            fuel: 1_000,
            max_alloc_cells: 1_000,
            max_depth: 64,
        };
        let scope = governor::enter(limits, None);
        assert_eq!(apply_function(&f, &args), out, "{src}");
        let left = governor::active().unwrap();
        drop(scope);
        assert_eq!(
            (1_000 - left.fuel_left, 1_000 - left.alloc_left),
            (fuel, alloc),
            "{src}"
        );
    }
}
