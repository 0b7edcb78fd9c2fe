//! Algebraic data types and `case` — full Elm's `data` declarations,
//! including the **recursive simple types** the paper names in §4
//! ("Elm's type system allows let-polymorphism and recursive simple
//! types"). Covered end to end: declaration validation, both type
//! systems, both interpreters, signal graphs, exhaustiveness.

use elm_runtime::{changed_values, Occurrence, SyncRuntime, Value};
use felm::ast::Type;
use felm::check::type_of_with;
use felm::env::{Adts, InputEnv};
use felm::eval::{normalize, DEFAULT_FUEL};
use felm::infer::infer_type_with;
use felm::parser::{parse_expr, parse_program};
use felm::pipeline::{compile_source, CompileError, ProgramResult};
use felm::translate::expr_to_value;

/// Parses declarations + expression, resolves, and returns everything.
fn setup(data: &str, expr: &str) -> (Adts, felm::ast::Expr) {
    let prog = parse_program(&format!("{data}\nmain = {expr}")).unwrap();
    let adts = Adts::from_defs(&prog.datas).unwrap();
    let e = adts.resolve(&prog.to_expr().unwrap()).unwrap();
    (adts, e)
}

fn eval_value(data: &str, expr: &str) -> Value {
    let (_adts, e) = setup(data, expr);
    let n = normalize(&e, DEFAULT_FUEL).unwrap();
    expr_to_value(&n).unwrap()
}

const MAYBE: &str = "data MaybeInt = Just Int | Nothing";
const COLOR: &str = "data Color = Red | Green | Blue";
const INTLIST: &str = "data IntList = Nil | Cons Int IntList";

#[test]
fn declarations_validate() {
    assert!(Adts::from_defs(&parse_program(&format!("{MAYBE}\nmain = 1")).unwrap().datas).is_ok());
    // Errors.
    for bad in [
        "data Int = X",            // reserved name
        "data A = X\ndata A = Y",  // duplicate type
        "data A = X\ndata B = X",  // duplicate constructor
        "data A = X (Signal Int)", // non-simple argument
        "data A = X Unknown",      // unknown type reference
    ] {
        let prog = parse_program(&format!("{bad}\nmain = 1")).unwrap();
        assert!(Adts::from_defs(&prog.datas).is_err(), "{bad}");
    }
    // Recursive references are fine.
    let prog = parse_program(&format!("{INTLIST}\nmain = 1")).unwrap();
    assert!(Adts::from_defs(&prog.datas).is_ok());
}

#[test]
fn constructors_type_as_curried_functions() {
    let env = InputEnv::standard();
    let (adts, _) = setup(MAYBE, "1");
    let just = adts.resolve(&parse_expr("Just").unwrap()).unwrap();
    let t = infer_type_with(&env, &adts, &just).unwrap();
    assert_eq!(t, Type::fun(Type::Int, Type::Named("MaybeInt".into())));
    let app = adts.resolve(&parse_expr("Just 3").unwrap()).unwrap();
    assert_eq!(
        type_of_with(&env, &adts, &normalize(&app, 100).unwrap()).unwrap(),
        Type::Named("MaybeInt".into())
    );
}

#[test]
fn case_evaluates_in_both_interpreters() {
    let expr = "case Just 41 of | Just n -> n + 1 | Nothing -> 0";
    assert_eq!(eval_value(MAYBE, expr), Value::Int(42));

    // Big step agrees.
    let (_adts, e) = setup(MAYBE, expr);
    let big = felm::eval_big::eval(&felm::eval_big::Env::empty(), &e).unwrap();
    assert_eq!(big, Value::Int(42));

    assert_eq!(
        eval_value(MAYBE, "case Nothing of | Just n -> n | Nothing -> 99"),
        Value::Int(99)
    );
    // Catch-all variable binds the whole value.
    assert_eq!(
        eval_value(
            MAYBE,
            "case Just 7 of | Nothing -> Nothing | other -> other"
        ),
        Value::tagged("Just", [Value::Int(7)])
    );
}

#[test]
fn recursive_data_types_work() {
    // Sum an IntList with an explicit recursive fold via let-bound
    // recursion … FElm has no recursion, so unroll manually: three deep.
    let expr = "\
case Cons 1 (Cons 2 (Cons 3 Nil)) of \
| Cons a rest -> a + (case rest of \
    | Cons b rest2 -> b + (case rest2 of | Cons c more -> c | Nil -> 0) \
    | Nil -> 0) \
| Nil -> 0";
    assert_eq!(eval_value(INTLIST, expr), Value::Int(6));
}

#[test]
fn exhaustiveness_is_enforced() {
    let env = InputEnv::standard();
    let (adts, _) = setup(COLOR, "1");
    let incomplete = adts
        .resolve(&parse_expr("\\(c : Color) -> case c of | Red -> 1 | Green -> 2").unwrap())
        .unwrap();
    let err = infer_type_with(&env, &adts, &incomplete).unwrap_err();
    assert!(err.message.contains("missing Blue"), "{}", err.message);
    let err = type_of_with(&env, &adts, &incomplete).unwrap_err();
    assert!(err.message.contains("missing Blue"), "{}", err.message);

    // A catch-all closes it.
    let complete = adts
        .resolve(&parse_expr("\\(c : Color) -> case c of | Red -> 1 | _ -> 0").unwrap())
        .unwrap();
    assert!(infer_type_with(&env, &adts, &complete).is_ok());
}

#[test]
fn case_type_errors_are_caught() {
    let env = InputEnv::standard();
    let (adts, _) = setup(&format!("{MAYBE}\n{COLOR}"), "1");
    for bad in [
        // Mixed ADTs in one case.
        "\\(m : MaybeInt) -> case m of | Just n -> 1 | Red -> 2",
        // Branch result types disagree.
        "case Just 1 of | Just n -> n | Nothing -> \"s\"",
        // Wrong binder count.
        "case Just 1 of | Just a b -> a | Nothing -> 0",
        // Unknown constructor.
        "case Mystery of | _ -> 1",
    ] {
        let resolved = adts.resolve(&parse_expr(bad).unwrap());
        let failed = match resolved {
            Err(_) => true,
            Ok(e) => infer_type_with(&env, &adts, &e).is_err(),
        };
        assert!(failed, "{bad} should fail");
    }
}

#[test]
fn adts_flow_through_signals() {
    // A state machine over clicks: Red -> Green -> Blue -> Red.
    let src = "\
data Light = Red | Green | Blue
next l = case l of | Red -> Green | Green -> Blue | Blue -> Red
show l = case l of | Red -> \"red\" | Green -> \"green\" | Blue -> \"blue\"
main = lift show (foldp (\\c l -> next l) Red Mouse.clicks)";
    let compiled = compile_source(src, &InputEnv::standard()).unwrap();
    assert_eq!(compiled.program_type, Type::signal(Type::Str));
    let g = compiled.graph().unwrap();
    let clicks = g.input_named("Mouse.clicks").unwrap();
    let outs =
        SyncRuntime::run_trace(g, (0..4).map(|_| Occurrence::input(clicks, Value::Unit))).unwrap();
    assert_eq!(
        changed_values(&outs),
        ["green", "blue", "red", "green"].map(Value::str).to_vec()
    );
}

#[test]
fn first_class_constructors_lift_over_signals() {
    // `Just` used as a function — the eta-expansion at work.
    let src = "\
data MaybeInt = Just Int | Nothing
orZero m = case m of | Just n -> n | Nothing -> 0
main = lift (\\x -> orZero (Just x) + orZero Nothing) Mouse.x";
    let compiled = compile_source(src, &InputEnv::standard()).unwrap();
    let g = compiled.graph().unwrap();
    let mx = g.input_named("Mouse.x").unwrap();
    let outs = SyncRuntime::run_trace(g, [Occurrence::input(mx, 21i64)]).unwrap();
    assert_eq!(changed_values(&outs), vec![Value::Int(21)]);
}

#[test]
fn pure_adt_programs_produce_tagged_values() {
    let src = format!("{MAYBE}\nmain = Just (6 * 7)");
    let compiled = compile_source(&src, &InputEnv::standard()).unwrap();
    let ProgramResult::Value(v) = &compiled.result else {
        panic!()
    };
    assert_eq!(v, &Value::tagged("Just", [Value::Int(42)]));
}

#[test]
fn unknown_constructors_error_at_resolution() {
    let err = compile_source("main = Bogus 1", &InputEnv::standard()).unwrap_err();
    let CompileError::Type(t) = err else {
        panic!("expected a type error")
    };
    assert!(t.message.contains("unknown constructor"), "{}", t.message);
}
