//! Stage two: translating signal terms to signal graphs.
//!
//! The paper defines signal evaluation by translating signal terms to
//! Concurrent ML (Fig. 10): each node becomes a thread, each edge a
//! channel, `let` a multicast station, `async` a fresh event source. Our
//! Rust analogue of "CML" is the `elm-runtime` crate, so the translation
//! here maps a validated [`SignalTerm`] onto a
//! [`elm_runtime::SignalGraph`]; the runtime's schedulers then provide the
//! threads/channels/dispatcher of Figs. 9–11.
//!
//! Functions embedded in `lift`/`foldp` nodes are FElm values; at event
//! time the node applies them to the runtime values on its inputs with the
//! big-step evaluator ([`crate::eval_big`]) — the moral equivalent of the
//! paper's `⟦f⟧V` application inside each node's CML loop. The Fig. 6
//! small-step machine stays available as [`apply_function_small_step`],
//! the specification the fast path is tested against.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use elm_runtime::{governor, GraphBuilder, NodeId, SignalGraph, Value};

use crate::ast::{Expr, ExprKind};
use crate::budget::{Budget, Meter, Trap};
use crate::env::InputEnv;
use crate::eval::{normalize, EvalError, DEFAULT_FUEL};
use crate::eval_big::{apply_metered, eval_metered, Env};
use crate::intermediate::{FinalTerm, SignalTerm};

/// Errors raised while building the graph.
#[derive(Clone, Debug, PartialEq)]
pub enum TranslateError {
    /// The term references an input absent from the [`InputEnv`].
    UnknownInput(String),
    /// A signal variable is unbound (cannot happen for validated terms
    /// produced from closed programs).
    UnboundVar(String),
    /// The finished graph failed validation.
    Graph(String),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::UnknownInput(i) => write!(f, "unknown input signal `{i}`"),
            TranslateError::UnboundVar(x) => write!(f, "unbound signal variable `{x}`"),
            TranslateError::Graph(msg) => write!(f, "graph construction failed: {msg}"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// Converts a runtime value to a literal FElm expression, for feeding
/// runtime values into embedded FElm functions.
///
/// Returns `None` for values outside FElm's data universe (lists, records,
/// opaque host values).
pub fn value_to_expr(v: &Value) -> Option<Expr> {
    Some(Expr::synth(match v {
        Value::Unit => ExprKind::Unit,
        Value::Int(n) => ExprKind::Int(*n),
        Value::Float(x) => ExprKind::Float(*x),
        Value::Bool(b) => ExprKind::Int(*b as i64),
        Value::Str(s) => ExprKind::Str(s.to_string()),
        Value::Pair(p) => ExprKind::Pair(
            Box::new(value_to_expr(&p.0)?),
            Box::new(value_to_expr(&p.1)?),
        ),
        Value::List(items) => ExprKind::List(
            items
                .iter()
                .map(value_to_expr)
                .collect::<Option<Vec<_>>>()?,
        ),
        Value::Record(fields) => ExprKind::Record(
            fields
                .iter()
                .map(|(k, v)| Some((k.clone(), value_to_expr(v)?)))
                .collect::<Option<Vec<_>>>()?,
        ),
        Value::Tagged(tag, args) => ExprKind::CtorApp(
            tag.to_string(),
            args.iter().map(value_to_expr).collect::<Option<Vec<_>>>()?,
        ),
        _ => return None,
    }))
}

/// Converts an FElm value expression back to a runtime value.
///
/// Returns `None` for non-data values (functions).
pub fn expr_to_value(e: &Expr) -> Option<Value> {
    Some(match &e.kind {
        ExprKind::Unit => Value::Unit,
        ExprKind::Int(n) => Value::Int(*n),
        ExprKind::Float(x) => Value::Float(*x),
        ExprKind::Str(s) => Value::str(s),
        ExprKind::Pair(a, b) => Value::pair(expr_to_value(a)?, expr_to_value(b)?),
        ExprKind::List(items) => Value::list(
            items
                .iter()
                .map(expr_to_value)
                .collect::<Option<Vec<_>>>()?,
        ),
        ExprKind::Record(fields) => Value::record(
            fields
                .iter()
                .map(|(k, v)| Some((k.clone(), expr_to_value(v)?)))
                .collect::<Option<Vec<_>>>()?,
        ),
        ExprKind::CtorApp(tag, args) => Value::tagged(
            tag,
            args.iter().map(expr_to_value).collect::<Option<Vec<_>>>()?,
        ),
        _ => return None,
    })
}

/// Applies an FElm function value to runtime values.
///
/// Uses the environment-based big-step interpreter
/// ([`crate::eval_big`]) — this runs on every event at every node, so it
/// must be fast; agreement with the Fig. 6 small-step machine is
/// property-tested, and [`apply_function_small_step`] keeps the
/// specification path available (the `interpreter` bench compares them).
/// The arguments go to the evaluator as they are: it computes on runtime
/// values, reading a `Bool` as the `Int` 0/1 (FElm has no booleans).
///
/// When the hosting scheduler has activated a per-event resource
/// governor ([`elm_runtime::governor`]), the application runs metered
/// against the event's remaining fuel/allocation pools and deadline; a
/// budget trap is recorded on the governor (the scheduler rolls the
/// event back) and a `Unit` sentinel is returned instead of panicking.
/// Ungoverned applications run under an unlimited meter, which never
/// traps.
///
/// # Panics
///
/// Panics if application gets stuck or produces a non-data value — both
/// impossible for nodes built from well-typed programs; a panic here
/// indicates translation of an unchecked term.
pub fn apply_function(func: &Expr, args: &[Value]) -> Value {
    // Governed: evaluate against the event's *remaining* pools so a
    // budget bounds the total work of the event, not of each node.
    let view = governor::active();
    let mut meter = view.map_or_else(Meter::unlimited, |view| {
        Meter::new(Budget {
            fuel: view.fuel_left,
            max_alloc_cells: view.alloc_left,
            max_depth: view.max_depth,
        })
        .with_deadline(view.deadline)
    });
    let result = (|| {
        let mut cur = eval_metered(&Env::empty(), func, &mut meter)?;
        for a in args {
            cur = apply_metered(cur, a.clone(), &mut meter)?;
        }
        Ok(cur)
    })();
    if view.is_some() {
        governor::consume(meter.fuel_used(), meter.alloc_cells());
    }
    match result {
        Ok(cur) => node_output(cur),
        // Only a governed meter traps.
        Err(EvalError::Trap(t)) => {
            governor::record_trap(match t {
                Trap::OutOfFuel => governor::TrapKind::OutOfFuel,
                Trap::OutOfMemory => governor::TrapKind::OutOfMemory,
                Trap::DepthExceeded => governor::TrapKind::DepthExceeded,
                Trap::DeadlineExceeded => governor::TrapKind::DeadlineExceeded,
            });
            // Sentinel; the scheduler sees the recorded trap and rolls
            // the whole event back, so this value is never observed.
            Value::Unit
        }
        Err(err) => panic!("embedded FElm function got stuck: {err}"),
    }
}

/// A node's output for the value its function returned: a runtime `Bool`
/// that flowed through from an argument is read as the `Int` 0/1, as
/// [`value_to_expr`] reads it on the specification path. Copies only a
/// result that holds a `Bool`.
///
/// # Panics
///
/// Panics if the result holds a closure (or any other host value).
fn node_output(v: Value) -> Value {
    fn holds_bool(v: &Value) -> bool {
        match v {
            Value::Bool(_) => true,
            Value::Pair(p) => holds_bool(&p.0) || holds_bool(&p.1),
            Value::List(items) | Value::Tagged(_, items) => items.iter().any(holds_bool),
            Value::Record(fields) => fields.values().any(holds_bool),
            Value::Ext(_) => panic!("embedded FElm function returned a non-data value"),
            Value::Unit | Value::Int(_) | Value::Float(_) | Value::Str(_) => false,
        }
    }
    fn bools_as_ints(v: &Value) -> Value {
        match v {
            Value::Bool(b) => Value::Int(*b as i64),
            Value::Pair(p) => Value::pair(bools_as_ints(&p.0), bools_as_ints(&p.1)),
            Value::List(items) => Value::list(items.iter().map(bools_as_ints)),
            Value::Record(fields) => {
                Value::record(fields.iter().map(|(k, v)| (k.clone(), bools_as_ints(v))))
            }
            Value::Tagged(tag, args) => Value::Tagged(
                tag.clone(),
                Arc::new(args.iter().map(bools_as_ints).collect()),
            ),
            Value::Ext(_) => panic!("embedded FElm function returned a non-data value"),
            Value::Unit | Value::Int(_) | Value::Float(_) | Value::Str(_) => v.clone(),
        }
    }
    if holds_bool(&v) {
        bools_as_ints(&v)
    } else {
        v
    }
}

/// [`apply_function`] by literal Fig. 6 β-reduction — the specification
/// path, kept for differential testing and the interpreter benchmark.
///
/// # Panics
///
/// Same conditions as [`apply_function`].
pub fn apply_function_small_step(func: &Expr, args: &[Value]) -> Value {
    let mut e = func.clone();
    for a in args {
        let lit = value_to_expr(a)
            .unwrap_or_else(|| panic!("runtime value {a:?} is outside FElm's data universe"));
        e = Expr::synth(ExprKind::App(Box::new(e), Box::new(lit)));
    }
    let normal = normalize(&e, DEFAULT_FUEL)
        .unwrap_or_else(|err| panic!("embedded FElm function got stuck: {err}"));
    expr_to_value(&normal)
        .unwrap_or_else(|| panic!("embedded FElm function returned a non-data value"))
}

/// Translates a validated signal term to a runnable signal graph.
///
/// Input occurrences are deduplicated by name, so a program mentioning
/// `Mouse.x` twice shares one source node — matching the signal-graph
/// drawings of Figs. 7–8 and the multicast semantics of the CML
/// translation.
///
/// # Errors
///
/// Fails on inputs missing from `env` or (for hand-built terms) unbound
/// signal variables.
pub fn translate(term: &SignalTerm, env: &InputEnv) -> Result<SignalGraph, TranslateError> {
    let mut tr = Translator {
        env,
        builder: GraphBuilder::new(),
        scope: HashMap::new(),
        inputs: HashMap::new(),
    };
    let out = tr.walk(term)?;
    tr.builder
        .finish(out)
        .map_err(|e| TranslateError::Graph(e.to_string()))
}

struct Translator<'a> {
    env: &'a InputEnv,
    builder: GraphBuilder,
    scope: HashMap<String, Vec<NodeId>>,
    inputs: HashMap<String, NodeId>,
}

impl Translator<'_> {
    fn walk(&mut self, term: &SignalTerm) -> Result<NodeId, TranslateError> {
        match term {
            SignalTerm::Var(x) => self
                .scope
                .get(x)
                .and_then(|s| s.last())
                .copied()
                .ok_or_else(|| TranslateError::UnboundVar(x.clone())),
            SignalTerm::Input(i) => {
                if let Some(id) = self.inputs.get(i) {
                    return Ok(*id);
                }
                let decl = self
                    .env
                    .get(i)
                    .ok_or_else(|| TranslateError::UnknownInput(i.clone()))?;
                let id = self.builder.input(i.clone(), decl.default.clone());
                self.inputs.insert(i.clone(), id);
                Ok(id)
            }
            SignalTerm::Let { name, value, body } => {
                let shared = self.walk(value)?;
                self.scope.entry(name.clone()).or_default().push(shared);
                let out = match &**body {
                    FinalTerm::Signal(s) => self.walk(s),
                    FinalTerm::Value(v) => {
                        // `let x = s in v`: a constant display over a live
                        // signal — output v regardless of events.
                        let constant = expr_to_value(v).unwrap_or(Value::Unit);
                        Ok(self
                            .builder
                            .lift1("const", move |_| constant.clone(), shared))
                    }
                };
                if let Some(stack) = self.scope.get_mut(name) {
                    stack.pop();
                }
                out
            }
            SignalTerm::Lift { func, args } => {
                let parents = args
                    .iter()
                    .map(|a| self.walk(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let f = func.clone();
                let label = format!("lift{}", parents.len());
                Ok(self
                    .builder
                    .lift_n(label, move |vs| apply_function(&f, vs), parents))
            }
            SignalTerm::Foldp { func, init, signal } => {
                let parent = self.walk(signal)?;
                let f = func.clone();
                let init_value = expr_to_value(init)
                    .unwrap_or_else(|| panic!("foldp base value is outside FElm's data universe"));
                Ok(self.builder.foldp(
                    "foldp",
                    move |new, acc| apply_function(&f, &[new.clone(), acc.clone()]),
                    init_value,
                    parent,
                ))
            }
            SignalTerm::Async(inner) => {
                let parent = self.walk(inner)?;
                Ok(self.builder.async_source(parent))
            }
            SignalTerm::Prim {
                op,
                values,
                signals,
            } => {
                use crate::ast::SignalPrimOp;
                let parents = signals
                    .iter()
                    .map(|s| self.walk(s))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(match op {
                    SignalPrimOp::Merge => self.builder.merge(parents[0], parents[1]),
                    SignalPrimOp::SampleOn => self.builder.sample_on(parents[0], parents[1]),
                    SignalPrimOp::DropRepeats => self.builder.drop_repeats(parents[0]),
                    SignalPrimOp::KeepIf => {
                        let pred = values[0].clone();
                        let base = expr_to_value(&values[1]).unwrap_or_else(|| {
                            panic!("keepIf base value is outside FElm's data universe")
                        });
                        self.builder.keep_if(
                            move |v| apply_function(&pred, std::slice::from_ref(v)).is_truthy(),
                            base,
                            parents[0],
                        )
                    }
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elm_runtime::{changed_values, Occurrence, SyncRuntime};

    use crate::eval::DEFAULT_FUEL;
    use crate::parser::parse_expr;

    fn graph_of(src: &str) -> SignalGraph {
        let env = InputEnv::standard();
        let e = parse_expr(src).unwrap();
        let n = normalize(&e, DEFAULT_FUEL).unwrap();
        let FinalTerm::Signal(s) = FinalTerm::from_expr(&n).unwrap() else {
            panic!("not a signal program")
        };
        translate(&s, &env).unwrap()
    }

    #[test]
    fn fig7_graph_runs() {
        let g = graph_of("lift2 (\\y z -> (100 * y) / z) Mouse.x Window.width");
        let mx = g.input_named("Mouse.x").unwrap();
        let ww = g.input_named("Window.width").unwrap();
        let outs = SyncRuntime::run_trace(
            &g,
            [
                Occurrence::input(mx, 512i64),
                Occurrence::input(ww, 2048i64),
            ],
        )
        .unwrap();
        assert_eq!(changed_values(&outs), vec![Value::Int(50), Value::Int(25)]);
    }

    #[test]
    fn foldp_counter_runs() {
        let g = graph_of("foldp (\\k c -> c + 1) 0 Keyboard.lastPressed");
        let keys = g.input_named("Keyboard.lastPressed").unwrap();
        let outs =
            SyncRuntime::run_trace(&g, (0..4).map(|k| Occurrence::input(keys, 65 + k as i64)))
                .unwrap();
        assert_eq!(changed_values(&outs).last(), Some(&Value::Int(4)));
    }

    #[test]
    fn shared_inputs_are_deduplicated() {
        let g = graph_of("lift2 (\\a b -> a + b) Mouse.x Mouse.x");
        assert_eq!(g.sources().len(), 1);
        let mx = g.input_named("Mouse.x").unwrap();
        let outs = SyncRuntime::run_trace(&g, [Occurrence::input(mx, 21i64)]).unwrap();
        assert_eq!(changed_values(&outs), vec![Value::Int(42)]);
    }

    #[test]
    fn let_multicast_shares_nodes() {
        let g = graph_of("let s = lift (\\x -> x * 2) Mouse.x in lift2 (\\a b -> a + b) s s");
        // Mouse.x, the shared lift, and the combining lift: 3 nodes.
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn async_programs_split_and_run() {
        let g = graph_of(
            "lift2 (\\a b -> (a, b)) Mouse.x (async (lift (\\w -> w ++ \"!\") Words.input))",
        );
        assert_eq!(g.async_sources().len(), 1);
        let mx = g.input_named("Mouse.x").unwrap();
        let words = g.input_named("Words.input").unwrap();
        let outs = SyncRuntime::run_trace(
            &g,
            [Occurrence::input(words, "hey"), Occurrence::input(mx, 3i64)],
        )
        .unwrap();
        let finals = changed_values(&outs);
        let last = finals.last().unwrap().as_pair().unwrap();
        assert_eq!(last.0, &Value::Int(3));
        assert_eq!(last.1, &Value::str("hey!"));
    }

    #[test]
    fn pairs_and_strings_cross_the_boundary() {
        let g = graph_of("lift (\\p -> fst p + snd p) Mouse.position");
        let mp = g.input_named("Mouse.position").unwrap();
        let outs = SyncRuntime::run_trace(
            &g,
            [Occurrence::input(
                mp,
                Value::pair(Value::Int(3), Value::Int(4)),
            )],
        )
        .unwrap();
        assert_eq!(changed_values(&outs), vec![Value::Int(7)]);
    }

    #[test]
    fn bools_and_closures_cross_the_boundary_alike() {
        // FElm has no booleans: a runtime `Bool` reads as the `Int` 0/1,
        // top-level and nested, on the fast path as on the spec path.
        let f = parse_expr("\\b p -> (if b then fst p + 1 else 7, (b, snd p))").unwrap();
        let args = [
            Value::Bool(true),
            Value::pair(Value::Bool(false), Value::Int(3)),
        ];
        let out = apply_function(&f, &args);
        assert_eq!(out, apply_function_small_step(&f, &args));
        assert_eq!(
            out,
            Value::pair(Value::Int(1), Value::pair(Value::Int(1), Value::Int(3)))
        );

        // A function-valued result, bare or nested, panics on both paths.
        let paths: [fn(&Expr, &[Value]) -> Value; 2] = [apply_function, apply_function_small_step];
        for src in ["\\x y -> x", "\\x -> (x, \\y -> y)"] {
            let g = parse_expr(src).unwrap();
            for apply in paths {
                let panic = std::panic::catch_unwind(|| apply(&g, &[Value::Int(1)])).unwrap_err();
                assert_eq!(
                    panic.downcast_ref::<&str>(),
                    Some(&"embedded FElm function returned a non-data value"),
                    "{src}"
                );
            }
        }
    }

    #[test]
    fn unknown_inputs_error() {
        let env = InputEnv::standard();
        let term = SignalTerm::Input("Nope.nothing".into());
        assert_eq!(
            translate(&term, &env).err(),
            Some(TranslateError::UnknownInput("Nope.nothing".into()))
        );
        let term = SignalTerm::Var("ghost".into());
        assert_eq!(
            translate(&term, &env).err(),
            Some(TranslateError::UnboundVar("ghost".into()))
        );
    }

    #[test]
    fn value_expr_round_trip() {
        for v in [
            Value::Unit,
            Value::Int(-3),
            Value::Float(2.5),
            Value::str("hi"),
            Value::pair(Value::Int(1), Value::str("x")),
        ] {
            let e = value_to_expr(&v).unwrap();
            assert_eq!(expr_to_value(&e), Some(v));
        }
        let lst = Value::list([Value::Int(1), Value::str("a")]);
        let e = value_to_expr(&lst).unwrap();
        assert_eq!(expr_to_value(&e), Some(lst));
        assert!(value_to_expr(&Value::ext(0u8)).is_none());
        assert_eq!(
            value_to_expr(&Value::Bool(true)).unwrap().kind,
            ExprKind::Int(1)
        );
    }
}
