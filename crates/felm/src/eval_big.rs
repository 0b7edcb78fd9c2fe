//! Big-step, environment-based evaluation of the *functional* fragment.
//!
//! The small-step machine in [`crate::eval`] is the paper's Fig. 6,
//! verbatim — ideal as a specification, quadratic in practice (substitution
//! copies terms). Signal-graph nodes apply their embedded FElm functions on
//! *every event*, so stage two wants a fast interpreter: this module
//! evaluates the simple-typed fragment with closures and persistent
//! environments in one pass.
//!
//! Values are the runtime's [`Value`], the domain that flows along
//! signal-graph edges, so a node hands its inputs to the evaluator and
//! its result onward as they are — one value domain, as in the paper's
//! CML translation (Fig. 10). A closure is a private struct carried as
//! [`Value::Ext`]. FElm has no booleans: a runtime `Bool` (a wire client
//! may send one) is read as the `Int` 0/1 wherever a number is inspected.
//!
//! Scope: values of simple types only (unit, numbers, strings, pairs,
//! lists, records, constructor applications, functions). Signal forms are
//! out of scope by construction — stage one has already reduced programs
//! to signal terms whose embedded functions are simple-typed values
//! (Fig. 5), and those are what nodes apply.
//!
//! Agreement with the small-step semantics is property-tested in
//! `tests/theorem1_prop.rs` and benchmarked (`interpreter` bench).

use std::fmt;
use std::sync::Arc;

use elm_runtime::Value;

use crate::ast::{BinOp, Expr, ExprKind, ListOp, Pattern};
use crate::budget::Meter;
use crate::eval::EvalError;

/// A function closure, carried as [`Value::Ext`].
struct Closure {
    param: Arc<str>,
    body: Expr,
    env: Env,
}

/// A persistent (immutable, shareable) environment.
#[derive(Clone, Default)]
pub struct Env(Option<Arc<Binding>>);

struct Binding {
    name: Arc<str>,
    value: Value,
    next: Env,
}

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// Extends with one binding (O(1), shares the tail).
    pub fn bind(&self, name: impl Into<Arc<str>>, value: Value) -> Env {
        Env(Some(Arc::new(Binding {
            name: name.into(),
            value,
            next: self.clone(),
        })))
    }

    /// Looks up a name (innermost binding wins).
    pub fn lookup(&self, name: &str) -> Option<&Value> {
        let mut cur = self;
        while let Some(b) = &cur.0 {
            if &*b.name == name {
                return Some(&b.value);
            }
            cur = &b.next;
        }
        None
    }
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        let mut cur = self;
        while let Some(b) = &cur.0 {
            names.push(&*b.name);
            cur = &b.next;
        }
        write!(f, "Env{names:?}")
    }
}

fn stuck<T>(reason: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError::Stuck {
        reason: reason.into(),
    })
}

/// Evaluates a simple-typed expression under `env`.
///
/// # Errors
///
/// [`EvalError::Stuck`] on ill-typed terms or signal forms.
///
/// ```
/// use elm_runtime::Value;
/// use felm::eval_big::{eval, Env};
/// use felm::parser::parse_expr;
///
/// let e = parse_expr("(\\x y -> x * y + 1) 6 7").unwrap();
/// assert_eq!(eval(&Env::empty(), &e).unwrap(), Value::Int(43));
/// ```
pub fn eval(env: &Env, e: &Expr) -> Result<Value, EvalError> {
    eval_metered(env, e, &mut Meter::unlimited())
}

/// [`eval`] under a [`Meter`]: every node visit charges one fuel tick,
/// every value construction charges allocation (strings/lists/records by
/// length), and evaluation nesting counts against the depth budget, so an
/// adversarial term traps with a typed [`crate::budget::Trap`] instead of
/// spinning or exhausting memory. With an unlimited meter this is the
/// exact same computation as [`eval`] (which is this function with
/// [`Meter::unlimited`]).
///
/// # Errors
///
/// [`EvalError::Stuck`] on ill-typed terms, [`EvalError::Trap`] on budget
/// exhaustion.
pub fn eval_metered(env: &Env, e: &Expr, meter: &mut Meter) -> Result<Value, EvalError> {
    meter.tick()?;
    meter.enter()?;
    let r = eval_node(env, e, meter);
    meter.leave();
    r
}

fn eval_node(env: &Env, e: &Expr, meter: &mut Meter) -> Result<Value, EvalError> {
    match &e.kind {
        ExprKind::Unit => Ok(Value::Unit),
        ExprKind::Int(n) => Ok(Value::Int(*n)),
        ExprKind::Float(x) => Ok(Value::Float(*x)),
        ExprKind::Str(s) => {
            meter.alloc(1 + s.len() as u64)?;
            Ok(Value::Str(Arc::from(s.as_str())))
        }
        ExprKind::Var(x) => match env.lookup(x) {
            Some(v) => Ok(v.clone()),
            None => stuck(format!("unbound variable {x}")),
        },
        ExprKind::Lam { param, body, .. } => {
            meter.alloc(1)?;
            Ok(Value::Ext(Arc::new(Closure {
                param: Arc::from(param.as_str()),
                body: (**body).clone(),
                env: env.clone(),
            })))
        }
        ExprKind::App(f, a) => {
            let fv = eval_metered(env, f, meter)?;
            let av = eval_metered(env, a, meter)?;
            apply_metered(fv, av, meter)
        }
        ExprKind::BinOp(op, a, b) => {
            let av = eval_metered(env, a, meter)?;
            let bv = eval_metered(env, b, meter)?;
            delta(*op, &av, &bv, meter)
        }
        ExprKind::If(c, t, f) => {
            let cv = eval_metered(env, c, meter)?;
            match int(&cv) {
                Some(0) => eval_metered(env, f, meter),
                Some(_) => eval_metered(env, t, meter),
                None => stuck(format!("if-condition is not an integer: {cv:?}")),
            }
        }
        ExprKind::Let { name, value, body } => {
            let v = eval_metered(env, value, meter)?;
            meter.alloc(1)?;
            eval_metered(&env.bind(name.as_str(), v), body, meter)
        }
        ExprKind::Pair(a, b) => {
            meter.alloc(1)?;
            Ok(Value::Pair(Arc::new((
                eval_metered(env, a, meter)?,
                eval_metered(env, b, meter)?,
            ))))
        }
        ExprKind::Fst(p) => match eval_metered(env, p, meter)? {
            Value::Pair(pr) => Ok(pr.0.clone()),
            other => stuck(format!("fst of a non-pair: {other:?}")),
        },
        ExprKind::Snd(p) => match eval_metered(env, p, meter)? {
            Value::Pair(pr) => Ok(pr.1.clone()),
            other => stuck(format!("snd of a non-pair: {other:?}")),
        },
        ExprKind::List(items) => {
            meter.alloc(1 + items.len() as u64)?;
            let vals = items
                .iter()
                .map(|i| eval_metered(env, i, meter))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Value::List(Arc::new(vals)))
        }
        ExprKind::ListOp(op, l) => match eval_metered(env, l, meter)? {
            Value::List(items) => match op {
                ListOp::Head => match items.first() {
                    Some(h) => Ok(h.clone()),
                    None => stuck("head of the empty list"),
                },
                ListOp::Tail => {
                    if items.is_empty() {
                        stuck("tail of the empty list")
                    } else {
                        meter.alloc(items.len() as u64)?;
                        Ok(Value::List(Arc::new(items[1..].to_vec())))
                    }
                }
                ListOp::IsEmpty => Ok(Value::Int(items.is_empty() as i64)),
                ListOp::Length => Ok(Value::Int(items.len() as i64)),
            },
            other => stuck(format!("{} of a non-list: {other:?}", op.keyword())),
        },
        ExprKind::Ith(index, l) => {
            let iv = eval_metered(env, index, meter)?;
            let Some(i) = int(&iv) else {
                return stuck(format!("ith index is not an int: {iv:?}"));
            };
            match eval_metered(env, l, meter)? {
                Value::List(items) => {
                    if i < 0 || i as usize >= items.len() {
                        stuck(format!(
                            "ith index {i} out of bounds for a {}-element list",
                            items.len()
                        ))
                    } else {
                        Ok(items[i as usize].clone())
                    }
                }
                other => stuck(format!("ith of a non-list: {other:?}")),
            }
        }
        ExprKind::Record(fields) => {
            meter.alloc(1 + fields.len() as u64)?;
            let mut out = std::collections::BTreeMap::new();
            for (name, value) in fields {
                out.insert(name.clone(), eval_metered(env, value, meter)?);
            }
            Ok(Value::Record(Arc::new(out)))
        }
        ExprKind::Field(rec, name) => match eval_metered(env, rec, meter)? {
            Value::Record(fields) => match fields.get(name) {
                Some(v) => Ok(v.clone()),
                None => stuck(format!("record has no field `{name}`")),
            },
            other => stuck(format!("field access on a non-record: {other:?}")),
        },
        ExprKind::Ctor(name) => stuck(format!(
            "unresolved constructor `{name}` (run Adts::resolve first)"
        )),
        ExprKind::CtorApp(name, args) => {
            meter.alloc(1 + args.len() as u64)?;
            let vals = args
                .iter()
                .map(|a| eval_metered(env, a, meter))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Value::Tagged(Arc::from(name.as_str()), Arc::new(vals)))
        }
        ExprKind::Case {
            scrutinee,
            branches,
        } => {
            let value = eval_metered(env, scrutinee, meter)?;
            for b in branches {
                match (&b.pattern, &value) {
                    (Pattern::Ctor { name, binders }, Value::Tagged(tag, args))
                        if name.as_str() == &**tag =>
                    {
                        let mut env2 = env.clone();
                        for (binder, arg) in binders.iter().zip(args.iter()) {
                            if binder != "_" {
                                env2 = env2.bind(binder.as_str(), arg.clone());
                            }
                        }
                        return eval_metered(&env2, &b.body, meter);
                    }
                    (Pattern::Ctor { .. }, _) => continue,
                    (Pattern::Var(x), _) => {
                        return eval_metered(&env.bind(x.as_str(), value.clone()), &b.body, meter)
                    }
                    (Pattern::Wildcard, _) => return eval_metered(env, &b.body, meter),
                }
            }
            stuck(format!("no case branch matched {value:?}"))
        }
        ExprKind::Input(i) => stuck(format!("signal form in big-step evaluation: input {i}")),
        ExprKind::Lift { .. }
        | ExprKind::Foldp { .. }
        | ExprKind::Async(_)
        | ExprKind::SignalPrim { .. } => stuck("signal form in big-step evaluation"),
    }
}

/// Applies a closure to an argument under a [`Meter`] (see
/// [`eval_metered`]).
///
/// # Errors
///
/// [`EvalError::Stuck`] if `f` is not a closure, [`EvalError::Trap`] on
/// budget exhaustion.
pub fn apply_metered(f: Value, arg: Value, meter: &mut Meter) -> Result<Value, EvalError> {
    match f.downcast_ext::<Closure>() {
        Some(c) => eval_metered(&c.env.bind(c.param.clone(), arg), &c.body, meter),
        None => stuck(format!("application of a non-function: {f:?}")),
    }
}

/// FElm's reading of a number: a runtime `Bool` is the `Int` 0/1.
fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(n) => Some(*n),
        Value::Bool(b) => Some(*b as i64),
        _ => None,
    }
}

fn delta(op: BinOp, a: &Value, b: &Value, meter: &mut Meter) -> Result<Value, EvalError> {
    use Value::{Float, Int, Str};
    let r = match (op, a, b) {
        (BinOp::Append, Str(x), Str(y)) => {
            // Charge before materializing: an append chain must trap on the
            // budget, not take the memory down with it.
            meter.alloc(x.len() as u64 + y.len() as u64)?;
            Str(Arc::from(format!("{x}{y}").as_str()))
        }
        (BinOp::Cons, head, Value::List(items)) => {
            meter.alloc(1 + items.len() as u64)?;
            let mut out = Vec::with_capacity(items.len() + 1);
            out.push(head.clone());
            out.extend(items.iter().cloned());
            Value::List(Arc::new(out))
        }
        (_, Float(x), Float(y)) => {
            let (x, y) = (*x, *y);
            match op {
                BinOp::Add => Float(x + y),
                BinOp::Sub => Float(x - y),
                BinOp::Mul => Float(x * y),
                BinOp::Div => Float(if y == 0.0 { 0.0 } else { x / y }),
                BinOp::Eq => Int((x == y) as i64),
                BinOp::Ne => Int((x != y) as i64),
                BinOp::Lt => Int((x < y) as i64),
                BinOp::Le => Int((x <= y) as i64),
                BinOp::Gt => Int((x > y) as i64),
                BinOp::Ge => Int((x >= y) as i64),
                _ => return stuck("unsupported float operator"),
            }
        }
        (BinOp::Eq, Str(x), Str(y)) => Int((x == y) as i64),
        (BinOp::Ne, Str(x), Str(y)) => Int((x != y) as i64),
        _ => match (int(a), int(b)) {
            (Some(x), Some(y)) => match op {
                BinOp::Add => Int(x.wrapping_add(y)),
                BinOp::Sub => Int(x.wrapping_sub(y)),
                BinOp::Mul => Int(x.wrapping_mul(y)),
                BinOp::Div => Int(if y == 0 { 0 } else { x.wrapping_div(y) }),
                BinOp::Mod => Int(if y == 0 { 0 } else { x.wrapping_rem(y) }),
                BinOp::Eq => Int((x == y) as i64),
                BinOp::Ne => Int((x != y) as i64),
                BinOp::Lt => Int((x < y) as i64),
                BinOp::Le => Int((x <= y) as i64),
                BinOp::Gt => Int((x > y) as i64),
                BinOp::Ge => Int((x >= y) as i64),
                BinOp::And => Int(((x != 0) && (y != 0)) as i64),
                BinOp::Or => Int(((x != 0) || (y != 0)) as i64),
                BinOp::Append | BinOp::Cons => return stuck("++/:: on integers"),
            },
            _ => return stuck(format!("operator {op} applied to {a:?} and {b:?}")),
        },
    };
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{normalize, DEFAULT_FUEL};
    use crate::parser::parse_expr;
    use crate::translate::expr_to_value;

    fn big(src: &str) -> Value {
        eval(&Env::empty(), &parse_expr(src).unwrap()).unwrap()
    }

    #[test]
    fn evaluates_functional_programs() {
        assert_eq!(big("1 + 2 * 3"), Value::Int(7));
        assert_eq!(big("(\\f x -> f (f x)) (\\n -> n * 2) 5"), Value::Int(20));
        assert_eq!(big("let a = 3 in let b = a * a in b + a"), Value::Int(12));
        assert_eq!(big("if 1 < 2 then \"y\" else \"n\""), Value::str("y"));
        assert_eq!(big("fst (snd ((1, 2), (3, 4)))"), Value::Int(3));
    }

    #[test]
    fn closures_capture_lexically() {
        // The classic shadowing test: adder captures its own x.
        assert_eq!(
            big("let makeAdd = \\x -> \\y -> x + y in let x = 100 in makeAdd 1 x"),
            Value::Int(101)
        );
        assert_eq!(
            big("let x = 1 in let f = \\y -> x + y in let x = 50 in f 0"),
            Value::Int(1),
            "static scoping, not dynamic"
        );
    }

    #[test]
    fn agrees_with_small_step_on_sample_programs() {
        for src in [
            "1 + 2 * 3 - 4 / 2",
            "(\\x -> x * x) 12",
            "let compose = \\f g x -> f (g x) in compose (\\a -> a + 1) (\\b -> b * 2) 10",
            "if 7 % 2 then 1 else 0",
            "\"a\" ++ \"b\" ++ \"c\"",
            "(1 + 1, \"two\")",
            "snd (0, if 1 then 10 else 20)",
        ] {
            let e = parse_expr(src).unwrap();
            let small = normalize(&e, DEFAULT_FUEL).unwrap();
            let small_val = expr_to_value(&small).expect("data result");
            assert_eq!(small_val, eval(&Env::empty(), &e).unwrap(), "{src}");
        }
    }

    #[test]
    fn signal_forms_are_rejected() {
        assert!(eval(&Env::empty(), &parse_expr("Mouse.x").unwrap()).is_err());
        assert!(eval(
            &Env::empty(),
            &parse_expr("lift (\\x -> x) Mouse.x").unwrap()
        )
        .is_err());
    }

    #[test]
    fn env_lookup_is_innermost_first() {
        let env = Env::empty()
            .bind("x", Value::Int(1))
            .bind("y", Value::Int(2))
            .bind("x", Value::Int(3));
        assert_eq!(env.lookup("x"), Some(&Value::Int(3)));
        assert_eq!(env.lookup("y"), Some(&Value::Int(2)));
        assert_eq!(env.lookup("z"), None);
    }
}
