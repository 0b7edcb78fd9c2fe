//! Natively built graphs of the same shape as the workloads' FElm
//! programs: the ladder's bottom rung. The compiled graph minus the
//! native one is the cost of evaluating FElm function bodies
//! (`felm::eval::apply_function`) instead of Rust closures.

use elm_runtime::{GraphBuilder, NodeId, SignalGraph, Value};
use elm_synth::gen::{Fold, Node, ProgramIr, Scalar1, Scalar2, SOURCES};
use felm::env::InputEnv;

use crate::inputs::Lane;

fn int(v: &Value) -> i64 {
    v.as_int().unwrap_or(0)
}

/// The `dashboard` builtin, built natively: two click/key counters and
/// `Mouse.x`, combined as `clicks * 1000 + (keys + x)`.
pub fn dashboard() -> SignalGraph {
    let mut g = GraphBuilder::new();
    let clicks_in = g.input("Mouse.clicks", Value::Unit);
    let keys_in = g.input("Keyboard.lastPressed", 0i64);
    let x = g.input("Mouse.x", 0i64);
    let count = |_: &Value, n: &Value| Value::Int(int(n) + 1);
    let clicks = g.foldp("clicks", count, 0i64, clicks_in);
    let keys = g.foldp("keys", count, 0i64, keys_in);
    let kx = g.lift2("k+x", |k, x| Value::Int(int(k) + int(x)), keys, x);
    let out = g.lift2(
        "board",
        |a, b| Value::Int(int(a) * 1000 + int(b)),
        clicks,
        kx,
    );
    g.finish(out).expect("the native dashboard is well-formed")
}

fn scalar1(f: Scalar1, a: i64) -> i64 {
    match f {
        Scalar1::AddK(k) => a + k,
        Scalar1::MulK(k) => a * k,
        Scalar1::Abs => a.abs(),
        Scalar1::ModK(k) => a % k,
    }
}

fn scalar2(f: Scalar2, a: i64, b: i64) -> i64 {
    match f {
        Scalar2::Add => a + b,
        Scalar2::Sub => a - b,
        Scalar2::Max => a.max(b),
        Scalar2::AddMulK(k) => a + b * k,
    }
}

fn fold(f: Fold, e: i64, n: i64) -> i64 {
    match f {
        Fold::CountUp | Fold::Hostile { .. } => n + 1,
        Fold::SumAbsMod(m) => n + e.abs() % m,
        Fold::LatestPlus(k) => e + k,
    }
}

/// A synth program built natively: the nodes reachable from `main`,
/// each input once, with Rust closures for the scalar and fold bodies.
pub fn synth(ir: &ProgramIr) -> SignalGraph {
    let env = InputEnv::standard();
    let mut live = vec![false; ir.nodes.len()];
    live[ir.main()] = true;
    for i in (0..ir.nodes.len()).rev() {
        if live[i] {
            for o in ir.nodes[i].operands() {
                live[o] = true;
            }
        }
    }
    let mut g = GraphBuilder::new();
    let mut ids: Vec<Option<NodeId>> = vec![None; ir.nodes.len()];
    let mut inputs: Vec<(usize, NodeId)> = Vec::new();
    for (i, node) in ir.nodes.iter().enumerate() {
        if !live[i] {
            continue;
        }
        let id = |j: usize| ids[j].expect("operands precede their users");
        let new = match *node {
            Node::Source(s) => match inputs.iter().find(|(src, _)| *src == s) {
                Some((_, existing)) => *existing,
                None => {
                    let name = SOURCES[s];
                    let default = env.get(name).map_or(Value::Int(0), |d| d.default.clone());
                    let n = g.input(name, default);
                    inputs.push((s, n));
                    n
                }
            },
            Node::Lift1(f, a) => g.lift1("lift", move |v| Value::Int(scalar1(f, int(v))), id(a)),
            Node::Lift2(f, a, b) => g.lift2(
                "lift2",
                move |x, y| Value::Int(scalar2(f, int(x), int(y))),
                id(a),
                id(b),
            ),
            Node::Foldp(f, init, a) => g.foldp(
                "foldp",
                move |e, n| Value::Int(fold(f, int(e), int(n))),
                init,
                id(a),
            ),
            Node::Async(a) => g.async_source(id(a)),
            Node::Merge(a, b) => g.merge(id(a), id(b)),
        };
        ids[i] = Some(new);
    }
    g.finish(ids[ir.main()].expect("main is live"))
        .expect("a native synth graph is well-formed")
}

/// The native twin of a lane's program.
pub fn for_lane(lane: &Lane) -> SignalGraph {
    match (&lane.ir, lane.builtin) {
        (Some(ir), _) => synth(ir),
        (None, Some("dashboard")) => dashboard(),
        _ => lane.graph(),
    }
}
