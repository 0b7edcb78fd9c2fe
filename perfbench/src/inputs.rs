//! Seeded workload inputs and the synchronous replay that checks the
//! server's answers.
//!
//! Every input the server sees is generated here from the run's seed:
//! `dashboard` event traces from `Simulator::workload`, distinct
//! `elm-synth` programs with traces over the inputs they read, and a
//! pool of ad-hoc sources for session churn. The replay runs each
//! program on the governed synchronous engine — the engine and budget a
//! server session uses — one event at a time, run to quiescence, so its
//! output stream is exactly the `update` stream a subscriber must see.

use elm_environment::Simulator;
use elm_runtime::{EventLimits, NodeKind, PlainValue, SignalGraph, Value};
use elm_server::{ProgramSpec, Registry};
use elm_signals::{Engine, Program, Running};
use elm_synth::gen::{GenConfig, Generator, ProgramIr};

/// One program plus the event stream a workload feeds it.
#[derive(Clone, Debug)]
pub struct Lane {
    /// Registry builtin name, or `None` for ad-hoc source.
    pub builtin: Option<&'static str>,
    /// The FElm source (the builtin's own source for builtins).
    pub source: String,
    /// The synth IR the source was rendered from, when synthesized.
    pub ir: Option<ProgramIr>,
    /// Events in delivery order.
    pub events: Vec<(String, PlainValue)>,
}

impl Lane {
    /// The compiled graph, through the server's own registry.
    ///
    /// # Panics
    ///
    /// Panics if a generated program fails to compile — a generator bug.
    pub fn graph(&self) -> SignalGraph {
        Registry::standard()
            .resolve(self.spec())
            .map(|(_, g)| g)
            .expect("generated programs compile")
    }

    /// The program, as the server's `open` takes it.
    pub fn spec(&self) -> ProgramSpec<'_> {
        match self.builtin {
            Some(name) => ProgramSpec::Builtin(name),
            None => ProgramSpec::Source(&self.source),
        }
    }

    /// The wire `open` request for this program.
    pub fn open_line(&self, observe: bool) -> String {
        match self.builtin {
            Some(name) => crate::wire::open_builtin(name, observe),
            None => crate::wire::open_source(&self.source),
        }
    }
}

/// The FElm source of a registry builtin.
pub fn builtin_source(name: &str) -> String {
    Registry::standard()
        .resolve_with_source(ProgramSpec::Builtin(name))
        .ok()
        .and_then(|(_, _, src)| src)
        .unwrap_or_default()
}

/// Input names a graph declares, in node order.
pub fn graph_inputs(graph: &SignalGraph) -> Vec<String> {
    graph
        .nodes()
        .iter()
        .filter_map(|n| match &n.kind {
            NodeKind::Input { name } => Some(name.clone()),
            _ => None,
        })
        .collect()
}

/// `sessions` `dashboard` lanes, session `i` fed `Simulator::workload`
/// seeded `seed * 1000 + i`.
pub fn dashboard_lanes(seed: u64, sessions: usize, events: usize) -> Vec<Lane> {
    let source = builtin_source("dashboard");
    (0..sessions)
        .map(|i| Lane {
            builtin: Some("dashboard"),
            source: source.clone(),
            ir: None,
            events: Simulator::workload(seed.wrapping_mul(1000).wrapping_add(i as u64), events)
                .events
                .into_iter()
                .map(|e| (e.input, e.value))
                .collect(),
        })
        .collect()
}

/// A synth program generator with the benchmark's shape settings: no
/// hostile folds, and `async` nodes at the generator's default density
/// unless `with_async` is false.
pub fn synth(max_interior: usize, with_async: bool) -> Generator {
    let defaults = GenConfig::default();
    Generator::new(GenConfig {
        max_interior,
        hostile: 0.0,
        async_density: if with_async {
            defaults.async_density
        } else {
            0.0
        },
        ..defaults
    })
}

/// Events over exactly the inputs `graph` declares: every event is
/// applied, none ignored. Values stay in `[-1000, 1000]`, like the
/// synth generator's own traces.
pub fn events_for(graph: &SignalGraph, seed: u64, n: usize) -> Vec<(String, PlainValue)> {
    let inputs = graph_inputs(graph);
    let mut rng = SplitMix(seed ^ 0x5eed_1a7e);
    (0..n)
        .map(|_| {
            let input = inputs[(rng.next_u64() % inputs.len() as u64) as usize].clone();
            let value = (rng.next_u64() % 2001) as i64 - 1000;
            (input, PlainValue::Int(value))
        })
        .collect()
}

/// `count` distinct `async`-free synth programs (`max_interior` interior
/// nodes at most) whose compiled graphs have a node count in `nodes`, each with
/// `events` events over the inputs it reads. Holding the graph size in a
/// band keeps a handful of programs' total cost from swinging with the
/// seed.
pub fn synth_lanes(
    seed: u64,
    count: usize,
    max_interior: usize,
    nodes: std::ops::RangeInclusive<usize>,
    events: usize,
) -> Vec<Lane> {
    let generator = synth(max_interior, false);
    let mut lanes: Vec<Lane> = Vec::with_capacity(count);
    let mut k = 0u64;
    while lanes.len() < count {
        let ir = generator.program(seed.wrapping_mul(7919).wrapping_add(k));
        k += 1;
        let source = ir.render();
        if lanes.iter().any(|l| l.source == source) {
            continue;
        }
        let mut lane = Lane {
            builtin: None,
            source,
            ir: Some(ir),
            events: Vec::new(),
        };
        let graph = lane.graph();
        if !nodes.contains(&graph.nodes().len()) {
            continue;
        }
        lane.events = events_for(&graph, seed.wrapping_add(k), events);
        lanes.push(lane);
    }
    lanes
}

/// A tiny deterministic generator for values (the synth crate's own RNG
/// is seeded per program; this one is seeded per run).
#[derive(Clone, Copy, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// One event's effect under replay.
#[derive(Clone, Debug, PartialEq)]
pub struct Step {
    /// False when the session ignores the event (undeclared input).
    pub applied: bool,
    /// Output changes the event produced, as `(update seq, value)`.
    pub updates: Vec<(u64, PlainValue)>,
}

/// A program on the governed synchronous engine, fed the way a server
/// session feeds it.
pub struct Replay {
    graph: SignalGraph,
    running: Running<Value>,
    seq: u64,
    applied: u64,
}

impl Replay {
    /// Starts `graph` under the server's default per-event budget.
    pub fn new(graph: SignalGraph) -> Replay {
        let mut running = Program::from_dynamic_graph(graph.clone()).start(Engine::Synchronous);
        running.set_governor(Some(EventLimits::default()), None);
        Replay {
            graph,
            running,
            seq: 0,
            applied: 0,
        }
    }

    /// Feeds one event and runs the graph to quiescence.
    ///
    /// # Panics
    ///
    /// Panics if the engine fails on a declared input — generated inputs
    /// never do that.
    pub fn step(&mut self, input: &str, value: &PlainValue) -> Step {
        if self.graph.input_named(input).is_none() {
            return Step {
                applied: false,
                updates: Vec::new(),
            };
        }
        self.applied += 1;
        let outs = self
            .running
            .send_named(input, value.to_value())
            .and_then(|()| self.running.drain_raw())
            .expect("replayed events are valid");
        let mut updates = Vec::new();
        for ev in &outs {
            if let Some(v) = ev.value() {
                self.seq += 1;
                if let Some(pv) = PlainValue::from_value(v) {
                    updates.push((self.seq, pv));
                }
            }
        }
        Step {
            applied: true,
            updates,
        }
    }

    /// The current output value.
    pub fn current(&self) -> PlainValue {
        PlainValue::from_value(self.running.current())
            .unwrap_or_else(|| PlainValue::Str("<opaque>".to_string()))
    }

    /// Events applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }
}
