//! Tracing from outside the program: spans kept in memory, self times
//! per layer, and the timing adapters the traced replay runs through.
//!
//! Every span is recorded by the benchmark around a public call into one
//! layer. A span's self time is its duration minus its children's; a span
//! may also carry *splits*, parts of its self time measured by counters
//! (per-arrival time inside one drain span) or attributed from a shadow
//! call (what a serve verb spent in dispatch or the store). Summing self
//! times over a root's tree gives exactly the root's duration, so the
//! layer table always accounts for the traced wall time; what no layer
//! claims is reported as `other`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use osp_core::source::ArrivalSource;
use osp_core::spec::{AlgorithmSpec, CoreResolver, ScenarioSpec, SpecResolver};
use osp_core::{Arrival, EngineView, Error, OnlineAlgorithm, SetId, SetMeta};

/// The layers of the replay path, in report order. `other` is what the
/// benchmark itself spends between calls.
pub const LAYERS: [&str; 9] = [
    "spec",
    "gen",
    "algorithms",
    "engine",
    "wire",
    "dispatch",
    "serve",
    "store",
    "other",
];

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    /// Parts of this span's self time credited to other layers.
    pub splits: Vec<(&'static str, Duration)>,
}

/// All spans of one run, in memory until the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            start,
            end,
            parent,
            splits: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Opens a span at `start`; close it with [`Spans::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
    ) -> usize {
        let now = Instant::now();
        self.record(name, layer, now, now, parent)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    pub fn split(&mut self, id: usize, layer: &'static str, time: Duration) {
        self.spans[id].splits.push((layer, time));
    }

    pub fn duration(&self, id: usize) -> Duration {
        self.spans[id]
            .end
            .saturating_duration_since(self.spans[id].start)
    }

    /// Self time per layer over the tree under `root`. Splits larger than
    /// a span's self time are scaled down to fit; the second value counts
    /// the spans where that happened.
    pub fn self_times(&self, root: usize) -> (BTreeMap<&'static str, f64>, u64) {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        let mut in_tree = vec![false; self.spans.len()];
        in_tree[root] = true;
        // Parents are always recorded before their children.
        for (id, span) in self.spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = span.parent {
                if in_tree[p] {
                    in_tree[id] = true;
                    children[p] += self.duration(id);
                }
            }
        }
        let mut layers: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        let mut clamped = 0;
        for (id, span) in self.spans.iter().enumerate() {
            if !in_tree[id] {
                continue;
            }
            let own = self.duration(id).saturating_sub(children[id]).as_secs_f64();
            let claimed: f64 = span.splits.iter().map(|(_, d)| d.as_secs_f64()).sum();
            let scale = if claimed > own && claimed > 0.0 {
                clamped += 1;
                own / claimed
            } else {
                1.0
            };
            for (layer, d) in &span.splits {
                *layers.entry(layer).or_default() += d.as_secs_f64() * scale;
            }
            *layers.entry(span.layer).or_default() += own - claimed * scale;
        }
        (layers, clamped)
    }

    /// The spans as a JSON array: name, layer, start and end in seconds
    /// from the start of the run, parent index, splits.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let splits: Vec<String> = span
                .splits
                .iter()
                .map(|(l, d)| format!("[\"{l}\",{}]", d.as_secs_f64()))
                .collect();
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"splits\":[{}]}}",
                span.name,
                span.layer,
                at(span.start),
                at(span.end),
                splits.join(",")
            );
        }
        out.push(']');
        out
    }
}

/// Counters and timestamps of one traced replay, shared by the timing
/// adapters. Per-arrival time is summed here instead of recorded as one
/// span per arrival.
#[derive(Default)]
pub struct Probe {
    pub scenario: Cell<Option<(Instant, Instant)>>,
    pub algorithm: Cell<Option<(Instant, Instant)>>,
    pub begin: Cell<Option<(Instant, Instant)>>,
    /// First pull started / last pull (the one answering `None`) ended.
    pub drain_start: Cell<Option<Instant>>,
    pub drain_end: Cell<Option<Instant>>,
    last_return: Cell<Option<Instant>>,
    pub gen_ns: Cell<u64>,
    /// Time between a pull returning and the next pull starting.
    pub gap_ns: Cell<u64>,
    pub decide_ns: Cell<u64>,
    pub arrivals: Cell<u64>,
    pub members: Cell<u64>,
    pub chosen: Cell<u64>,
    /// Declared sets and the sum of their sizes.
    pub sets: Cell<u64>,
    pub set_size_sum: Cell<u64>,
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

impl Probe {
    pub fn reset(&self) {
        self.scenario.set(None);
        self.algorithm.set(None);
        self.begin.set(None);
        self.drain_start.set(None);
        self.drain_end.set(None);
        self.last_return.set(None);
        for c in [
            &self.gen_ns,
            &self.gap_ns,
            &self.decide_ns,
            &self.arrivals,
            &self.members,
            &self.chosen,
            &self.sets,
            &self.set_size_sum,
        ] {
            c.set(0);
        }
    }
}

/// A [`SpecResolver`] that builds through [`CoreResolver`] and wraps the
/// source and the algorithm in timing adapters; `run_spec` runs over it
/// unchanged.
pub struct TracedResolver {
    pub probe: Rc<Probe>,
}

impl SpecResolver for TracedResolver {
    fn algorithm(
        &self,
        spec: &AlgorithmSpec,
        seed: u64,
    ) -> Result<Box<dyn OnlineAlgorithm>, Error> {
        let start = Instant::now();
        let inner = CoreResolver.algorithm(spec, seed)?;
        self.probe.algorithm.set(Some((start, Instant::now())));
        Ok(Box::new(TimedAlgorithm {
            inner,
            probe: Rc::clone(&self.probe),
        }))
    }

    fn scenario(&self, spec: &ScenarioSpec, seed: u64) -> Result<Box<dyn ArrivalSource>, Error> {
        let start = Instant::now();
        let inner = CoreResolver.scenario(spec, seed)?;
        self.probe.scenario.set(Some((start, Instant::now())));
        self.probe.sets.set(inner.sets().len() as u64);
        self.probe
            .set_size_sum
            .set(inner.sets().iter().map(|s| u64::from(s.size())).sum());
        Ok(Box::new(TimedSource {
            inner,
            probe: Rc::clone(&self.probe),
        }))
    }
}

struct TimedSource {
    inner: Box<dyn ArrivalSource>,
    probe: Rc<Probe>,
}

impl ArrivalSource for TimedSource {
    fn sets(&self) -> &[SetMeta] {
        self.inner.sets()
    }

    fn next_arrival(&mut self) -> Option<Arrival<'_>> {
        let probe = &self.probe;
        let start = Instant::now();
        match probe.last_return.get() {
            Some(prev) => add(&probe.gap_ns, nanos(start - prev)),
            None => probe.drain_start.set(Some(start)),
        }
        let arrival = self.inner.next_arrival();
        let end = Instant::now();
        add(&probe.gen_ns, nanos(end - start));
        probe.last_return.set(Some(end));
        match &arrival {
            Some(a) => {
                add(&probe.arrivals, 1);
                add(&probe.members, a.members().len() as u64);
            }
            None => probe.drain_end.set(Some(end)),
        }
        arrival
    }

    fn remaining_hint(&self) -> Option<usize> {
        self.inner.remaining_hint()
    }
}

struct TimedAlgorithm {
    inner: Box<dyn OnlineAlgorithm>,
    probe: Rc<Probe>,
}

impl OnlineAlgorithm for TimedAlgorithm {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn begin(&mut self, sets: &[SetMeta]) {
        let start = Instant::now();
        self.inner.begin(sets);
        self.probe.begin.set(Some((start, Instant::now())));
    }

    fn decide_into(&mut self, arrival: &Arrival<'_>, view: &EngineView<'_>, out: &mut Vec<SetId>) {
        let start = Instant::now();
        self.inner.decide_into(arrival, view, out);
        add(&self.probe.decide_ns, nanos(start.elapsed()));
        add(&self.probe.chosen, out.len() as u64);
    }

    fn set_decision_threads(&mut self, threads: usize) {
        self.inner.set_decision_threads(threads);
    }
}
