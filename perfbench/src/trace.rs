//! The traced run: spans at each layer boundary, and the per-layer
//! totals derived from them.
//!
//! Coarse layers (a whole `RunSpec::run`, one graph sample, one fault
//! plan, one provider sweep, the report rendering of a call) get one
//! span each.  Fine-grained layers — protocol decisions, `SimNet` sends
//! and deliveries, node handlers — are entered millions of times per
//! call, so each is recorded as one *aggregate* span per parent: the
//! interval from its first entry to its last exit, the number of
//! entries and the busy time summed over them.  Spans stay in memory
//! and are written out when the run ends.

use std::cell::Cell;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use radio_graph::{Graph, GraphProvider, NodeId, Xoshiro256pp};
use radio_sim::{FaultPlan, Json, LocalNode, Protocol};

use crate::stats::ratio;

/// One trace record.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The call the span belongs to (`None` = set-up).
    pub call: Option<u64>,
    /// Layer boundary, e.g. `exec` or `protocol.decide`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// For aggregate spans: entries and their summed busy time in ns.
    pub aggregate: Option<(u64, u64)>,
}

impl Span {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::from(self.id)),
            ("parent", Json::from(self.parent)),
            ("call", Json::from(self.call)),
            ("name", Json::from(self.name)),
            ("start_ns", Json::from(self.start_ns)),
            ("end_ns", Json::from(self.end_ns)),
        ];
        if let Some((calls, busy_ns)) = self.aggregate {
            fields.push(("calls", Json::from(calls)));
            fields.push(("busy_ns", Json::from(busy_ns)));
        }
        Json::object(fields)
    }
}

/// Per-call decision counters shared by every [`TimedProtocol`] of a
/// call (one per lane engine, or one per node of the node workload).
#[derive(Debug, Default)]
pub struct DecideStats {
    calls: Cell<u64>,
    lane_decisions: Cell<u64>,
    transmits: Cell<u64>,
    busy_ns: Cell<u64>,
    first: Cell<Option<Instant>>,
    last: Cell<Option<Instant>>,
}

impl DecideStats {
    fn add(&self, start: Instant, end: Instant, lanes: u64, transmits: u64) {
        self.calls.set(self.calls.get() + 1);
        self.lane_decisions.set(self.lane_decisions.get() + lanes);
        self.transmits.set(self.transmits.get() + transmits);
        let busy = end.saturating_duration_since(start).as_nanos() as u64;
        self.busy_ns.set(self.busy_ns.get() + busy);
        if self.first.get().is_none() {
            self.first.set(Some(start));
        }
        self.last.set(Some(end));
    }

    /// Returns and clears the counters gathered since the last take.
    pub fn take(&self) -> Decide {
        Decide {
            calls: self.calls.take(),
            lane_decisions: self.lane_decisions.take(),
            transmits: self.transmits.take(),
            busy_s: self.busy_ns.take() as f64 * 1e-9,
            first: self.first.take(),
            last: self.last.take(),
        }
    }
}

/// Decision counters of one parent span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Decide {
    /// `transmits` + `transmits_lanes` entries.
    pub calls: u64,
    /// Lane decisions asked for (one per scalar call, the lane-mask
    /// popcount per lane call).
    pub lane_decisions: u64,
    /// Lane decisions that transmitted.
    pub transmits: u64,
    /// Time inside the protocol, summed over entries.
    pub busy_s: f64,
    first: Option<Instant>,
    last: Option<Instant>,
}

/// A [`Protocol`] that times every decision of the protocol it wraps.
///
/// Both entry points forward to the inner protocol's own method, so a
/// `transmits_lanes` override (e.g. `Restartable`'s) still runs and the
/// results are bit-identical to the unwrapped protocol.
pub struct TimedProtocol<P> {
    inner: P,
    stats: Rc<DecideStats>,
}

impl<P: Protocol> TimedProtocol<P> {
    /// Wraps `inner`, counting into `stats`.
    pub fn new(inner: P, stats: Rc<DecideStats>) -> Self {
        TimedProtocol { inner, stats }
    }
}

impl<P: Protocol> Protocol for TimedProtocol<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn begin_run(&mut self, n: usize) {
        self.inner.begin_run(n);
    }

    fn transmits(&mut self, node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
        let start = Instant::now();
        let fire = self.inner.transmits(node, rng);
        self.stats.add(start, Instant::now(), 1, u64::from(fire));
        fire
    }

    fn transmits_lanes(
        &mut self,
        id: NodeId,
        round: u32,
        lanes: u64,
        informed_round: &[u32],
        rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        let start = Instant::now();
        let word = self
            .inner
            .transmits_lanes(id, round, lanes, informed_round, rngs);
        let end = Instant::now();
        self.stats.add(
            start,
            end,
            u64::from(lanes.count_ones()),
            u64::from((word & lanes).count_ones()),
        );
        word
    }
}

/// One `for_forward_edges` call seen by a [`TimedProvider`].
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// Entry time.
    pub start: Instant,
    /// Exit time.
    pub end: Instant,
    /// Forward edges the sweep visited.
    pub edges: u64,
}

/// A [`GraphProvider`] that records every row-range sweep of the
/// provider it wraps (sweeps may run on worker threads).
pub struct TimedProvider<'a> {
    inner: &'a dyn GraphProvider,
    /// Edge counts of the row ranges the engine is expected to sweep,
    /// measured before the timed calls so the hot visitor stays
    /// unwrapped; any other range is counted on the fly.
    known: Vec<(Range<NodeId>, u64)>,
    sweeps: Mutex<Vec<Sweep>>,
}

impl<'a> TimedProvider<'a> {
    /// Wraps `inner` with the pre-counted ranges `known`.
    pub fn new(inner: &'a dyn GraphProvider, known: Vec<(Range<NodeId>, u64)>) -> Self {
        TimedProvider {
            inner,
            known,
            sweeps: Mutex::new(Vec::new()),
        }
    }

    /// Returns and clears the sweeps recorded so far.
    pub fn take_sweeps(&self) -> Vec<Sweep> {
        std::mem::take(&mut *self.sweeps.lock().expect("sweep log lock poisoned"))
    }
}

impl GraphProvider for TimedProvider<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn edge_hint(&self) -> usize {
        self.inner.edge_hint()
    }

    fn for_forward_edges(&self, rows: Range<NodeId>, visit: &mut dyn FnMut(NodeId, NodeId)) {
        let known = self.known.iter().find(|(r, _)| *r == rows).map(|&(_, e)| e);
        let start = Instant::now();
        let edges = match known {
            Some(edges) => {
                self.inner.for_forward_edges(rows, visit);
                edges
            }
            None => {
                let mut edges = 0u64;
                self.inner.for_forward_edges(rows, &mut |u, v| {
                    edges += 1;
                    visit(u, v);
                });
                edges
            }
        };
        let end = Instant::now();
        self.sweeps
            .lock()
            .expect("sweep log lock poisoned")
            .push(Sweep { start, end, edges });
    }

    fn as_explicit(&self) -> Option<&Graph> {
        self.inner.as_explicit()
    }

    fn materialize(&self) -> Graph {
        self.inner.materialize()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Counts the forward edges of each range with a counting visitor; the
/// elapsed time of the whole pass gives the standalone regeneration
/// rate (no engine merge in the visitor).
pub fn count_edges(
    provider: &dyn GraphProvider,
    ranges: &[Range<NodeId>],
) -> (Vec<(Range<NodeId>, u64)>, Duration) {
    let start = Instant::now();
    let counts = ranges
        .iter()
        .map(|r| {
            let mut edges = 0u64;
            provider.for_forward_edges(r.clone(), &mut |_, _| edges += 1);
            (r.clone(), std::hint::black_box(edges))
        })
        .collect();
    (counts, start.elapsed())
}

/// Wall time covered by the union of the sweeps' intervals (shards of one
/// round overlap, so their durations must not simply be summed).
pub fn covered_s(sweeps: &[Sweep]) -> f64 {
    let mut spans: Vec<(Instant, Instant)> = sweeps.iter().map(|s| (s.start, s.end)).collect();
    spans.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Instant, Instant)> = None;
    for (start, end) in spans {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total.as_secs_f64()
}

/// Samples a graph through `f`, as a `gnp` span when tracing.
pub fn sample_graph(ctx: Option<&mut TraceCtx>, f: impl FnOnce() -> Graph) -> Graph {
    let Some(ctx) = ctx else { return f() };
    let (g, s) = ctx.span("gnp", f);
    ctx.totals.gnp_s += s;
    ctx.totals.gnp_samples += 1;
    ctx.totals.gnp_edges += g.m() as u64;
    g
}

/// Generates a fault plan through `f`, as a `fault` span when tracing.
pub fn generate_faults(ctx: Option<&mut TraceCtx>, f: impl FnOnce() -> FaultPlan) -> FaultPlan {
    let Some(ctx) = ctx else { return f() };
    let (plan, s) = ctx.span("fault", f);
    ctx.totals.fault_s += s;
    ctx.totals.fault_plans += 1;
    ctx.totals.fault_events += plan.events().len() as u64;
    plan
}

/// Per-layer sums over the traced calls.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Traced calls.
    pub calls: u64,
    /// Protocol decisions, wherever they ran.
    pub decide: Decide,
    /// Protocol busy time inside `RunSpec::run`.
    pub decide_in_exec_s: f64,
    /// Time inside `RunSpec::run`.
    pub exec_run_s: f64,
    /// Rounds summed over lanes.
    pub exec_rounds: u64,
    /// `last_delivery_round` summed over lanes.
    pub exec_useful_rounds: u64,
    /// Wall time covered by provider sweeps.
    pub provider_sweep_s: f64,
    /// Provider `for_forward_edges` calls.
    pub provider_calls: u64,
    /// Forward edges visited by those calls.
    pub provider_edge_visits: u64,
    /// Standalone regeneration rate (edges/s), when measured.
    pub provider_regen_edges_per_s: f64,
    /// Time sampling graphs (`gnp` or `connected_topology`).
    pub gnp_s: f64,
    /// Graphs sampled.
    pub gnp_samples: u64,
    /// Edges of the sampled graphs.
    pub gnp_edges: u64,
    /// Time in `FaultPlan::generate`.
    pub fault_s: f64,
    /// Plans generated.
    pub fault_plans: u64,
    /// Fault events in those plans.
    pub fault_events: u64,
    /// Time rendering reports.
    pub report_s: f64,
    /// Rendered report bytes.
    pub report_bytes: u64,
    /// Time in `SimNet::send`.
    pub net_send_s: f64,
    /// Time in `SimNet::deliver_due`.
    pub net_deliver_s: f64,
    /// Messages sent.
    pub net_sends: u64,
    /// Messages delivered.
    pub net_delivered: u64,
    /// Messages dropped.
    pub net_dropped: u64,
    /// Largest in-flight queue seen at the end of a tick.
    pub net_in_flight_max: u64,
    /// Time in `GossipNode::handle`.
    pub node_handle_s: f64,
    /// Time in `GossipNode::on_tick`.
    pub node_tick_s: f64,
    /// `handle` calls.
    pub node_handle_calls: u64,
    /// `on_tick` calls.
    pub node_tick_calls: u64,
    /// Per-value re-offers (`NodeCounters::retries`).
    pub node_value_retries: u64,
    /// Gossip messages emitted by `on_tick`.
    pub node_gossips: u64,
    /// Values carried by those gossip messages.
    pub node_gossip_values: u64,
}

/// A named, unit-carrying result.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `exec.run_s`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s` or `count`.
    pub unit: &'static str,
}

/// The per-layer metrics every workload measures; they form the
/// `per_layer` set of the machine-readable result line.  The other layer
/// metrics are printed too, but are structurally 0 on the workloads that
/// do not run their layer.
pub const EVERY_WORKLOAD: [&str; 5] = [
    "protocol.decide_s",
    "protocol.calls",
    "protocol.lane_decisions",
    "protocol.transmit_frac",
    "trace.overhead_frac",
];

impl LayerTotals {
    /// Adds one parent's decision counters (and, when `in_exec`, counts
    /// their busy time toward `exec`).
    pub fn add_decide(&mut self, d: Decide, in_exec: bool) {
        self.decide.calls += d.calls;
        self.decide.lane_decisions += d.lane_decisions;
        self.decide.transmits += d.transmits;
        self.decide.busy_s += d.busy_s;
        if in_exec {
            self.decide_in_exec_s += d.busy_s;
        }
    }

    /// Every per-layer metric, per traced call unless noted (`gnp.*` and
    /// `fault.*` are per sample/plan, which is per call except for the
    /// explicit workload's set-up graph).
    pub fn metrics(&self, overhead_frac: f64) -> Vec<Metric> {
        let c = self.calls.max(1) as f64;
        let per = |v: f64| v / c;
        let m = |name, value, unit| Metric { name, value, unit };
        let other = if self.exec_run_s > 0.0 {
            self.exec_run_s - self.decide_in_exec_s - self.provider_sweep_s
        } else {
            0.0
        };
        vec![
            m("protocol.decide_s", per(self.decide.busy_s), "s"),
            m(
                "protocol.decide_share",
                ratio(self.decide_in_exec_s, self.exec_run_s),
                "frac",
            ),
            m("protocol.calls", per(self.decide.calls as f64), "count"),
            m(
                "protocol.lane_decisions",
                per(self.decide.lane_decisions as f64),
                "count",
            ),
            m(
                "protocol.transmit_frac",
                ratio(
                    self.decide.transmits as f64,
                    self.decide.lane_decisions as f64,
                ),
                "frac",
            ),
            m("exec.run_s", per(self.exec_run_s), "s"),
            m("exec.other_s", per(other), "s"),
            m("exec.rounds", per(self.exec_rounds as f64), "rounds"),
            m(
                "exec.ns_per_lane_round",
                ratio(self.exec_run_s * 1e9, self.exec_rounds as f64),
                "ns",
            ),
            m(
                "exec.useful_round_frac",
                ratio(self.exec_useful_rounds as f64, self.exec_rounds as f64),
                "frac",
            ),
            m("provider.sweep_s", per(self.provider_sweep_s), "s"),
            m("provider.calls", per(self.provider_calls as f64), "count"),
            m(
                "provider.edge_visits",
                per(self.provider_edge_visits as f64),
                "count",
            ),
            m(
                "provider.regen_edges_per_s",
                self.provider_regen_edges_per_s,
                "1/s",
            ),
            m(
                "gnp.sample_s",
                ratio(self.gnp_s, self.gnp_samples as f64),
                "s",
            ),
            m(
                "gnp.edges",
                ratio(self.gnp_edges as f64, self.gnp_samples as f64),
                "count",
            ),
            m(
                "fault.generate_s",
                ratio(self.fault_s, self.fault_plans as f64),
                "s",
            ),
            m(
                "fault.events",
                ratio(self.fault_events as f64, self.fault_plans as f64),
                "count",
            ),
            m("report.render_s", per(self.report_s), "s"),
            m("report.bytes", per(self.report_bytes as f64), "bytes"),
            m("net.send_s", per(self.net_send_s), "s"),
            m("net.deliver_s", per(self.net_deliver_s), "s"),
            m("net.sends", per(self.net_sends as f64), "count"),
            m("net.delivered", per(self.net_delivered as f64), "count"),
            m(
                "net.drop_frac",
                ratio(self.net_dropped as f64, self.net_sends as f64),
                "frac",
            ),
            m("net.in_flight_max", self.net_in_flight_max as f64, "count"),
            m("node.handle_s", per(self.node_handle_s), "s"),
            m("node.tick_s", per(self.node_tick_s), "s"),
            m(
                "node.handle_calls",
                per(self.node_handle_calls as f64),
                "count",
            ),
            m("node.tick_calls", per(self.node_tick_calls as f64), "count"),
            m(
                "node.value_retries",
                per(self.node_value_retries as f64),
                "count",
            ),
            m(
                "node.values_per_gossip",
                ratio(self.node_gossip_values as f64, self.node_gossips as f64),
                "count",
            ),
            m("trace.overhead_frac", overhead_frac, "frac"),
        ]
    }
}

/// The tracer of one traced run plus the totals its calls feed.
pub struct TraceCtx {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
    /// Per-layer sums over the traced calls.
    pub totals: LayerTotals,
    /// Decision counters the current call's [`TimedProtocol`]s share.
    pub decide: Rc<DecideStats>,
    call: Option<u64>,
    root: Option<u64>,
}

impl Default for TraceCtx {
    fn default() -> Self {
        TraceCtx::new()
    }
}

impl TraceCtx {
    /// An empty trace whose clock starts now.
    pub fn new() -> TraceCtx {
        TraceCtx {
            origin: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
            totals: LayerTotals::default(),
            decide: Rc::new(DecideStats::default()),
            call: None,
            root: None,
        }
    }

    /// Allocates a span id (children need it before the span ends).
    pub fn open(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records span `id` under `parent` (the current call span when
    /// `None`).
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent: parent.or(self.root),
            call: self.call,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            aggregate: None,
        };
        self.spans.push(span);
    }

    /// Times `f` as span `name` under the current call; returns its result
    /// and duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.close(id, name, None, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Records an aggregate span of `calls` entries and `busy_s` summed
    /// busy time, covering `first..last`; returns its id.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        (first, last): (Instant, Instant),
        calls: u64,
        busy_s: f64,
    ) -> u64 {
        let id = self.open();
        self.spans.push(Span {
            id,
            parent: parent.or(self.root),
            call: self.call,
            name,
            start_ns: self.ns(first),
            end_ns: self.ns(last),
            aggregate: Some((calls, (busy_s * 1e9) as u64)),
        });
        id
    }

    /// Takes the shared decision counters and records them as one
    /// `protocol.decide` aggregate under `parent`.
    pub fn flush_decide(&mut self, parent: Option<u64>, in_exec: bool) {
        let d = self.decide.take();
        if let (Some(first), Some(last)) = (d.first, d.last) {
            self.aggregate("protocol.decide", parent, (first, last), d.calls, d.busy_s);
        }
        self.totals.add_decide(d, in_exec);
    }

    /// Starts call `index`: later spans are its children.
    pub fn begin_call(&mut self, index: u64) -> Instant {
        self.call = Some(index);
        self.root = Some(self.open());
        Instant::now()
    }

    /// Ends the current call, recording its root span.
    pub fn end_call(&mut self, start: Instant) {
        let end = Instant::now();
        if let Some(root) = self.root.take() {
            let span = Span {
                id: root,
                parent: None,
                call: self.call,
                name: "call",
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                aggregate: None,
            };
            self.spans.push(span);
        }
        self.call = None;
        self.totals.calls += 1;
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            writeln!(out, "{}", span.to_json().render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_merges_overlaps() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let sweep = |a, b| Sweep {
            start: at(a),
            end: at(b),
            edges: 0,
        };
        let sweeps = [sweep(0, 10), sweep(5, 12), sweep(20, 25)];
        assert!((covered_s(&sweeps) - 0.017).abs() < 1e-9);
        assert_eq!(covered_s(&[]), 0.0);
    }

    #[test]
    fn other_time_is_what_decide_and_sweep_leave() {
        let totals = LayerTotals {
            calls: 2,
            decide_in_exec_s: 3.0,
            exec_run_s: 10.0,
            provider_sweep_s: 4.0,
            ..LayerTotals::default()
        };
        let metrics = totals.metrics(0.0);
        let get = |name| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("exec.run_s"), 5.0);
        assert_eq!(get("exec.other_s"), 1.5);
        for name in EVERY_WORKLOAD {
            assert!(metrics.iter().any(|m| m.name == name), "{name}");
        }
    }
}
