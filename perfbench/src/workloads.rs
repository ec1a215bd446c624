//! The four workloads: their inputs, one timed call, and the gates that
//! check each call's results outside the timed region.
//!
//! Every input derives from the benchmark seed: the program only ever
//! receives generated graphs, configs and master seeds.  An op is one
//! protocol trial (lane) on the lane workloads and one client broadcast on
//! the node workload.

use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use radio_broadcast::distributed::{EgDistributed, Restartable};
use radio_graph::gnp::sample_gnp;
use radio_graph::{
    child_rng, derive_seed, labeled_seed, shard_ranges, Graph, GraphProvider, ImplicitGnp, NodeId,
    Xoshiro256pp,
};
use radio_node::{run_workload, NodeReport, Partition, WorkloadConfig};
use radio_sim::{
    parse_radio_threads, FaultConfig, FaultPlan, Json, Plan, Protocol, RunConfig, RunReport,
    RunResult, RunSpec,
};

use crate::node_trace::{report_mismatches, traced_trial};
use crate::stats::mean;
use crate::trace::{
    count_edges, covered_s, generate_faults, sample_graph, Metric, TimedProtocol, TimedProvider,
    TraceCtx,
};

/// The broadcast source of every lane workload.
const SOURCE: NodeId = 0;

/// Worker threads of the tiled engine and shards of the implicit sweep:
/// `RADIO_THREADS` when set, otherwise one.  On the shared two-core host
/// the benchmark was sized on, a second worker made the explicit workload
/// slower on average and its runs five times noisier.
///
/// # Errors
///
/// When `RADIO_THREADS` is not a positive integer.
pub fn workers() -> Result<usize, String> {
    let raw = std::env::var("RADIO_THREADS").ok();
    Ok(parse_radio_threads(raw.as_deref())?.unwrap_or(1))
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// EG on 1024 lanes of one explicit G(8192, d = 81) (tiled engine).
    Explicit,
    /// `restartable:eg` on 64 lanes of a fresh faulty G(1024, d = 20) per
    /// call, loss 0.1 (batch engine).
    Faulty,
    /// EG on 64 lanes of a fresh implicit G(10⁵, 2.5 ln n / n) per call
    /// input (lane sweep).
    Implicit,
    /// One partitioned, crashy `radio_node::run_workload` trial per call.
    Node,
}

/// Input sizes: the benchmark's own (`Full`) or the test suite's (`Tiny`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workload names state.
    Full,
    /// Seconds-long sizes with the same shape, for the benchmark's tests.
    Tiny,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Explicit,
        Workload::Faulty,
        Workload::Implicit,
        Workload::Node,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explicit => "explicit-8k-1024lanes",
            Workload::Faulty => "faulty-1k-64lanes",
            Workload::Implicit => "implicit-100k-64lanes",
            Workload::Node => "node-4k-partition",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct call inputs of a run.  Calls cycle through the call
    /// indices `0..distinct_calls`, so every input is timed several times
    /// in a run, and every untraced run makes at least this many calls:
    /// the seed-exact metrics, taken over these inputs, depend on the seed
    /// only, never on how many calls fit in the run.
    pub fn distinct_calls(self) -> usize {
        match self {
            Workload::Explicit | Workload::Implicit => 6,
            Workload::Faulty => 16,
            Workload::Node => 32,
        }
    }

    /// Set-ups per timed set-up round: sub-millisecond set-ups are timed
    /// over many back-to-back repetitions so the timer's granularity does
    /// not dominate.
    pub fn setup_reps(self) -> u32 {
        match self {
            Workload::Explicit => 1,
            _ => 1000,
        }
    }
}

/// The outcome of checking one call.
#[derive(Debug, Clone, Default)]
pub struct Gate {
    /// Ops that failed a check.
    pub failed_ops: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

/// Seed-exact digest of one lane: everything the metrics and the
/// traced-versus-untraced comparison read.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneDigest {
    /// Every node informed within the budget.
    pub completed: bool,
    /// Rounds run.
    pub rounds: u32,
    /// Nodes informed.
    pub informed: usize,
    /// Last round a node was newly informed.
    pub last_delivery_round: u32,
    /// Transmissions over the run.
    pub transmissions: usize,
    /// Collisions over the run.
    pub collisions: usize,
    /// Live, reachable nodes left uninformed (faulty runs).
    pub residual: Option<usize>,
    /// Median delivery round of the finally informed nodes.
    pub delivery_p50: f64,
    /// 99th-percentile delivery round of the finally informed nodes.
    pub delivery_p99: f64,
}

impl LaneDigest {
    fn of(r: &RunResult) -> LaneDigest {
        LaneDigest {
            completed: r.completed,
            rounds: r.rounds,
            informed: r.informed,
            last_delivery_round: r.last_delivery_round,
            transmissions: r.total_transmissions(),
            collisions: r.total_collisions(),
            residual: r.faults.map(|f| f.residual_uninformed),
            delivery_p50: delivery_round(r, 0.5),
            delivery_p99: delivery_round(r, 0.99),
        }
    }
}

/// The `q`-quantile of the rounds at which the nodes the lane informed in
/// the end received the message, linearly interpolated within the round
/// (so the value moves smoothly between graphs instead of jumping by
/// whole rounds).
fn delivery_round(r: &RunResult, q: f64) -> f64 {
    let target = q * r.informed as f64;
    let mut before =
        r.trace
            .first()
            .map_or(r.informed, |rec| rec.informed_after - rec.newly_informed) as f64;
    if target <= before {
        return 0.0;
    }
    for rec in &r.trace {
        let after = rec.informed_after as f64;
        if after >= target {
            return f64::from(rec.round - 1) + (target - before) / (after - before);
        }
        before = after;
    }
    f64::from(r.rounds)
}

/// The fields a lane must share with its scalar re-run.
fn scalar_fields(r: &RunResult) -> [usize; 5] {
    [
        r.rounds as usize,
        r.informed,
        r.last_delivery_round as usize,
        r.total_transmissions(),
        r.total_collisions(),
    ]
}

/// Seed-exact digest of one call.
#[derive(Debug, Clone)]
pub enum Digest {
    /// Lane workloads: one digest per lane.
    Lanes(Vec<LaneDigest>),
    /// The node workload: the report without its wall-clock field.
    Node(NodeReport),
}

impl Digest {
    /// Differences between two digests of the same call (empty = equal).
    pub fn mismatches(&self, want: &Digest) -> Vec<String> {
        match (self, want) {
            (Digest::Lanes(a), Digest::Lanes(b)) if a.len() == b.len() => a
                .iter()
                .zip(b)
                .enumerate()
                .filter(|(_, (x, y))| x != y)
                .map(|(l, (x, y))| format!("lane {l}: {x:?} vs {y:?}"))
                .collect(),
            (Digest::Node(a), Digest::Node(b)) => report_mismatches(a, b),
            _ => vec!["digests of different shapes".to_string()],
        }
    }
}

/// The seed-exact end-to-end metrics over `digests`.
pub fn sim_metrics(digests: &[Digest]) -> Vec<Metric> {
    let lanes = || {
        digests.iter().flat_map(|d| match d {
            Digest::Lanes(v) => v.as_slice(),
            Digest::Node(_) => &[],
        })
    };
    let nodes = || {
        digests.iter().filter_map(|d| match d {
            Digest::Node(r) => Some(r),
            Digest::Lanes(_) => None,
        })
    };
    let is_node = matches!(digests.first(), Some(Digest::Node(_)));
    let pick = |lane: fn(&LaneDigest) -> f64, node: fn(&NodeReport) -> f64| {
        if is_node {
            mean(nodes().map(node))
        } else {
            mean(lanes().map(lane))
        }
    };
    vec![
        Metric {
            name: "rounds_mean",
            value: pick(
                |l| f64::from(l.last_delivery_round),
                |r| r.stale_window_max as f64,
            ),
            unit: "rounds",
        },
        Metric {
            name: "msgs_per_op",
            value: pick(|l| l.transmissions as f64, |r| r.msgs_per_op),
            unit: "msgs",
        },
        Metric {
            name: "delivery_ticks_p50",
            value: pick(|l| l.delivery_p50, |r| r.delivery_p50 as f64),
            unit: "ticks",
        },
        Metric {
            name: "delivery_ticks_p99",
            value: pick(|l| l.delivery_p99, |r| r.delivery_p99 as f64),
            unit: "ticks",
        },
    ]
}

/// Inputs of a lane workload (explicit, faulty or implicit).
pub struct LaneInputs {
    faulty: bool,
    n: usize,
    p: f64,
    lanes: usize,
    /// The explicit workload's graph, sampled once at set-up.
    graph: Option<Graph>,
    /// The implicit workload's graph template: call `i` runs on
    /// [`LaneInputs::implicit_graph`]`(i)`.
    implicit: Option<ImplicitGnp>,
    /// Tiled-engine workers, and implicit-sweep shards.
    workers: usize,
    faults: FaultConfig,
    cfg: RunConfig,
    algorithm: String,
    /// Per-call seeds derive from this.
    base: u64,
    gate_lanes: usize,
    /// Pre-counted provider ranges per call index (traced implicit runs).
    known: Vec<Vec<(Range<NodeId>, u64)>>,
}

/// One lane-workload call's results.
pub struct LanesCall {
    /// Call index.
    pub index: u64,
    /// Master seed of the call's lanes.
    pub master: u64,
    /// The call's own graph and fault plan (faulty workload).
    pub graph: Option<(Graph, FaultPlan)>,
    /// The call's own implicit graph (implicit workload).
    pub implicit: Option<ImplicitGnp>,
    /// The planner's decision.
    pub plan: Plan,
    /// Per-lane results.
    pub lanes: Vec<RunResult>,
    /// Each lane's rendered `RunReport`.
    pub reports: Vec<String>,
}

impl LaneInputs {
    fn protocol(&self) -> Box<dyn Protocol> {
        let eg = EgDistributed::new(self.p);
        if self.faulty {
            Box::new(Restartable::auto(eg))
        } else {
            Box::new(eg)
        }
    }

    /// Call `index`'s implicit graph: a fresh G(n, p) per call input, so
    /// the seed-exact metrics average over several graphs.  Building one
    /// is a few arithmetic operations; the edges are regenerated per sweep.
    fn implicit_graph(&self, index: u64) -> Option<ImplicitGnp> {
        self.implicit
            .map(|imp| ImplicitGnp::new(imp.n(), imp.p(), derive_seed(imp.seed(), index)))
    }

    fn spec<'a>(
        &'a self,
        graph: Option<&'a (Graph, FaultPlan)>,
        implicit: Option<&'a ImplicitGnp>,
        provider: Option<&'a dyn GraphProvider>,
    ) -> RunSpec<'a> {
        let spec = match (provider, implicit) {
            (Some(p), _) => RunSpec::on_provider(p, self.workers, SOURCE),
            (None, Some(imp)) => RunSpec::on_provider(imp, self.workers, SOURCE),
            (None, None) => {
                let g = graph
                    .map(|(g, _)| g)
                    .or(self.graph.as_ref())
                    .expect("explicit workloads carry a graph");
                RunSpec::on_graph(g, SOURCE)
            }
        };
        let spec = spec.with_config(self.cfg).with_threads(self.workers);
        match graph {
            Some((_, plan)) => spec.with_faults(plan),
            None => spec,
        }
    }

    fn report(&self, r: &RunResult) -> RunReport {
        RunReport::from_result(&self.algorithm, r)
    }

    fn call(&self, index: u64, mut ctx: Option<&mut TraceCtx>) -> LanesCall {
        let master = derive_seed(self.base, index);
        let graph = self.faulty.then(|| {
            let mut rng = Xoshiro256pp::new(derive_seed(labeled_seed(self.base, "graph"), index));
            let g = sample_graph(ctx.as_deref_mut(), || sample_gnp(self.n, self.p, &mut rng));
            let fault_seed = derive_seed(labeled_seed(self.base, "faults"), index);
            let plan = generate_faults(ctx.as_deref_mut(), || {
                FaultPlan::generate(&g, &self.faults, fault_seed)
            });
            (g, plan)
        });
        let implicit = self.implicit_graph(index);
        let outcome = match ctx.as_deref_mut() {
            None => self
                .spec(graph.as_ref(), implicit.as_ref(), None)
                .with_lanes(self.lanes)
                .with_master_seed(master)
                .run(&mut *self.protocol()),
            Some(c) => {
                let timed = implicit.as_ref().map(|imp| {
                    let known = self.known.get(index as usize).cloned();
                    TimedProvider::new(imp, known.unwrap_or_default())
                });
                let spec = self
                    .spec(
                        graph.as_ref(),
                        implicit.as_ref(),
                        timed.as_ref().map(|t| t as &dyn GraphProvider),
                    )
                    .with_lanes(self.lanes)
                    .with_master_seed(master);
                let mut proto = TimedProtocol::new(self.protocol(), c.decide.clone());
                let id = c.open();
                let start = Instant::now();
                let outcome = spec.run(&mut proto);
                let end = Instant::now();
                c.close(id, "exec", None, start, end);
                c.flush_decide(Some(id), true);
                let t = &mut c.totals;
                t.exec_run_s += (end - start).as_secs_f64();
                t.exec_rounds += outcome
                    .lanes
                    .iter()
                    .map(|r| u64::from(r.rounds))
                    .sum::<u64>();
                t.exec_useful_rounds += outcome
                    .lanes
                    .iter()
                    .map(|r| u64::from(r.last_delivery_round))
                    .sum::<u64>();
                if let Some(timed) = &timed {
                    let sweeps = timed.take_sweeps();
                    c.totals.provider_sweep_s += covered_s(&sweeps);
                    c.totals.provider_calls += sweeps.len() as u64;
                    c.totals.provider_edge_visits += sweeps.iter().map(|s| s.edges).sum::<u64>();
                    for s in &sweeps {
                        let sid = c.open();
                        c.close(sid, "provider.sweep", Some(id), s.start, s.end);
                    }
                }
                outcome
            }
        };
        let render = || -> Vec<String> {
            outcome
                .lanes
                .iter()
                .map(|r| self.report(r).to_json().render())
                .collect()
        };
        let reports = match ctx {
            None => render(),
            Some(c) => {
                let (reports, s) = c.span("report", render);
                c.totals.report_s += s;
                c.totals.report_bytes += reports.iter().map(|r| r.len() as u64).sum::<u64>();
                reports
            }
        };
        LanesCall {
            index,
            master,
            graph,
            implicit,
            plan: outcome.plan,
            lanes: outcome.lanes,
            reports,
        }
    }

    /// The lanes the gate re-runs on the scalar plan for call `index`.
    pub fn sampled_lanes(&self, index: u64) -> Vec<usize> {
        let mut rng = Xoshiro256pp::new(derive_seed(labeled_seed(self.base, "gate"), index));
        (0..self.gate_lanes)
            .map(|_| rng.below(self.lanes as u64) as usize)
            .collect()
    }

    /// Lane `lane` of `call`, re-run alone on the scalar plan (round
    /// engine, or the scalar sweep on the implicit graph).
    fn scalar_lane(&self, call: &LanesCall, lane: usize) -> RunResult {
        let mut rng = child_rng(call.master, lane as u64);
        self.spec(call.graph.as_ref(), call.implicit.as_ref(), None)
            .run_with_rng(&mut *self.protocol(), &mut rng)
            .into_single()
    }

    /// Checks every lane of `call`: it finished, its rendered report
    /// parses back to the report of its result, and the sampled lanes
    /// equal their scalar re-runs.
    pub fn gate(&self, call: &LanesCall) -> Gate {
        if call.lanes.len() != self.lanes || call.reports.len() != self.lanes {
            return Gate {
                failed_ops: self.lanes as u64,
                problems: vec![format!(
                    "call {}: {} lanes and {} reports, want {}",
                    call.index,
                    call.lanes.len(),
                    call.reports.len(),
                    self.lanes
                )],
            };
        }
        let mut bad = vec![false; self.lanes];
        let mut problems = Vec::new();
        let mut fail = |l: usize, what: String| {
            bad[l] = true;
            problems.push(format!("call {} lane {l}: {what}", call.index));
        };
        for (l, (r, text)) in call.lanes.iter().zip(&call.reports).enumerate() {
            let finished = if self.faulty {
                r.faults.is_some_and(|f| f.residual_uninformed == 0)
            } else {
                r.completed
            };
            if !finished {
                fail(l, format!("did not finish ({:?})", LaneDigest::of(r)));
            }
            let parsed = Json::parse(text)
                .map_err(|e| e.to_string())
                .and_then(|j| RunReport::from_json(&j));
            match parsed {
                Ok(got) if got == self.report(r) => {}
                Ok(got) => fail(l, format!("rendered report differs: {got:?}")),
                Err(e) => fail(l, format!("rendered report does not parse: {e}")),
            }
        }
        for l in self.sampled_lanes(call.index) {
            let (got, want) = (
                scalar_fields(&call.lanes[l]),
                scalar_fields(&self.scalar_lane(call, l)),
            );
            if got != want {
                fail(
                    l,
                    format!(
                        "[rounds, informed, last_delivery_round, transmissions, collisions] \
                         {got:?}, scalar plan {want:?}"
                    ),
                );
            }
        }
        Gate {
            failed_ops: bad.iter().filter(|&&b| b).count() as u64,
            problems,
        }
    }
}

/// Inputs of the node workload.
pub struct NodeInputs {
    cfg: WorkloadConfig,
    base: u64,
}

/// One node-workload call's results.
pub struct NodeCall {
    /// Call index.
    pub index: u64,
    /// The report of the call's trial.
    pub report: NodeReport,
}

impl NodeInputs {
    fn config(&self, index: u64) -> WorkloadConfig {
        WorkloadConfig {
            seed: derive_seed(self.base, index),
            ..self.cfg.clone()
        }
    }

    fn call(&self, index: u64, ctx: Option<&mut TraceCtx>) -> NodeCall {
        let cfg = self.config(index);
        let report = match ctx {
            None => run_workload(&cfg),
            Some(c) => traced_trial(&cfg, c),
        };
        NodeCall { index, report }
    }

    /// Checks that the trial covered every eligible node and converged.
    pub fn gate(&self, call: &NodeCall) -> Gate {
        let r = &call.report;
        if r.coverage == 1.0 && r.converged_trials == 1 {
            return Gate::default();
        }
        Gate {
            failed_ops: self.cfg.ops as u64,
            problems: vec![format!(
                "call {}: coverage {} with {} converged trials",
                call.index, r.coverage, r.converged_trials
            )],
        }
    }
}

/// A workload's inputs after set-up.
pub enum Inputs {
    /// Explicit, faulty or implicit.
    Lanes(LaneInputs),
    /// The node service.
    Node(NodeInputs),
}

/// One call's results.
pub enum CallOut {
    /// From a lane workload.
    Lanes(LanesCall),
    /// From the node workload.
    Node(NodeCall),
}

impl CallOut {
    /// The call's seed-exact digest.
    pub fn digest(&self) -> Digest {
        match self {
            CallOut::Lanes(c) => Digest::Lanes(c.lanes.iter().map(LaneDigest::of).collect()),
            CallOut::Node(c) => Digest::Node(c.report.clone().strip_timing()),
        }
    }

    /// The planner's decision, for the run's description.
    pub fn plan(&self) -> Option<&Plan> {
        match self {
            CallOut::Lanes(c) => Some(&c.plan),
            CallOut::Node(_) => None,
        }
    }
}

impl Inputs {
    /// Builds the inputs every call of `workload` shares.  Only the
    /// explicit workload samples a graph here; the others build configs
    /// and descriptions, and their graphs come per call.
    pub fn setup(
        workload: Workload,
        scale: Scale,
        seed: u64,
        ctx: Option<&mut TraceCtx>,
    ) -> Inputs {
        let tiny = scale == Scale::Tiny;
        let lane_inputs = |n: usize, p: f64, lanes: usize, gate_lanes: usize| LaneInputs {
            faulty: false,
            n,
            p,
            lanes,
            graph: None,
            implicit: None,
            workers: workers().expect("RADIO_THREADS is checked before set-up"),
            faults: FaultConfig::default(),
            cfg: RunConfig::for_graph(n),
            algorithm: EgDistributed::new(p).name(),
            base: labeled_seed(seed, workload.name()),
            gate_lanes,
            known: Vec::new(),
        };
        match workload {
            Workload::Explicit => {
                let (n, d, lanes) = if tiny {
                    (512, 24.0, 100)
                } else {
                    (8192, 81.0, 1024)
                };
                let p = d / n as f64;
                let mut rng = Xoshiro256pp::new(labeled_seed(seed, "explicit/graph"));
                let graph = sample_graph(ctx, || sample_gnp(n, p, &mut rng));
                Inputs::Lanes(LaneInputs {
                    graph: Some(graph),
                    ..lane_inputs(n, p, lanes, 3)
                })
            }
            Workload::Faulty => {
                let (n, d, lanes) = if tiny {
                    (128, 10.0, 16)
                } else {
                    (1024, 20.0, 64)
                };
                let p = d / n as f64;
                let mut faults =
                    FaultConfig::parse("crash=0.05,sleep=0.1").expect("fixed fault spec parses");
                faults.exempt = Some(SOURCE);
                Inputs::Lanes(LaneInputs {
                    faulty: true,
                    faults,
                    cfg: RunConfig::for_graph(n).with_loss(0.1),
                    algorithm: Restartable::auto(EgDistributed::new(p)).name(),
                    ..lane_inputs(n, p, lanes, 3)
                })
            }
            Workload::Implicit => {
                let (n, lanes) = if tiny { (2_000, 8) } else { (100_000, 64) };
                let p = 2.5 * (n as f64).ln() / n as f64;
                Inputs::Lanes(LaneInputs {
                    implicit: Some(ImplicitGnp::new(n, p, labeled_seed(seed, "implicit/graph"))),
                    ..lane_inputs(n, p, lanes, 1)
                })
            }
            Workload::Node => {
                let (n, degree, ops, ticks, partition) = if tiny {
                    (96, 8.0, 4, 300, "5:40:2")
                } else {
                    (4096, 12.0, 16, 1200, "10:301:2")
                };
                let mut cfg = WorkloadConfig {
                    n,
                    degree,
                    ops,
                    ticks,
                    trials: 1,
                    faults: FaultConfig::parse("crash=0.05,sleep=0.05")
                        .expect("fixed fault spec parses"),
                    ..WorkloadConfig::default()
                };
                cfg.net.partitions =
                    vec![Partition::parse(partition).expect("fixed partition spec parses")];
                Inputs::Node(NodeInputs {
                    cfg,
                    base: labeled_seed(seed, workload.name()),
                })
            }
        }
    }

    /// Builds the inputs `reps` times back to back; returns the last
    /// inputs and the mean seconds per set-up.
    pub fn time_setup(workload: Workload, scale: Scale, seed: u64, reps: u32) -> (Inputs, f64) {
        let start = Instant::now();
        let mut inputs = Inputs::setup(workload, scale, seed, None);
        for _ in 1..reps {
            inputs = black_box(Inputs::setup(workload, scale, seed, None));
        }
        (
            inputs,
            start.elapsed().as_secs_f64() / f64::from(reps.max(1)),
        )
    }

    /// Ops per call: lanes, or client broadcasts.
    pub fn ops_per_call(&self) -> u64 {
        match self {
            Inputs::Lanes(l) => l.lanes as u64,
            Inputs::Node(n) => n.cfg.ops as u64,
        }
    }

    /// Traced runs only: counts the forward edges per shard range of the
    /// implicit graphs of calls `0..calls` (so the timed provider needs no
    /// per-edge counter) and records the standalone regeneration rate.
    pub fn prepare_trace(&mut self, ctx: &mut TraceCtx, calls: usize) {
        let Inputs::Lanes(l) = self else { return };
        let Some(template) = l.implicit else { return };
        let ranges = shard_ranges(template.n(), l.workers);
        let (mut edges, mut elapsed) = (0u64, 0.0);
        l.known = (0..calls as u64)
            .filter_map(|index| l.implicit_graph(index))
            .map(|imp| {
                let (known, took) = count_edges(&imp, &ranges);
                edges += known.iter().map(|&(_, e)| e).sum::<u64>();
                elapsed += took.as_secs_f64();
                known
            })
            .collect();
        ctx.totals.provider_regen_edges_per_s = edges as f64 / elapsed.max(1e-9);
    }

    /// Runs call `index` (traced when `ctx` is given).
    pub fn call(&self, index: u64, ctx: Option<&mut TraceCtx>) -> CallOut {
        match self {
            Inputs::Lanes(l) => CallOut::Lanes(l.call(index, ctx)),
            Inputs::Node(n) => CallOut::Node(n.call(index, ctx)),
        }
    }

    /// Checks one call's results (outside the timed region).
    pub fn gate(&self, out: &CallOut) -> Gate {
        match (self, out) {
            (Inputs::Lanes(l), CallOut::Lanes(c)) => l.gate(c),
            (Inputs::Node(n), CallOut::Node(c)) => n.gate(c),
            _ => panic!("call output does not match its workload"),
        }
    }
}
