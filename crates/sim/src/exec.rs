//! The execution planner: one front door for every way to run a protocol.
//!
//! [`RunSpec`] is the only way to execute a [`Protocol`]: describe the run
//! (graph source, start state, lanes, kernel preference, faults, loss,
//! master seed, worker threads), let the planner pick the engine, and
//! execute.
//!
//! ```
//! use radio_graph::{Graph, Xoshiro256pp, NodeId};
//! use radio_sim::exec::RunSpec;
//! use radio_sim::{LocalNode, Protocol, RunConfig};
//!
//! struct HalfCoin;
//! impl Protocol for HalfCoin {
//!     fn name(&self) -> String { "half-coin".into() }
//!     fn transmits(&mut self, _n: LocalNode, rng: &mut Xoshiro256pp) -> bool {
//!         rng.coin(0.5)
//!     }
//! }
//!
//! let g = Graph::path(8);
//! let outcome = RunSpec::on_graph(&g, 0)
//!     .with_master_seed(1)
//!     .run(&mut HalfCoin);
//! assert_eq!(outcome.lanes.len(), 1);
//! assert!(outcome.lanes[0].completed);
//! ```
//!
//! ## The planner is a pure function
//!
//! [`RunSpec::plan`] depends **only** on the spec's own fields — lane
//! count, kernel preference, backend shape, shard count —
//! never on the environment or the hardware.  (`RADIO_THREADS` affects
//! the *worker count* of the engines that parallelize, at execution
//! time, but never the engine decision or any result bit.)  Calling
//! `plan()` twice on the same spec returns the same [`Plan`]; the
//! `exec` test suite pins this property over a grid of specs.
//!
//! ## Engine decision
//!
//! | graph source | lanes | planned engine |
//! |---|---|---|
//! | explicit CSR (or provider with explicit adjacency, ≤ 1 shard) | 1 | [`PlannedEngine::Round`] with the spec's [`EngineKernel`] |
//! | explicit CSR (or provider with explicit adjacency, ≤ 1 shard) | 2..=1024 | [`PlannedEngine::Tiled`] |
//! | provider (implicit, or explicit with > 1 shard) | 1 | [`PlannedEngine::Sweep`] |
//! | provider (implicit, or explicit with > 1 shard) | 2..=64 | [`PlannedEngine::LaneSweep`] |
//!
//! The kernel preference only steers the scalar round engine; the lane
//! engines ignore it.  Provider backends cap lanes at [`MAX_LANES`]: the
//! lane planes are `u64` words regenerated per edge stream, so wider
//! batches would need a second plane word per node — the tiled engine's
//! job, which needs stored adjacency.
//!
//! ## Determinism contract
//!
//! Lane `l` of any multi-lane engine is **bit-identical** to the scalar
//! round engine run on `child_rng(master_seed, l)`; [`RunSpec::run`]
//! seeds scalar plans with `child_rng(master_seed, 0)` so the same spec
//! produces the same lane-0 result whichever engine the planner picks.
//! Kernel choice, shard count, and thread count never change results —
//! only the informational `kernel`/`threads` fields of [`RunResult`].

use radio_graph::{child_rng, Graph, GraphProvider, NodeId, Xoshiro256pp};

use crate::fault::FaultPlan;
use crate::kernel::EngineKernel;
use crate::observer::{NoopObserver, RunObserver};
use crate::protocol::{scalar_observed_core, Protocol, RunConfig, MAX_LANES};
use crate::state::BroadcastState;
use crate::sweep::{run_sweep_lanes_core, run_sweep_scalar_core, Backend};
use crate::tiled::{run_tiled_core, MAX_TILED_LANES};
use crate::trace::RunResult;

/// Where a run's edges come from.
pub enum GraphSource<'a> {
    /// Explicit CSR adjacency, owned by the caller.
    Csr(&'a Graph),
    /// Any [`GraphProvider`] backend, swept in `shards` row-range shards.
    Provider {
        /// The backend supplying forward edges.
        provider: &'a dyn GraphProvider,
        /// Row-range shard count (clamped to ≥ 1; wall-clock only, never
        /// results).
        shards: usize,
    },
}

/// Initial knowledge state of the broadcast.
enum StartState {
    /// One source node, informed at round 0.
    Source(NodeId),
    /// Several sources, all informed at round 0.
    Sources(Vec<NodeId>),
    /// An arbitrary pre-built state.
    State(BroadcastState),
}

impl StartState {
    fn to_state(&self, n: usize) -> BroadcastState {
        match self {
            StartState::Source(s) => BroadcastState::new(n, *s),
            StartState::Sources(v) => BroadcastState::with_sources(n, v),
            StartState::State(st) => st.clone(),
        }
    }

    fn single_source(&self) -> NodeId {
        match self {
            StartState::Source(s) => *s,
            _ => unreachable!("RunSpec::plan admits only single-source starts here"),
        }
    }
}

/// The engine the planner selected (see the [module docs](crate::exec)
/// for the decision table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedEngine {
    /// Scalar [`RoundEngine`](crate::engine::RoundEngine) with the given
    /// kernel preference.
    Round(EngineKernel),
    /// Tiled SIMD + multithreaded lane engine, 2 to 1024 trials per
    /// sweep ([`crate::tiled`]).
    Tiled,
    /// Scalar provider-driven edge sweep ([`crate::sweep`]).
    Sweep,
    /// Lane-batched provider sweep: up to 64 trials per regenerated edge
    /// stream ([`crate::sweep`]).
    LaneSweep,
}

impl PlannedEngine {
    /// Lower-case engine name for reports and trace notes.
    pub fn as_str(self) -> &'static str {
        match self {
            PlannedEngine::Round(_) => "round",
            PlannedEngine::Tiled => "tiled",
            PlannedEngine::Sweep => "sweep",
            PlannedEngine::LaneSweep => "lane-sweep",
        }
    }
}

/// The planner's decision for one [`RunSpec`]: recorded in
/// [`RunOutcome::plan`] and (via
/// [`RunReport::with_plan`](crate::report::RunReport::with_plan)) in run
/// reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Which backend family executes the run (`explicit`, `implicit`, or
    /// `sharded`; never `auto` — resolve with
    /// [`resolve_backend`](crate::sweep::resolve_backend) first).
    pub backend: Backend,
    /// The selected engine.
    pub engine: PlannedEngine,
    /// Trial lanes the run executes.
    pub lanes: usize,
    /// Row-range shards (provider engines; 1 for explicit engines).
    pub shards: usize,
    /// Explicit worker-thread override for the tiled engine, if any
    /// (`None` = [`thread_budget`](crate::runner::thread_budget) at
    /// execution time — which never changes results).
    pub threads: Option<usize>,
}

impl Plan {
    /// One-line human-readable description, e.g.
    /// `"implicit/lane-sweep ×64 lanes, 4 shards"`.
    pub fn describe(&self) -> String {
        let mut s = format!("{}/{}", self.backend.as_str(), self.engine.as_str());
        if self.lanes > 1 {
            s.push_str(&format!(" x{} lanes", self.lanes));
        }
        if self.shards > 1 {
            s.push_str(&format!(", {} shards", self.shards));
        }
        s
    }
}

/// The result of executing a [`RunSpec`]: one [`RunResult`] per lane
/// (index = lane = RNG stream index) plus the [`Plan`] that produced
/// them.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-lane results; `lanes.len() == plan.lanes`.
    pub lanes: Vec<RunResult>,
    /// The planner decision that executed.
    pub plan: Plan,
}

impl RunOutcome {
    /// Consumes a single-lane outcome.
    ///
    /// # Panics
    ///
    /// If the outcome has more than one lane.
    pub fn into_single(self) -> RunResult {
        assert_eq!(
            self.lanes.len(),
            1,
            "into_single on a {}-lane outcome",
            self.lanes.len()
        );
        self.lanes.into_iter().next().unwrap()
    }

    /// Borrows the single lane of a scalar outcome.
    ///
    /// # Panics
    ///
    /// If the outcome has more than one lane.
    pub fn single(&self) -> &RunResult {
        assert_eq!(self.lanes.len(), 1);
        &self.lanes[0]
    }
}

/// Builder describing one protocol execution; see the [module
/// docs](crate::exec).
///
/// Construct with [`RunSpec::on_graph`] or [`RunSpec::on_provider`],
/// refine with the `with_*` methods, then call [`RunSpec::plan`] to
/// inspect the decision or one of the `run*` methods to execute.
pub struct RunSpec<'a> {
    graph: GraphSource<'a>,
    start: StartState,
    config: RunConfig,
    lanes: usize,
    fault_plan: Option<&'a FaultPlan>,
    master_seed: u64,
    threads: Option<usize>,
}

impl<'a> RunSpec<'a> {
    /// A run on an explicit CSR graph from a single source.
    pub fn on_graph(graph: &'a Graph, source: NodeId) -> RunSpec<'a> {
        let n = graph.n();
        RunSpec {
            graph: GraphSource::Csr(graph),
            start: StartState::Source(source),
            config: RunConfig::for_graph(n),
            lanes: 1,
            fault_plan: None,
            master_seed: 0,
            threads: None,
        }
    }

    /// A run on any [`GraphProvider`] backend, swept in `shards`
    /// row-range shards (clamped to ≥ 1).
    ///
    /// With one shard and a provider that exposes explicit adjacency
    /// ([`GraphProvider::as_explicit`]), the planner routes to the
    /// explicit engines instead of the sweep — bit-identical either way.
    pub fn on_provider(
        provider: &'a dyn GraphProvider,
        shards: usize,
        source: NodeId,
    ) -> RunSpec<'a> {
        let n = provider.n();
        RunSpec {
            graph: GraphSource::Provider {
                provider,
                shards: shards.max(1),
            },
            start: StartState::Source(source),
            config: RunConfig::for_graph(n),
            lanes: 1,
            fault_plan: None,
            master_seed: 0,
            threads: None,
        }
    }

    /// Overrides the run configuration (round budget, trace level, loss
    /// probability, kernel preference).
    pub fn with_config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the trial-lane count (default 1).
    ///
    /// Explicit CSR sources batch up to [`MAX_TILED_LANES`] lanes on the
    /// tiled engine; provider backends cap at [`MAX_LANES`].
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Runs every lane under the fault plan `plan`.
    ///
    /// Crashed and sleeping nodes neither transmit nor receive; jammers
    /// force collisions on their neighborhoods; a node whose
    /// Gilbert–Elliott channel is in the bad state loses every reception
    /// that round.  Independent per-reception loss composes on top.  Each
    /// result carries its fault events in [`RunResult::fault_events`] and
    /// a [`crate::FaultSummary`] (coverage of the *live reachable*
    /// subgraph) in [`RunResult::faults`]; see `docs/ROBUSTNESS.md`.
    pub fn with_faults(mut self, plan: &'a FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the master seed: lane `l` executes on the RNG stream
    /// `child_rng(master_seed, l)` (default 0).  Ignored by the
    /// `*_with_rng` entry points, which consume a caller-owned stream.
    pub fn with_master_seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// Explicit intra-round worker count for the tiled engine, bypassing
    /// [`thread_budget`](crate::runner::thread_budget).  Never affects
    /// results.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        self.threads = Some(threads);
        self
    }

    /// Multi-source start: every node of `sources` is informed at round
    /// 0.  Requires a scalar explicit plan (lanes = 1, no faults);
    /// [`RunSpec::plan`] panics otherwise.
    pub fn with_sources(mut self, sources: &[NodeId]) -> Self {
        self.start = StartState::Sources(sources.to_vec());
        self
    }

    /// Arbitrary initial knowledge state.  Requires a scalar explicit
    /// plan (lanes = 1, no faults); [`RunSpec::plan`] panics otherwise.
    pub fn with_state(mut self, state: BroadcastState) -> Self {
        self.start = StartState::State(state);
        self
    }

    /// Node count of the graph source.
    pub fn n(&self) -> usize {
        match &self.graph {
            GraphSource::Csr(g) => g.n(),
            GraphSource::Provider { provider, .. } => provider.n(),
        }
    }

    /// The planner: a **pure function** of this spec (see the [module
    /// docs](crate::exec) for the decision table).
    ///
    /// # Panics
    ///
    /// If `lanes` is 0, exceeds the engine family's cap
    /// ([`MAX_TILED_LANES`] explicit, [`MAX_LANES`] provider), or the
    /// spec combines a multi-source/custom-state start with faults, a
    /// multi-lane plan or a provider sweep.
    pub fn plan(&self) -> Plan {
        let lanes = self.lanes;
        assert!(lanes >= 1, "lanes must be >= 1, got {lanes}");
        let explicit_plan = || -> Plan {
            assert!(
                lanes <= MAX_TILED_LANES,
                "explicit engines support at most {MAX_TILED_LANES} lanes, got {lanes}"
            );
            let engine = if lanes == 1 {
                PlannedEngine::Round(self.config.kernel)
            } else {
                PlannedEngine::Tiled
            };
            Plan {
                backend: Backend::Explicit,
                engine,
                lanes,
                shards: 1,
                threads: self.threads,
            }
        };
        let plan = match &self.graph {
            GraphSource::Csr(_) => explicit_plan(),
            GraphSource::Provider { provider, shards } => {
                let explicit = provider.as_explicit().is_some();
                if *shards <= 1 && explicit {
                    // Single-shard explicit providers take the classic
                    // engines (the historical fast path).
                    explicit_plan()
                } else {
                    assert!(
                        lanes <= MAX_LANES,
                        "provider backends support at most {MAX_LANES} lanes, got {lanes}"
                    );
                    let engine = if lanes == 1 {
                        PlannedEngine::Sweep
                    } else {
                        PlannedEngine::LaneSweep
                    };
                    Plan {
                        backend: if explicit {
                            Backend::Sharded
                        } else {
                            Backend::Implicit
                        },
                        engine,
                        lanes,
                        shards: (*shards).max(1),
                        threads: self.threads,
                    }
                }
            }
        };
        self.check_start(&plan);
        plan
    }

    /// Panics unless `plan` can run this spec's start: only the scalar
    /// round engine without faults takes several sources or a custom
    /// state.  The lane engines and the sweeps start from one source, and
    /// the [`crate::FaultSummary`] measures reachability from it.
    fn check_start(&self, plan: &Plan) {
        let start = match self.start {
            StartState::Source(_) => return,
            StartState::Sources(_) => "multi-source",
            StartState::State(_) => "custom-state",
        };
        let conflict = match (self.fault_plan, plan.engine) {
            (Some(_), _) => "faults".to_string(),
            (None, PlannedEngine::Round(_)) => return,
            _ if plan.lanes > 1 => format!("{} lanes", plan.lanes),
            _ => format!("the {} backend", plan.backend),
        };
        panic!(
            "a {start} start cannot be combined with {conflict}: it needs a scalar, \
             fault-free run on explicit adjacency"
        );
    }

    /// Executes the planned run, seeding lane `l` with
    /// `child_rng(master_seed, l)`.  Scalar plans run as lane 0.
    pub fn run<P: Protocol + ?Sized>(&self, protocol: &mut P) -> RunOutcome {
        let plan = self.plan();
        let lanes = match plan.engine {
            PlannedEngine::Round(_) => {
                let mut rng = child_rng(self.master_seed, 0);
                vec![self.exec_round(protocol, &mut rng, &mut NoopObserver)]
            }
            PlannedEngine::Sweep => {
                let mut rng = child_rng(self.master_seed, 0);
                vec![self.exec_sweep(&plan, protocol, &mut rng)]
            }
            PlannedEngine::Tiled => run_tiled_core(
                self.explicit_graph(),
                self.start.single_source(),
                protocol,
                self.config,
                self.fault_plan,
                self.master_seed,
                plan.lanes,
                self.threads,
            ),
            PlannedEngine::LaneSweep => {
                let (provider, shards) = self.provider_and_shards(&plan);
                run_sweep_lanes_core(
                    provider,
                    shards,
                    self.start.single_source(),
                    protocol,
                    self.config,
                    self.fault_plan,
                    self.master_seed,
                    plan.lanes,
                )
            }
        };
        debug_assert_eq!(lanes.len(), plan.lanes);
        RunOutcome { lanes, plan }
    }

    /// Executes a **scalar** plan on a caller-owned RNG stream
    /// (continuing it mid-stream, exactly like the historical scalar
    /// entry points).
    ///
    /// # Panics
    ///
    /// If the plan is multi-lane (`lanes > 1`) — lane batching needs a
    /// master seed, not a shared stream.
    pub fn run_with_rng<P: Protocol + ?Sized>(
        &self,
        protocol: &mut P,
        rng: &mut Xoshiro256pp,
    ) -> RunOutcome {
        let plan = self.plan();
        let result = match plan.engine {
            PlannedEngine::Round(_) => self.exec_round(protocol, rng, &mut NoopObserver),
            PlannedEngine::Sweep => self.exec_sweep(&plan, protocol, rng),
            other => panic!(
                "run_with_rng requires a scalar plan (lanes = 1), planner chose {:?}",
                other
            ),
        };
        RunOutcome {
            lanes: vec![result],
            plan,
        }
    }

    /// Executes a scalar **explicit** plan with per-round telemetry
    /// streamed into `observer`.
    ///
    /// # Panics
    ///
    /// If the planner chose anything but the scalar round engine
    /// (provider sweeps and the lane engines have no observer hooks).
    pub fn run_observed<P: Protocol + ?Sized, O: RunObserver>(
        &self,
        protocol: &mut P,
        rng: &mut Xoshiro256pp,
        observer: &mut O,
    ) -> RunOutcome {
        let plan = self.plan();
        match plan.engine {
            PlannedEngine::Round(_) => {
                let result = self.exec_round(protocol, rng, observer);
                RunOutcome {
                    lanes: vec![result],
                    plan,
                }
            }
            other => panic!(
                "observers require the scalar round engine, planner chose {:?}",
                other
            ),
        }
    }

    fn explicit_graph(&self) -> &'a Graph {
        match &self.graph {
            GraphSource::Csr(g) => g,
            GraphSource::Provider { provider, .. } => provider
                .as_explicit()
                .expect("planned an explicit engine on a non-explicit provider"),
        }
    }

    fn exec_round<P: Protocol + ?Sized, O: RunObserver>(
        &self,
        protocol: &mut P,
        rng: &mut Xoshiro256pp,
        observer: &mut O,
    ) -> RunResult {
        let graph = self.explicit_graph();
        let state = self.start.to_state(graph.n());
        scalar_observed_core(
            graph,
            state,
            protocol,
            self.config,
            self.fault_plan,
            rng,
            observer,
        )
    }

    fn provider_and_shards(&self, plan: &Plan) -> (&'a dyn GraphProvider, usize) {
        match &self.graph {
            GraphSource::Provider { provider, shards } => (*provider, (*shards).max(1)),
            GraphSource::Csr(g) => (*g as &dyn GraphProvider, plan.shards),
        }
    }

    fn exec_sweep<P: Protocol + ?Sized>(
        &self,
        plan: &Plan,
        protocol: &mut P,
        rng: &mut Xoshiro256pp,
    ) -> RunResult {
        let (provider, shards) = self.provider_and_shards(plan);
        run_sweep_scalar_core(
            provider,
            shards,
            self.start.single_source(),
            protocol,
            self.config,
            self.fault_plan,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelUsed;
    use crate::protocol::LocalNode;
    use radio_graph::ImplicitGnp;

    struct HalfCoin;
    impl Protocol for HalfCoin {
        fn name(&self) -> String {
            "half".into()
        }
        fn transmits(&mut self, _node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
            rng.coin(0.5)
        }
    }

    /// The planner decision table, pinned point by point.
    #[test]
    fn planner_decision_table() {
        let g = ImplicitGnp::new(512, 0.03, 1).materialize();
        // Scalar explicit → round engine with the requested kernel.
        for kernel in [
            EngineKernel::Auto,
            EngineKernel::Sparse,
            EngineKernel::Dense,
        ] {
            let spec =
                RunSpec::on_graph(&g, 0).with_config(RunConfig::for_graph(512).with_kernel(kernel));
            assert_eq!(spec.plan().engine, PlannedEngine::Round(kernel));
            assert_eq!(spec.plan().backend, Backend::Explicit);
        }
        // Every multi-lane explicit run → tiled, whatever the kernel
        // preference and the graph size.
        for lanes in [2, 16, MAX_LANES, 65, MAX_TILED_LANES] {
            for kernel in [EngineKernel::Auto, EngineKernel::Dense] {
                let spec = RunSpec::on_graph(&g, 0)
                    .with_lanes(lanes)
                    .with_config(RunConfig::for_graph(512).with_kernel(kernel));
                assert_eq!(spec.plan().engine, PlannedEngine::Tiled, "{lanes} lanes");
            }
        }
        let big = Graph::empty(1 << 14);
        let spec = RunSpec::on_graph(&big, 0).with_lanes(MAX_LANES);
        assert_eq!(spec.plan().engine, PlannedEngine::Tiled);
        // Implicit provider → sweep engines, lane-batched past one lane.
        let imp = ImplicitGnp::new(512, 0.03, 1);
        let spec = RunSpec::on_provider(&imp, 1, 0);
        let plan = spec.plan();
        assert_eq!(plan.engine, PlannedEngine::Sweep);
        assert_eq!(plan.backend, Backend::Implicit);
        let spec = RunSpec::on_provider(&imp, 4, 0).with_lanes(64);
        let plan = spec.plan();
        assert_eq!(plan.engine, PlannedEngine::LaneSweep);
        assert_eq!((plan.backend, plan.shards), (Backend::Implicit, 4));
        // Explicit adjacency behind the provider interface: one shard →
        // classic engines; more shards → sharded sweep.
        let spec = RunSpec::on_provider(&g, 1, 0);
        assert_eq!(spec.plan().engine, PlannedEngine::Round(EngineKernel::Auto));
        let spec = RunSpec::on_provider(&g, 4, 0);
        let plan = spec.plan();
        assert_eq!(plan.engine, PlannedEngine::Sweep);
        assert_eq!(plan.backend, Backend::Sharded);
    }

    /// The kernel decision is a pure function of the spec: re-planning
    /// any spec in a grid of shapes returns the identical plan, and the
    /// plan never smuggles in environment state (threads stays exactly
    /// what the spec set — `None` unless overridden).
    #[test]
    fn planner_is_pure() {
        let g = ImplicitGnp::new(4096, 0.004, 2).materialize();
        let imp = ImplicitGnp::new(4096, 0.004, 2);
        for lanes in [1usize, 2, 7, 63, 64, 65, 128, 1024] {
            for kernel in [
                EngineKernel::Auto,
                EngineKernel::Sparse,
                EngineKernel::Dense,
            ] {
                let cfg = RunConfig::for_graph(4096).with_kernel(kernel);
                let spec = RunSpec::on_graph(&g, 0).with_config(cfg).with_lanes(lanes);
                let first = spec.plan();
                for _ in 0..3 {
                    assert_eq!(first, spec.plan(), "lanes={lanes} kernel={kernel:?}");
                }
                assert_eq!(first.threads, None, "no env/hardware leakage");
                // The decision depends only on (lanes, kernel): an
                // identical spec built from scratch plans identically.
                let rebuilt = RunSpec::on_graph(&g, 3)
                    .with_config(cfg)
                    .with_lanes(lanes)
                    .with_master_seed(999);
                assert_eq!(first.engine, rebuilt.plan().engine);
                if lanes <= MAX_LANES {
                    for shards in [1usize, 2, 8] {
                        let pspec = RunSpec::on_provider(&imp, shards, 0)
                            .with_config(RunConfig::for_graph(4096))
                            .with_lanes(lanes);
                        let pplan = pspec.plan();
                        assert_eq!(pplan, pspec.plan());
                        assert_eq!(
                            pplan.engine,
                            if lanes == 1 {
                                PlannedEngine::Sweep
                            } else {
                                PlannedEngine::LaneSweep
                            }
                        );
                        assert_eq!(pplan.shards, shards.max(1));
                    }
                }
            }
        }
        // An explicit thread override is carried through verbatim.
        let spec = RunSpec::on_graph(&g, 0).with_lanes(128).with_threads(3);
        assert_eq!(spec.plan().threads, Some(3));
    }

    /// `run()` on a scalar plan equals the round engine on
    /// `child_rng(master, 0)` — the same lane-0 contract as the lane
    /// engines.
    #[test]
    fn scalar_run_is_lane_zero() {
        let g = ImplicitGnp::new(300, 0.03, 5).materialize();
        let cfg = RunConfig::for_graph(300);
        let outcome = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .with_master_seed(42)
            .run(&mut HalfCoin);
        assert_eq!(
            outcome.plan.engine,
            PlannedEngine::Round(EngineKernel::Auto)
        );
        let mut rng = child_rng(42, 0);
        let want = crate::protocol::scalar_observed_core(
            &g,
            BroadcastState::new(300, 0),
            &mut HalfCoin,
            cfg,
            None,
            &mut rng,
            &mut NoopObserver,
        );
        assert_eq!(outcome.into_single(), want);
    }

    /// A batched (multi-lane) plan's lanes each match the scalar engine
    /// on their child stream.
    #[test]
    fn batch_plan_lanes_match_scalar() {
        let g = ImplicitGnp::new(200, 0.04, 9).materialize();
        let cfg = RunConfig::for_graph(200).with_max_rounds(60);
        let outcome = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .with_lanes(8)
            .with_master_seed(7)
            .run(&mut HalfCoin);
        assert_eq!(outcome.plan.engine, PlannedEngine::Tiled);
        assert_eq!(outcome.lanes.len(), 8);
        for (l, got) in outcome.lanes.iter().enumerate() {
            let mut rng = child_rng(7, l as u64);
            let mut want = crate::protocol::scalar_observed_core(
                &g,
                BroadcastState::new(200, 0),
                &mut HalfCoin,
                cfg,
                None,
                &mut rng,
                &mut NoopObserver,
            );
            want.kernel = KernelUsed::Tiled;
            want.threads = got.threads;
            assert_eq!(*got, want, "lane {l}");
        }
    }

    #[test]
    fn describe_is_compact() {
        let imp = ImplicitGnp::new(100, 0.1, 1);
        let plan = RunSpec::on_provider(&imp, 4, 0).with_lanes(64).plan();
        assert_eq!(plan.describe(), "implicit/lane-sweep x64 lanes, 4 shards");
        let g = Graph::path(8);
        assert_eq!(RunSpec::on_graph(&g, 0).plan().describe(), "explicit/round");
    }

    #[test]
    #[should_panic]
    fn provider_lane_cap_enforced() {
        let imp = ImplicitGnp::new(100, 0.1, 1);
        let _ = RunSpec::on_provider(&imp, 1, 0).with_lanes(65).plan();
    }

    #[test]
    #[should_panic]
    fn zero_lanes_rejected() {
        let g = Graph::path(3);
        let _ = RunSpec::on_graph(&g, 0).with_lanes(0).plan();
    }

    /// The legal multi-source spec (scalar, fault-free, explicit
    /// adjacency) plans the round engine.
    #[test]
    fn multi_source_scalar_run_plans_round() {
        let g = Graph::path(8);
        let plan = RunSpec::on_graph(&g, 0).with_sources(&[0, 5]).plan();
        assert_eq!(plan.engine, PlannedEngine::Round(EngineKernel::Auto));
        let plan = RunSpec::on_provider(&g, 1, 0)
            .with_state(BroadcastState::with_sources(8, &[0, 5]))
            .plan();
        assert_eq!(plan.engine, PlannedEngine::Round(EngineKernel::Auto));
    }

    #[test]
    #[should_panic(expected = "a multi-source start cannot be combined with 8 lanes")]
    fn multi_source_lanes_rejected_at_plan() {
        let g = Graph::path(8);
        let _ = RunSpec::on_graph(&g, 0)
            .with_sources(&[0, 5])
            .with_lanes(8)
            .plan();
    }

    #[test]
    #[should_panic(expected = "a multi-source start cannot be combined with faults")]
    fn multi_source_faults_rejected_at_plan() {
        let g = Graph::path(8);
        let faults = FaultPlan::new(8);
        let _ = RunSpec::on_graph(&g, 0)
            .with_sources(&[0, 5])
            .with_faults(&faults)
            .plan();
    }

    #[test]
    #[should_panic(expected = "a custom-state start cannot be combined with the implicit backend")]
    fn custom_state_provider_rejected_at_plan() {
        let imp = ImplicitGnp::new(100, 0.1, 1);
        let _ = RunSpec::on_provider(&imp, 1, 0)
            .with_state(BroadcastState::with_sources(100, &[0, 5]))
            .plan();
    }
}
