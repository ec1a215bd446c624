//! Subcommand implementations.

use radio_analysis::{fnum, Summary, Table};
use radio_broadcast::centralized::{build_eg_schedule, CentralizedParams, Phase};
use radio_broadcast::distributed::{
    epoch_schedule, ConstantProb, Decay, EgDistributed, EgUnknownDegree, EgVariant, Flooding,
    Restartable, RoundRobin, DEFAULT_MAX_EPOCH_LEN,
};
use radio_broadcast::gossiping::run_radio_gossiping;
use radio_broadcast::lower_bound::{run_relaxed, sample_bounded_sets};
use radio_broadcast::theory;
use radio_graph::degree::DegreeStats;
use radio_graph::gnp::sample_gnp;
use radio_graph::layers::analyze_layers;
use radio_graph::{child_rng, Graph, GraphProvider, ImplicitGnp, Layering, NodeId, Xoshiro256pp};
use radio_sim::report::{write_events_jsonl, write_fault_events_jsonl};
use radio_sim::{
    resolve_backend, run_schedule, thread_budget, Backend, CollectingObserver, EngineKernel,
    FaultConfig, FaultPlan, Json, Protocol, RunConfig, RunReport, RunSpec, TraceLevel,
    TransmitterPolicy, MAX_LANES, MAX_TILED_LANES,
};

use crate::args::{Args, ParseError};

type CmdResult = Result<(), ParseError>;

/// A typed conflict between a flag the user gave and another flag (or
/// selection) it cannot be combined with.
///
/// Every flag-conflict diagnostic in this module flows through
/// [`FlagConflict::into_err`] so the messages stay consistent:
/// `"<flag> conflicts with <other>: <why>"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagConflict {
    /// The flag that cannot apply.
    pub flag: &'static str,
    /// The flag or selection it clashes with.
    pub other: String,
    /// Why the combination is meaningless.
    pub why: &'static str,
}

impl FlagConflict {
    /// Records that `flag` cannot be combined with `other`.
    pub fn new(flag: &'static str, other: impl Into<String>, why: &'static str) -> FlagConflict {
        FlagConflict {
            flag,
            other: other.into(),
            why,
        }
    }

    /// Renders the canonical conflict message as a [`ParseError`].
    pub fn into_err(self) -> ParseError {
        ParseError(format!(
            "{} conflicts with {}: {}",
            self.flag, self.other, self.why
        ))
    }
}

/// Where the graph comes from: sampled `G(n, p)` or a fixed edge-list file.
#[derive(Debug, Clone)]
pub enum GraphSpec {
    /// Sample a fresh `G(n, p)` per trial.
    Sample {
        /// Node count.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// A fixed topology loaded from `--graph FILE`.
    Fixed(Graph),
}

impl GraphSpec {
    /// Resolves the spec from `--graph FILE` or `--n` + (`--d` | `--p`).
    pub fn from_args(args: &Args) -> Result<GraphSpec, ParseError> {
        if let Some(path) = args.get("graph") {
            if args.get("n").is_some() || args.get("p").is_some() || args.get("d").is_some() {
                return Err(FlagConflict::new(
                    "--graph",
                    "--n/--p/--d",
                    "a loaded topology fixes the node count and edge density",
                )
                .into_err());
            }
            let g = radio_graph::io::load_edge_list(std::path::Path::new(path))
                .map_err(|e| ParseError(format!("--graph {path}: {e}")))?;
            if g.n() < 2 {
                return Err(ParseError("loaded graph has fewer than 2 nodes".into()));
            }
            return Ok(GraphSpec::Fixed(g));
        }
        let (n, p, _) = graph_params(args)?;
        Ok(GraphSpec::Sample { n, p })
    }

    /// Node count.
    pub fn n(&self) -> usize {
        match self {
            GraphSpec::Sample { n, .. } => *n,
            GraphSpec::Fixed(g) => g.n(),
        }
    }

    /// The `p` the protocols should assume (`d̄/n` for fixed graphs).
    pub fn p_equiv(&self) -> f64 {
        match self {
            GraphSpec::Sample { p, .. } => *p,
            GraphSpec::Fixed(g) => (g.average_degree() / g.n() as f64).clamp(0.0, 1.0),
        }
    }

    /// An instance for one trial.
    pub fn instantiate(&self, rng: &mut Xoshiro256pp) -> Graph {
        match self {
            GraphSpec::Sample { n, p } => sample_gnp(*n, *p, rng),
            GraphSpec::Fixed(g) => g.clone(),
        }
    }
}

/// Resolves `(n, p, d)` from `--n` plus either `--d` or `--p`.
fn graph_params(args: &Args) -> Result<(usize, f64, f64), ParseError> {
    let n: usize = args.require("n")?;
    if n < 2 {
        return Err(ParseError("--n must be at least 2".into()));
    }
    let p = match (args.get("p"), args.get("d")) {
        (Some(_), Some(_)) => {
            return Err(FlagConflict::new(
                "--p",
                "--d",
                "both set the edge probability; give exactly one",
            )
            .into_err())
        }
        (Some(p), None) => p
            .parse::<f64>()
            .map_err(|_| ParseError("--p: bad float".into()))?,
        (None, Some(d)) => {
            let d: f64 = d.parse().map_err(|_| ParseError("--d: bad float".into()))?;
            (d / n as f64).clamp(0.0, 1.0)
        }
        (None, None) => return Err(ParseError("need --d or --p".into())),
    };
    if !(0.0..=1.0).contains(&p) {
        return Err(ParseError(format!("p = {p} outside [0, 1]")));
    }
    Ok((n, p, p * n as f64))
}

fn make_protocol(spec: &str, p: f64) -> Result<Box<dyn Protocol>, ParseError> {
    Ok(match spec {
        "eg" => Box::new(EgDistributed::new(p)),
        "eg-strict" => Box::new(EgDistributed::with_variant(p, EgVariant::Strict)),
        "decay" => Box::new(Decay::new()),
        "flooding" => Box::new(Flooding),
        "round-robin" => Box::new(RoundRobin::default()),
        "unknown" => Box::new(EgUnknownDegree::new()),
        other => {
            if let Some(q) = other.strip_prefix("constant:") {
                let q: f64 = q
                    .parse()
                    .map_err(|_| ParseError(format!("bad probability in {other}")))?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(ParseError(format!("q = {q} outside [0, 1]")));
                }
                Box::new(ConstantProb::new(q))
            } else if let Some(inner) = other.strip_prefix("restartable:") {
                // Recursive: any protocol spec can be wrapped, including
                // another restartable.
                Box::new(Restartable::auto(make_protocol(inner, p)?))
            } else {
                return Err(ParseError(format!(
                    "unknown protocol {other} (try eg, eg-strict, decay, flooding, round-robin, unknown, constant:Q, restartable:PROTO)"
                )));
            }
        }
    })
}

/// The epoch-backoff schedule a `restartable:*` protocol spec ran with,
/// for the `RunReport.backoff_epochs` field.  `make_protocol` always
/// builds `Restartable::auto` (derived first epoch, factor 2, default
/// cap), so the schedule is a pure function of `n` and the run's horizon;
/// `None` for non-restartable specs.
fn backoff_epochs_for(spec: &str, n: usize, rounds: u32) -> Option<Vec<u32>> {
    spec.starts_with("restartable:")
        .then(|| epoch_schedule(n, 0, 2, DEFAULT_MAX_EPOCH_LEN, rounds))
}

/// `radio-cli run` — distributed protocol trials.
///
/// Output is controlled by `--format text|json` (default text).  In JSON
/// mode stdout carries exactly one pretty-printed JSON array of versioned
/// [`RunReport`] objects, one per trial, including the per-round event
/// stream.  `--trace-out FILE` additionally dumps every round event as
/// JSONL (one object per line, tagged with its trial index) in either
/// format.
///
/// `--batch L` switches each trial to a lane-batched plan (a multi-lane
/// [`RunSpec`]): one graph sample carries `L` independent protocol runs
/// resolved in shared adjacency sweeps — up to 1024 on the explicit
/// backend (the tiled engine), up to 64 on provider backends.  `--kernel`
/// steers only scalar explicit runs.  JSON reports then carry one
/// entry per lane (tagged `batch_lanes`), and JSONL trace lines gain a
/// `lane` field.
///
/// `--backend implicit|sharded|auto` routes trials through the
/// `GraphProvider` sweep engine instead of the explicit round engine:
/// `implicit` regenerates each `G(n, p)` sample from its seed with no
/// adjacency in memory, `sharded` splits explicit adjacency rows across the
/// `RADIO_THREADS` worker budget, and `auto` picks `implicit` exactly when
/// the dense-kernel adjacency bitmap would exceed its 64-MiB cap (a note is
/// printed when that rerouting fires).  `--batch` composes with every
/// backend — on provider backends up to 64 lanes ride one regenerated edge
/// stream per round.  Provider backends reject `--kernel`, and `implicit`
/// rejects `--graph FILE`.
pub fn run(args: &Args) -> CmdResult {
    let spec = GraphSpec::from_args(args)?;
    let (n, p) = (spec.n(), spec.p_equiv());
    let d = p * n as f64;
    let trials: usize = args.get_or("trials", 1)?;
    let loss: f64 = args.get_or("loss", 0.0)?;
    let proto_spec = args.get("protocol").unwrap_or("eg").to_string();
    let seed: u64 = args.get_or("seed", 1)?;
    let source: NodeId = args.get_or("source", 0)?;
    let format = args.get("format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(ParseError(format!(
            "--format {format}: unknown format (try text or json)"
        )));
    }
    let text = format == "text";
    let mut trace_out: Option<std::io::BufWriter<std::fs::File>> = match args.get("trace-out") {
        None => None,
        Some(path) => {
            // Create missing parent directories so a fresh results tree
            // (e.g. --trace-out results/traces/run.jsonl) just works.
            if let Some(parent) = std::path::Path::new(path).parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| ParseError(format!("--trace-out {path}: {e}")))?;
                }
            }
            Some(std::io::BufWriter::new(
                std::fs::File::create(path)
                    .map_err(|e| ParseError(format!("--trace-out {path}: {e}")))?,
            ))
        }
    };

    // JSON reports derive transmission totals and milestone rounds from the
    // result's trace, so record per-round when reports were asked for.
    let mut cfg = RunConfig::for_graph(n).with_trace(if text {
        TraceLevel::SummaryOnly
    } else {
        TraceLevel::PerRound
    });
    if loss > 0.0 {
        if !(0.0..=1.0).contains(&loss) {
            return Err(ParseError("--loss outside [0, 1]".into()));
        }
        cfg = cfg.with_loss(loss);
    }
    if let Some(mr) = args.get("max-rounds") {
        cfg = cfg.with_max_rounds(
            mr.parse()
                .map_err(|_| ParseError("--max-rounds: bad integer".into()))?,
        );
    }
    if let Some(kernel) = args.get("kernel") {
        cfg = cfg.with_kernel(
            kernel
                .parse::<EngineKernel>()
                .map_err(|e| ParseError(format!("--kernel: {e}")))?,
        );
    }
    let fault_cfg: Option<FaultConfig> = match args.get("faults") {
        None => None,
        Some(spec) => {
            let parsed =
                FaultConfig::parse(spec).map_err(|e| ParseError(format!("--faults: {e}")))?;
            // The source is exempt: a crashed/sleeping source makes every
            // trial trivially vacuous.
            Some(FaultConfig {
                exempt: Some(source),
                ..parsed
            })
        }
    };
    let backend = match args.get("backend") {
        None => Backend::Explicit,
        Some(raw) => raw
            .parse::<Backend>()
            .map_err(|e| ParseError(format!("--backend: {e}")))?,
    };
    // Auto resolves per run size; oversized adjacency reroutes to the
    // implicit backend with the typed cap error as the printed note.
    let (backend, route_note) = resolve_backend(backend, n);
    if let Some(err) = route_note {
        eprintln!("note: rerouted to implicit backend ({err})");
    }
    let batch: Option<usize> = match args.get("batch") {
        None => None,
        Some(raw) => {
            let lanes: usize = raw
                .parse()
                .map_err(|_| ParseError("--batch: bad integer".into()))?;
            // Explicit runs batch on the tiled engine, whose rows hold a
            // full tile of lanes; provider backends lane-batch through the
            // sweep engine, whose ceiling is one machine word.
            let cap = if backend == Backend::Explicit {
                MAX_TILED_LANES
            } else {
                MAX_LANES
            };
            if !(1..=cap).contains(&lanes) {
                return Err(ParseError(format!(
                    "--batch must be in 1..={cap} on --backend {backend}"
                )));
            }
            Some(lanes)
        }
    };
    if (source as usize) >= n {
        return Err(ParseError("--source out of range".into()));
    }
    if backend != Backend::Explicit && args.get("kernel").is_some() {
        return Err(FlagConflict::new(
            "--kernel",
            format!("--backend {backend}"),
            "kernel selection applies only to the explicit-adjacency round engine",
        )
        .into_err());
    }
    if backend == Backend::Implicit && matches!(spec, GraphSpec::Fixed(_)) {
        return Err(FlagConflict::new(
            "--backend implicit",
            "--graph",
            "the implicit backend regenerates G(n, p) from its seed and cannot replay a fixed edge list",
        )
        .into_err());
    }
    if text {
        let lanes_note = batch.map_or(String::new(), |l| format!(" × {l} lanes"));
        let backend_note = if backend == Backend::Explicit {
            String::new()
        } else {
            format!(", backend {backend}")
        };
        println!(
            "protocol {proto_spec} on graph (n = {n}, p̄ = {p:.6}) [d = {d:.1}], source {source}, {trials} trial(s){lanes_note}, loss {loss}{backend_note}"
        );
    }
    let mut rounds = Vec::new();
    let mut completions = 0usize;
    let mut reports: Vec<Json> = Vec::new();
    if let (Some(lanes), Backend::Explicit) = (batch, backend) {
        // Lane traces are the only event source in batched runs, so record
        // per-round whenever anything downstream consumes events.
        if !text || trace_out.is_some() {
            cfg = cfg.with_trace(TraceLevel::PerRound);
        }
        for t in 0..trials {
            let mut rng = child_rng(seed, t as u64);
            let g = spec.instantiate(&mut rng);
            let mut proto = make_protocol(&proto_spec, p)?;
            let plan = fault_cfg
                .as_ref()
                .map(|fc| FaultPlan::generate(&g, fc, rng.next()));
            let lane_seed = rng.next();
            let mut rspec = RunSpec::on_graph(&g, source)
                .with_config(cfg)
                .with_lanes(lanes)
                .with_master_seed(lane_seed);
            if let Some(plan) = plan.as_ref() {
                rspec = rspec.with_faults(plan);
            }
            let outcome = rspec.run(proto.as_mut());
            let results = &outcome.lanes;
            if text {
                let done: Vec<f64> = results
                    .iter()
                    .filter(|r| r.completed)
                    .map(|r| r.rounds as f64)
                    .collect();
                let mean = Summary::of(&done).map_or("-".to_string(), |s| format!("{:.1}", s.mean));
                let fault_note = results
                    .first()
                    .and_then(|r| r.faults)
                    .map_or(String::new(), |f| {
                        let coverage: f64 = results
                            .iter()
                            .map(|r| r.informed as f64 / r.n.max(1) as f64)
                            .sum::<f64>()
                            / results.len() as f64;
                        let residual: usize = results
                            .iter()
                            .map(|r| r.faults.map_or(0, |f| f.residual_uninformed))
                            .sum();
                        format!(
                            ", mean coverage {coverage:.3}, residual {residual} (live {}, reachable {})",
                            f.live, f.live_reachable
                        )
                    });
                println!(
                    "  trial {t}: {}/{lanes} lanes completed, mean rounds {mean}{fault_note}",
                    done.len()
                );
            }
            for (lane, r) in results.iter().enumerate() {
                if let Some(out) = trace_out.as_mut() {
                    write_fault_events_jsonl(
                        out,
                        &[("trial", Json::from(t)), ("lane", Json::from(lane))],
                        &r.fault_events,
                    )
                    .map_err(|e| ParseError(format!("--trace-out: write failed: {e}")))?;
                    let events: Vec<_> = r.trace.iter().map(|rec| rec.to_event()).collect();
                    write_events_jsonl(
                        out,
                        &[("trial", Json::from(t)), ("lane", Json::from(lane))],
                        &events,
                    )
                    .map_err(|e| ParseError(format!("--trace-out: write failed: {e}")))?;
                }
                if !text {
                    let mut report = RunReport::from_result(&proto_spec, r)
                        .with_p(p)
                        .with_seed(seed)
                        .with_plan(&outcome.plan)
                        .with_batch_lanes(lanes as u32)
                        .with_events(r.trace.iter().map(|rec| rec.to_event()).collect());
                    if let Some(epochs) = backoff_epochs_for(&proto_spec, n, r.rounds) {
                        report = report.with_backoff_epochs(epochs);
                    }
                    reports.push(report.to_json());
                }
                if r.completed {
                    completions += 1;
                    rounds.push(r.rounds as f64);
                }
            }
        }
    } else if backend != Backend::Explicit {
        // Provider-backed trials (implicit or sharded round sweeps), scalar
        // or lane-batched.  The sweep engine's own trace is the only event
        // source here, so record per round whenever JSON output or a trace
        // file consumes events.
        if !text || trace_out.is_some() {
            cfg = cfg.with_trace(TraceLevel::PerRound);
        }
        let shards = match backend {
            Backend::Sharded => thread_budget(usize::MAX).max(2),
            _ => 1,
        };
        for t in 0..trials {
            let mut rng = child_rng(seed, t as u64);
            let mut proto = make_protocol(&proto_spec, p)?;
            // Hold whichever graph object backs this trial so the RunSpec
            // can borrow it.
            let implicit;
            let explicit;
            let (provider, fault_plan): (&dyn GraphProvider, Option<FaultPlan>) =
                if backend == Backend::Implicit {
                    implicit = ImplicitGnp::new(n, p, rng.next());
                    // Fault-plan generation needs explicit adjacency, so
                    // faulted implicit trials materialize the sample once
                    // (the memory saving is traded for fault coverage).
                    let plan = fault_cfg
                        .as_ref()
                        .map(|fc| FaultPlan::generate(&implicit.materialize(), fc, rng.next()));
                    (&implicit, plan)
                } else {
                    explicit = spec.instantiate(&mut rng);
                    let plan = fault_cfg
                        .as_ref()
                        .map(|fc| FaultPlan::generate(&explicit, fc, rng.next()));
                    (&explicit, plan)
                };
            let mut rspec = RunSpec::on_provider(provider, shards, source).with_config(cfg);
            if let Some(plan) = fault_plan.as_ref() {
                rspec = rspec.with_faults(plan);
            }
            let outcome = match batch {
                // Lane-batched provider trials: every lane rides one
                // regenerated edge stream, seeded exactly like explicit
                // batched trials.
                Some(lanes) => {
                    let lane_seed = rng.next();
                    rspec
                        .with_lanes(lanes)
                        .with_master_seed(lane_seed)
                        .run(proto.as_mut())
                }
                // Scalar trials continue the trial RNG mid-stream, exactly
                // like the historical provider entry points.
                None => rspec.run_with_rng(proto.as_mut(), &mut rng),
            };
            if text {
                if let Some(lanes) = batch {
                    let done: Vec<f64> = outcome
                        .lanes
                        .iter()
                        .filter(|r| r.completed)
                        .map(|r| r.rounds as f64)
                        .collect();
                    let mean =
                        Summary::of(&done).map_or("-".to_string(), |s| format!("{:.1}", s.mean));
                    println!(
                        "  trial {t}: {}/{lanes} lanes completed, mean rounds {mean}",
                        done.len()
                    );
                } else {
                    let r = outcome.single();
                    let fault_note = r.faults.map_or(String::new(), |f| {
                        format!(
                            ", coverage {:.3}, residual {} (live {}, reachable {}), last delivery r{}",
                            r.informed_fraction(),
                            f.residual_uninformed,
                            f.live,
                            f.live_reachable,
                            r.last_delivery_round
                        )
                    });
                    println!(
                        "  trial {t}: completed = {}, rounds = {}, informed = {}/{n}{fault_note}",
                        r.completed, r.rounds, r.informed
                    );
                }
            }
            for (lane, r) in outcome.lanes.iter().enumerate() {
                if let Some(out) = trace_out.as_mut() {
                    let mut tags = vec![("trial", Json::from(t))];
                    if batch.is_some() {
                        tags.push(("lane", Json::from(lane)));
                    }
                    write_fault_events_jsonl(out, &tags, &r.fault_events)
                        .map_err(|e| ParseError(format!("--trace-out: write failed: {e}")))?;
                    let events: Vec<_> = r.trace.iter().map(|rec| rec.to_event()).collect();
                    write_events_jsonl(out, &tags, &events)
                        .map_err(|e| ParseError(format!("--trace-out: write failed: {e}")))?;
                }
                if !text {
                    let mut report = RunReport::from_result(&proto_spec, r)
                        .with_p(p)
                        .with_seed(seed)
                        .with_plan(&outcome.plan)
                        .with_events(r.trace.iter().map(|rec| rec.to_event()).collect());
                    if let Some(epochs) = backoff_epochs_for(&proto_spec, n, r.rounds) {
                        report = report.with_backoff_epochs(epochs);
                    }
                    reports.push(report.to_json());
                }
                if r.completed {
                    completions += 1;
                    rounds.push(r.rounds as f64);
                }
            }
        }
    } else {
        for t in 0..trials {
            let mut rng = child_rng(seed, t as u64);
            let g = spec.instantiate(&mut rng);
            let mut proto = make_protocol(&proto_spec, p)?;
            let mut observer = CollectingObserver::with_timing();
            let fault_plan = fault_cfg
                .as_ref()
                .map(|fc| FaultPlan::generate(&g, fc, rng.next()));
            let mut rspec = RunSpec::on_graph(&g, source).with_config(cfg);
            if let Some(plan) = fault_plan.as_ref() {
                rspec = rspec.with_faults(plan);
            }
            let outcome = rspec.run_observed(proto.as_mut(), &mut rng, &mut observer);
            let r = outcome.single();
            if text {
                let fault_note = r.faults.map_or(String::new(), |f| {
                    format!(
                        ", coverage {:.3}, residual {} (live {}, reachable {}), last delivery r{}",
                        r.informed_fraction(),
                        f.residual_uninformed,
                        f.live,
                        f.live_reachable,
                        r.last_delivery_round
                    )
                });
                println!(
                    "  trial {t}: completed = {}, rounds = {}, informed = {}/{n}{fault_note}",
                    r.completed, r.rounds, r.informed
                );
            }
            if let Some(out) = trace_out.as_mut() {
                write_fault_events_jsonl(out, &[("trial", Json::from(t))], &observer.fault_events)
                    .map_err(|e| ParseError(format!("--trace-out: write failed: {e}")))?;
                write_events_jsonl(out, &[("trial", Json::from(t))], &observer.events)
                    .map_err(|e| ParseError(format!("--trace-out: write failed: {e}")))?;
            }
            if !text {
                let mut report = RunReport::from_result(&proto_spec, r)
                    .with_p(p)
                    .with_seed(seed)
                    .with_wall_ns(observer.total_elapsed_ns())
                    .with_plan(&outcome.plan)
                    .with_events(std::mem::take(&mut observer.events));
                if let Some(epochs) = backoff_epochs_for(&proto_spec, n, r.rounds) {
                    report = report.with_backoff_epochs(epochs);
                }
                reports.push(report.to_json());
            }
            if r.completed {
                completions += 1;
                rounds.push(r.rounds as f64);
            }
        }
    }
    if let Some(out) = trace_out.as_mut() {
        use std::io::Write;
        out.flush()
            .map_err(|e| ParseError(format!("--trace-out: write failed: {e}")))?;
        // args.get("trace-out") is Some whenever trace_out is.
        let path = args.get("trace-out").unwrap_or_default();
        eprintln!("per-round trace written as JSONL to {path}");
    }
    if !text {
        println!("{}", Json::Arr(reports).render_pretty());
        return Ok(());
    }
    let total_runs = trials * batch.unwrap_or(1);
    if let Some(s) = Summary::of(&rounds) {
        println!(
            "summary: {completions}/{total_runs} completed; rounds mean {:.1} ± {:.1} (ln n = {:.1}, B(n,d) = {:.1})",
            s.mean,
            s.std_dev,
            (n as f64).ln(),
            theory::centralized_bound(n, d)
        );
    } else {
        println!("summary: no completed trials");
    }
    Ok(())
}

/// `radio-cli schedule` — build and describe the Theorem-5 schedule.
pub fn schedule(args: &Args) -> CmdResult {
    let spec = GraphSpec::from_args(args)?;
    let (n, d) = (spec.n(), spec.p_equiv() * spec.n() as f64);
    let source: NodeId = args.get_or("source", 0)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let mut rng = Xoshiro256pp::new(seed);
    let g = spec.instantiate(&mut rng);
    if (source as usize) >= n {
        return Err(ParseError("--source out of range".into()));
    }
    let built = build_eg_schedule(&g, source, CentralizedParams::default(), &mut rng);
    println!(
        "centralized schedule on G(n = {n}, d̄ = {:.1}): {} rounds, completed = {}",
        g.average_degree(),
        built.len(),
        built.completed
    );
    println!(
        "bound ln n/ln d + ln d = {:.1}; seed layer T_{}",
        theory::centralized_bound(n, d),
        built.seed_layer
    );
    for phase in [
        Phase::ParityFlood,
        Phase::Seed,
        Phase::Fraction,
        Phase::Cover,
        Phase::BackProp,
    ] {
        println!("  {:?}: {} rounds", phase, built.rounds_in_phase(phase));
    }
    println!(
        "energy: {} transmissions total ({:.2} per node)",
        built.schedule.total_transmissions(),
        built.schedule.total_transmissions() as f64 / n as f64
    );
    if let Some(path) = args.get("save") {
        radio_sim::save_schedule(&built.schedule, std::path::Path::new(path))
            .map_err(|e| ParseError(format!("--save {path}: {e}")))?;
        println!("schedule written to {path}");
    }
    if args.flag("verbose") {
        let replay = run_schedule(
            &g,
            source,
            &built.schedule,
            TransmitterPolicy::InformedOnly,
            TraceLevel::PerRound,
        );
        let mut t = Table::new(vec![
            "round",
            "phase",
            "tx",
            "newly informed",
            "collisions",
            "informed",
        ]);
        for (rec, phase) in replay.trace.iter().zip(&built.phases) {
            t.add_row(vec![
                rec.round.to_string(),
                format!("{phase:?}"),
                rec.transmitters.to_string(),
                rec.newly_informed.to_string(),
                rec.collisions.to_string(),
                rec.informed_after.to_string(),
            ]);
        }
        println!("\n{}", t.render());
    }
    Ok(())
}

/// `radio-cli replay` — replay a saved schedule on a graph.
pub fn replay(args: &Args) -> CmdResult {
    let spec = GraphSpec::from_args(args)?;
    let source: NodeId = args.get_or("source", 0)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let sched_path = args
        .get("schedule")
        .ok_or_else(|| ParseError("--schedule FILE is required".into()))?;
    let schedule = radio_sim::load_schedule(std::path::Path::new(sched_path))
        .map_err(|e| ParseError(format!("--schedule {sched_path}: {e}")))?;
    let mut rng = Xoshiro256pp::new(seed);
    let g = spec.instantiate(&mut rng);
    if (source as usize) >= g.n() {
        return Err(ParseError("--source out of range".into()));
    }
    match radio_broadcast::centralized::verify_schedule(&g, source, &schedule) {
        Ok(cert) => {
            println!(
                "schedule VALID: completes in round {} with {} transmissions and {} collisions",
                cert.completion_round, cert.transmissions, cert.collisions
            );
        }
        Err(violation) => {
            println!("schedule INVALID on this graph: {violation}");
            // Still replay to show how far it gets.
            let r = run_schedule(
                &g,
                source,
                &schedule,
                TransmitterPolicy::InformedOnly,
                TraceLevel::SummaryOnly,
            );
            println!(
                "partial replay: informed {}/{} in {} rounds",
                r.informed,
                g.n(),
                r.rounds
            );
        }
    }
    Ok(())
}

/// `radio-cli structure` — degree and layer structure report.
pub fn structure(args: &Args) -> CmdResult {
    let spec = GraphSpec::from_args(args)?;
    let (n, d) = (spec.n(), spec.p_equiv() * spec.n() as f64);
    let p = spec.p_equiv();
    let seed: u64 = args.get_or("seed", 1)?;
    let mut rng = Xoshiro256pp::new(seed);
    let g = spec.instantiate(&mut rng);
    let ds = DegreeStats::of(&g);
    println!(
        "G(n = {n}, p = {p:.6}): m = {}, degrees [{}, {}] mean {:.1} (α = {:.2}, β = {:.2})",
        g.m(),
        ds.min,
        ds.max,
        ds.mean,
        ds.alpha(),
        ds.beta()
    );
    let source = rng.below(n as u64) as NodeId;
    let layering = Layering::new(&g, source);
    println!(
        "BFS from node {source}: eccentricity {}, {} reachable; predicted diameter ln n/ln d = {:.1}",
        layering.eccentricity(),
        layering.reachable(),
        theory::predicted_diameter(n, d)
    );
    let stats = analyze_layers(&g, &layering);
    let mut t = Table::new(vec![
        "layer",
        "size",
        "d^i",
        "multi-parent frac",
        "intra-edges/node",
    ]);
    for s in &stats {
        let pred = d.powi(s.index as i32).min(n as f64);
        t.add_row(vec![
            s.index.to_string(),
            s.size.to_string(),
            fnum(pred, 0),
            fnum(s.multi_parent_fraction(), 4),
            fnum(s.intra_edge_density(), 4),
        ]);
    }
    println!("\n{}", t.render());
    Ok(())
}

/// `radio-cli gossip` — all-to-all gossiping trials.
pub fn gossip(args: &Args) -> CmdResult {
    let (n, p, d) = graph_params(args)?;
    let trials: usize = args.get_or("trials", 1)?;
    let seed: u64 = args.get_or("seed", 1)?;
    println!("radio gossiping on G(n = {n}, d = {d:.1}), {trials} trial(s), strategy q = 1/d");
    let max_rounds = (400.0 * d * (n as f64).ln() / d.max(1.0)).max(10_000.0) as u32;
    let mut rounds = Vec::new();
    for t in 0..trials {
        let mut rng = child_rng(seed, t as u64);
        let g = sample_gnp(n, p, &mut rng);
        let mut strat = ConstantProb::new((1.0 / d).min(1.0));
        let r = run_radio_gossiping(&g, &mut strat, max_rounds, &mut rng);
        println!(
            "  trial {t}: completed = {}, rounds = {}, knowledge = {:.4}",
            r.completed, r.rounds, r.knowledge_fraction
        );
        if r.completed {
            rounds.push(r.rounds as f64);
        }
    }
    if let Some(s) = Summary::of(&rounds) {
        println!(
            "summary: rounds mean {:.1} ± {:.1} (d·ln n = {:.1})",
            s.mean,
            s.std_dev,
            d * (n as f64).ln()
        );
    }
    Ok(())
}

/// `radio-cli lower` — sample normal-form schedules at the bound scale.
pub fn lower(args: &Args) -> CmdResult {
    let (n, p, d) = graph_params(args)?;
    let trials: usize = args.get_or("trials", 200)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let mut rng = Xoshiro256pp::new(seed);
    let g = sample_gnp(n, p, &mut rng);
    let b = theory::centralized_bound(n, d);
    let max_set = ((n as f64 / d) as usize).max(2);
    println!(
        "Theorem-6 sampling on G(n = {n}, d = {d:.1}): B(n,d) = {b:.1}, sets ≤ {max_set}, {trials} schedules per horizon"
    );
    let mut t = Table::new(vec!["c", "rounds", "completion rate", "mean uninformed"]);
    for &c in &[0.5, 1.0, 2.0, 4.0, 8.0] {
        let len = ((c * b).ceil() as usize).max(1);
        let mut completions = 0usize;
        let mut uninformed = 0usize;
        for i in 0..trials {
            let mut srng = child_rng(seed ^ 0xABCD, i as u64);
            let sched = sample_bounded_sets(n, len, max_set, &mut srng);
            let r = run_relaxed(&g, 0, &sched);
            if r.completed {
                completions += 1;
            }
            uninformed += r.n - r.informed;
        }
        t.add_row(vec![
            fnum(c, 1),
            len.to_string(),
            fnum(completions as f64 / trials as f64, 3),
            fnum(uninformed as f64 / trials as f64, 1),
        ]);
    }
    println!("\n{}", t.render());
    println!("completion ≈ 0 below a constant multiple of B — the Ω(ln n/ln d + ln d) wall.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn argv(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn graph_params_from_d() {
        let (n, p, d) = graph_params(&argv("run --n 1000 --d 25")).unwrap();
        assert_eq!(n, 1000);
        assert!((p - 0.025).abs() < 1e-12);
        assert!((d - 25.0).abs() < 1e-9);
    }

    #[test]
    fn graph_params_from_p() {
        let (_, p, _) = graph_params(&argv("run --n 100 --p 0.5")).unwrap();
        assert_eq!(p, 0.5);
    }

    #[test]
    fn graph_params_conflicts_rejected() {
        assert!(graph_params(&argv("run --n 100 --p 0.5 --d 3")).is_err());
        assert!(graph_params(&argv("run --n 100")).is_err());
        assert!(graph_params(&argv("run --n 1 --d 1")).is_err());
        assert!(graph_params(&argv("run --n 100 --p 1.5")).is_err());
    }

    #[test]
    fn protocol_factory() {
        assert!(make_protocol("eg", 0.01).is_ok());
        assert!(make_protocol("decay", 0.01).is_ok());
        assert!(make_protocol("unknown", 0.01).is_ok());
        assert!(make_protocol("constant:0.05", 0.01).is_ok());
        assert!(make_protocol("constant:2.0", 0.01).is_err());
        assert!(make_protocol("nope", 0.01).is_err());
        let wrapped = make_protocol("restartable:decay", 0.01).unwrap();
        assert_eq!(wrapped.name(), "restartable(decay)");
        assert!(make_protocol("restartable:nope", 0.01).is_err());
    }

    #[test]
    fn run_command_faults() {
        // Scalar and batched runs accept the full fault spec; malformed
        // specs are rejected with a flag-scoped error.
        let args = argv(
            "run --n 200 --d 15 --protocol restartable:eg --trials 1 --seed 3 \
             --faults crash=0.05,sleep=0.1,jam=1,burst=0.3:0.1",
        );
        run(&args).unwrap();
        let args = argv("run --n 200 --d 15 --trials 1 --seed 3 --batch 8 --faults crash=0.1");
        run(&args).unwrap();
        let bad = argv("run --n 200 --d 15 --faults crash=nope");
        let err = run(&bad).unwrap_err();
        assert!(err.0.contains("--faults"), "{err}");
    }

    #[test]
    fn graph_spec_from_file() {
        let dir = std::env::temp_dir().join("radio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tri.edges");
        std::fs::write(&path, "3\n0 1\n1 2\n2 0\n").unwrap();
        let spec = GraphSpec::from_args(&argv(&format!("run --graph {}", path.display()))).unwrap();
        assert_eq!(spec.n(), 3);
        assert!((spec.p_equiv() - 2.0 / 3.0).abs() < 1e-9);
        let mut rng = Xoshiro256pp::new(1);
        let g = spec.instantiate(&mut rng);
        assert_eq!(g.m(), 3);
        // Conflicting flags rejected.
        assert!(
            GraphSpec::from_args(&argv(&format!("run --graph {} --n 5", path.display()))).is_err()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_command_end_to_end() {
        let args = argv("run --n 400 --d 20 --protocol eg --trials 2 --seed 3");
        run(&args).unwrap();
    }

    #[test]
    fn run_command_kernel_selection() {
        for kernel in ["auto", "sparse", "dense"] {
            let args = argv(&format!(
                "run --n 300 --d 20 --protocol eg --trials 1 --seed 3 --kernel {kernel}"
            ));
            run(&args).unwrap();
        }
        // `tiled` is an engine the planner picks for every batched run,
        // not a kernel choice.
        for bad in ["turbo", "tiled"] {
            let args = argv(&format!("run --n 300 --d 20 --trials 1 --kernel {bad}"));
            let err = run(&args).unwrap_err();
            assert!(err.0.contains("unknown kernel"), "{bad}: {err}");
        }
    }

    #[test]
    fn run_command_batch_lane_caps() {
        // Explicit runs batch up to a full tile of lanes, whatever the
        // kernel flag; provider backends stop at one machine word.
        for ok in ["--batch 100", "--batch 1024", "--batch 100 --kernel dense"] {
            let args = argv(&format!(
                "run --n 300 --d 20 --protocol eg --trials 1 --seed 3 {ok}"
            ));
            run(&args).unwrap();
        }
        let bad = argv("run --n 300 --d 20 --trials 1 --seed 3 --batch 1025");
        let err = run(&bad).unwrap_err();
        assert!(err.0.contains("--batch must be in 1..=1024"), "{err}");
        let bad = argv("run --n 300 --d 20 --trials 1 --seed 3 --backend implicit --batch 65");
        let err = run(&bad).unwrap_err();
        assert!(err.0.contains("--batch must be in 1..=64"), "{err}");
    }

    #[test]
    fn run_command_backends() {
        // Every backend completes an end-to-end run; implicit also covers
        // the faulted (materialize-for-plan) and lossy paths.
        for backend in ["auto", "explicit", "implicit", "sharded"] {
            let args = argv(&format!(
                "run --n 300 --d 20 --protocol eg --trials 1 --seed 3 --backend {backend}"
            ));
            run(&args).unwrap();
        }
        let faulted = argv(
            "run --n 200 --d 15 --trials 1 --seed 5 --backend implicit \
             --loss 0.1 --faults crash=0.05,jam=1",
        );
        run(&faulted).unwrap();
        // Incompatible flag combinations are rejected with scoped errors.
        let bad = argv("run --n 300 --d 20 --trials 1 --backend warp");
        assert!(run(&bad).unwrap_err().0.contains("--backend"));
        let bad = argv("run --n 300 --d 20 --trials 1 --backend sharded --kernel dense");
        assert!(run(&bad).unwrap_err().0.contains("--kernel"));
        // Provider backends lane-batch through the sweep engine now.
        let ok = argv(
            "run --n 300 --d 20 --protocol eg --trials 1 --seed 3 --backend implicit --batch 4",
        );
        run(&ok).unwrap();
        let ok = argv(
            "run --n 200 --d 15 --protocol decay --trials 1 --seed 5 --backend sharded \
             --batch 7 --loss 0.1",
        );
        run(&ok).unwrap();
        let ok = argv(
            "run --n 200 --d 15 --trials 1 --seed 5 --backend implicit --batch 8 \
             --faults crash=0.05,jam=1",
        );
        run(&ok).unwrap();
        // ...but the lane ceiling stays one machine word.
        let bad = argv("run --n 300 --d 20 --trials 1 --backend implicit --batch 100");
        assert!(run(&bad).unwrap_err().0.contains("--batch"));
        let dir = std::env::temp_dir().join("radio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("backend-tri.edges");
        std::fs::write(&path, "3\n0 1\n1 2\n2 0\n").unwrap();
        let bad = argv(&format!(
            "run --graph {} --trials 1 --backend implicit",
            path.display()
        ));
        assert!(run(&bad).unwrap_err().0.contains("implicit"));
        // Sharded replays fixed topologies fine (explicit adjacency).
        let ok = argv(&format!(
            "run --graph {} --trials 1 --backend sharded",
            path.display()
        ));
        run(&ok).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_command_batch_lanes() {
        let args = argv("run --n 300 --d 20 --protocol eg --trials 2 --seed 3 --batch 8");
        run(&args).unwrap();
        // Lossy batched runs exercise the canonical-order path.
        let lossy =
            argv("run --n 200 --d 15 --protocol decay --trials 1 --seed 5 --batch 64 --loss 0.2");
        run(&lossy).unwrap();
        for bad in ["0", "1025", "lots"] {
            let args = argv(&format!("run --n 100 --d 10 --trials 1 --batch {bad}"));
            assert!(run(&args).is_err(), "--batch {bad} should be rejected");
        }
    }

    #[test]
    fn flag_conflict_message_is_canonical() {
        let err = FlagConflict::new("--a", "--b", "they disagree").into_err();
        assert_eq!(err.0, "--a conflicts with --b: they disagree");
    }

    #[test]
    fn every_conflicting_pair_reports_through_flag_conflict() {
        // One case per conflicting flag pair; each must render the canonical
        // "<flag> conflicts with <other>: <why>" message.
        let dir = std::env::temp_dir().join("radio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("conflict-tri.edges");
        std::fs::write(&path, "3\n0 1\n1 2\n2 0\n").unwrap();
        let graph = path.display();
        let cases = [
            // --p × --d
            ("run --n 100 --p 0.5 --d 3".to_string(), "--p", "--d"),
            // --graph × --n/--p/--d
            (
                format!("run --graph {graph} --n 5"),
                "--graph",
                "--n/--p/--d",
            ),
            (
                format!("run --graph {graph} --p 0.5"),
                "--graph",
                "--n/--p/--d",
            ),
            (
                format!("run --graph {graph} --d 3"),
                "--graph",
                "--n/--p/--d",
            ),
            // --kernel × provider backends
            (
                "run --n 300 --d 20 --trials 1 --backend implicit --kernel dense".to_string(),
                "--kernel",
                "--backend implicit",
            ),
            (
                "run --n 300 --d 20 --trials 1 --backend sharded --kernel sparse".to_string(),
                "--kernel",
                "--backend sharded",
            ),
            // --backend implicit × --graph
            (
                format!("run --graph {graph} --trials 1 --backend implicit"),
                "--backend implicit",
                "--graph",
            ),
        ];
        for (cmd, flag, other) in &cases {
            let err = run(&argv(cmd)).unwrap_err();
            let want = format!("{flag} conflicts with {other}: ");
            assert!(
                err.0.starts_with(&want),
                "command {cmd:?}: got {:?}, want prefix {want:?}",
                err.0
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn schedule_command_end_to_end() {
        let args = argv("schedule --n 500 --d 25 --seed 3");
        schedule(&args).unwrap();
    }

    #[test]
    fn structure_command_end_to_end() {
        let args = argv("structure --n 500 --d 15 --seed 3");
        structure(&args).unwrap();
    }

    #[test]
    fn gossip_command_end_to_end() {
        let args = argv("gossip --n 120 --d 12 --trials 1 --seed 3");
        gossip(&args).unwrap();
    }

    #[test]
    fn lower_command_end_to_end() {
        let args = argv("lower --n 400 --d 25 --trials 20 --seed 3");
        lower(&args).unwrap();
    }
}
