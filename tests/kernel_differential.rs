//! Lane-engine differential suite: every batched run equals its scalar
//! runs, for any lane count and any worker count.
//!
//! The contract of the tiled lane engine (the only explicit multi-lane
//! engine): lane `l` of a batched [`RunSpec`] run with master seed `s` is
//! **bit-identical** to the scalar round engine run on `child_rng(s, l)` —
//! completion flag, round count, informed count, the full per-round trace,
//! fault events and graceful-degradation summaries — for every lane count
//! from 1 to 1024, on plain, lossy, and faulted configurations, whatever
//! scalar kernel the reference uses; and the whole result vector is
//! identical for every intra-round worker count.
//!
//! Most runs here take the worker count from `RADIO_THREADS` (the CI gate
//! runs the suite at 1 and 8); the thread-invariance test passes counts
//! directly (1, 3, and 8) instead, because env vars are process-global and
//! the test harness runs concurrently.
//!
//! The only [`RunResult`] fields allowed to differ between engines are the
//! informational `kernel` and `threads` tags; every comparison normalizes
//! them first.

use radio_broadcast::distributed::{ConstantProb, Decay, EgDistributed};
use radio_graph::gnp::sample_gnp;
use radio_graph::{
    child_rng, derive_seed, Graph, GraphProvider, ImplicitGnp, NodeId, Xoshiro256pp,
};
use radio_sim::{
    EngineKernel, FaultConfig, FaultPlan, KernelUsed, PlannedEngine, Protocol, RunConfig,
    RunResult, RunSpec, MAX_LANES, MAX_TILED_LANES,
};

const THREAD_COUNTS: [usize; 3] = [1, 3, 8];

/// Connectivity-regime edge probability, matching the Theorem 7 sweeps.
fn threshold_p(n: usize) -> f64 {
    (2.5 * (n as f64).ln() / n as f64).min(1.0)
}

fn normalized(mut r: RunResult) -> RunResult {
    r.kernel = KernelUsed::Tiled;
    r.threads = 1;
    r
}

type ProtocolFactory = Box<dyn Fn() -> Box<dyn Protocol>>;

/// EG draws one coin per decision; Decay's draw count depends on the
/// round; ConstantProb is the paper's 1/d baseline.
fn protocol_factories(p: f64) -> Vec<(&'static str, ProtocolFactory)> {
    vec![
        (
            "eg",
            Box::new(move || Box::new(EgDistributed::new(p)) as Box<dyn Protocol>),
        ),
        (
            "decay",
            Box::new(|| Box::new(Decay::new()) as Box<dyn Protocol>),
        ),
        (
            "constant",
            Box::new(|| Box::new(ConstantProb::new(0.2)) as Box<dyn Protocol>),
        ),
    ]
}

/// Crash+sleep+jam+burst plan, generated adversarially with the source
/// exempted (same shape as the backend differential suite).
fn combined_plan(g: &Graph) -> FaultPlan {
    FaultPlan::generate(
        g,
        &FaultConfig {
            crash_rate: 0.05,
            sleep_rate: 0.1,
            jammers: 2,
            burst: Some(radio_sim::BurstParams {
                p_bad: 0.25,
                p_good: 0.3,
            }),
            exempt: Some(0),
            ..FaultConfig::default()
        },
        4242,
    )
}

/// The scalar round engine on lane `lane`'s stream, with the residual
/// stream word that follows the run.
fn scalar_lane(
    g: &Graph,
    source: NodeId,
    proto: &mut dyn Protocol,
    cfg: RunConfig,
    plan: Option<&FaultPlan>,
    master: u64,
    lane: usize,
) -> (RunResult, u64) {
    let mut spec = RunSpec::on_graph(g, source).with_config(cfg);
    if let Some(plan) = plan {
        spec = spec.with_faults(plan);
    }
    let mut rng = child_rng(master, lane as u64);
    let r = spec.run_with_rng(proto, &mut rng).into_single();
    (normalized(r), rng.next())
}

/// Runs `lanes` lanes of `factory()` on the planner's engine (worker
/// count from `RADIO_THREADS`) and checks every lane against its scalar
/// run.
#[allow(clippy::too_many_arguments)]
fn assert_lanes_match_scalar(
    g: &Graph,
    source: NodeId,
    factory: &dyn Fn() -> Box<dyn Protocol>,
    cfg: RunConfig,
    plan: Option<&FaultPlan>,
    master: u64,
    lanes: usize,
    ctx: &str,
) {
    let mut spec = RunSpec::on_graph(g, source)
        .with_config(cfg)
        .with_lanes(lanes)
        .with_master_seed(master);
    if let Some(plan) = plan {
        spec = spec.with_faults(plan);
    }
    let outcome = spec.run(factory().as_mut());
    assert_eq!(outcome.lanes.len(), lanes, "{ctx}");
    if lanes > 1 {
        assert_eq!(outcome.plan.engine, PlannedEngine::Tiled, "{ctx}");
    }
    for (lane, got) in outcome.lanes.into_iter().enumerate() {
        if lanes > 1 {
            assert_eq!(got.kernel, KernelUsed::Tiled, "{ctx}, lane {lane}");
        }
        if plan.is_some() {
            assert!(got.faults.is_some(), "{ctx}, lane {lane}: no fault summary");
        }
        let (want, _) = scalar_lane(g, source, factory().as_mut(), cfg, plan, master, lane);
        assert_eq!(normalized(got), want, "{ctx}, lane {lane}");
    }
}

/// Plain, lossy, and faulted tiled runs are byte-identical for every
/// worker count — full traces, fault events, and summaries included.
#[test]
fn tiled_thread_counts_bit_identical() {
    let n = 512;
    let p = threshold_p(n);
    let imp = ImplicitGnp::new(n, p, 20060501);
    let g = imp.materialize();
    let plan = combined_plan(&g);
    let lanes = 96; // two lane groups: exercises the 16-word row path
    let master = 0xD1FFu64;
    for (case, loss, faulted) in [(0usize, 0.0, false), (1, 0.25, false), (2, 0.2, true)] {
        let cfg = RunConfig::for_graph(n).with_loss(loss);
        let mut want: Option<Vec<RunResult>> = None;
        for threads in THREAD_COUNTS {
            let mut proto = EgDistributed::new(p);
            let mut spec = RunSpec::on_graph(&g, 0)
                .with_config(cfg)
                .with_lanes(lanes)
                .with_master_seed(master)
                .with_threads(threads);
            if faulted {
                spec = spec.with_faults(&plan);
            }
            let got: Vec<RunResult> = spec
                .run(&mut proto)
                .lanes
                .into_iter()
                .map(normalized)
                .collect();
            if faulted {
                assert!(
                    got.iter().all(|r| r.faults.is_some()),
                    "faulty runs must carry a degradation summary"
                );
            }
            match &want {
                None => want = Some(got),
                Some(w) => assert_eq!(
                    *w, got,
                    "case {case}: tiled results changed with {threads} worker threads"
                ),
            }
        }
    }
}

/// Tiled lane `l` equals the scalar run on `child_rng(master, l)` for
/// plain, lossy, and faulted configurations.  The scalar runs also pin
/// the residual RNG stream: the sparse and dense scalar kernels must
/// leave each stream in the same state.
#[test]
fn tiled_lanes_match_scalar() {
    let n = 256;
    let p = threshold_p(n);
    let imp = ImplicitGnp::new(n, p, 31337);
    let g = imp.materialize();
    let plan = combined_plan(&g);
    let lanes = 24;
    let master = 0xBEEFu64;
    for (case, loss, faulted) in [(0usize, 0.0, false), (1, 0.25, false), (2, 0.2, true)] {
        let cfg = RunConfig::for_graph(n).with_loss(loss);
        let plan = faulted.then_some(&plan);
        for (proto_name, make) in protocol_factories(p) {
            let mut spec = RunSpec::on_graph(&g, 0)
                .with_config(cfg)
                .with_lanes(lanes)
                .with_master_seed(master)
                .with_threads(3);
            if let Some(plan) = plan {
                spec = spec.with_faults(plan);
            }
            let tiled = spec.run(make().as_mut()).lanes;
            assert!(tiled.iter().all(|r| r.kernel == KernelUsed::Tiled));

            for (l, got) in tiled.into_iter().enumerate() {
                // Scalar reference: identical result AND residual stream
                // across the sparse and dense scalar kernels.
                let [sparse, dense] = [EngineKernel::Sparse, EngineKernel::Dense].map(|kernel| {
                    scalar_lane(
                        &g,
                        0,
                        make().as_mut(),
                        cfg.with_kernel(kernel),
                        plan,
                        master,
                        l,
                    )
                });
                assert_eq!(
                    sparse, dense,
                    "case {case} {proto_name} lane {l}: scalar kernels disagree"
                );
                assert_eq!(
                    normalized(got),
                    sparse.0,
                    "case {case} {proto_name} lane {l}: tiled diverged from scalar"
                );
            }
        }
    }
}

/// Full 64-lane batches against the scalar engine under every scalar
/// kernel selection (sparse/dense/auto) × loss ∈ {0, 0.2}, for three
/// protocols with different coin patterns and three sources.  The scalar
/// side's kernel is part of the sweep because the contract is transitive:
/// scalar runs are kernel-invariant, so the lanes must match all of them.
#[test]
fn batch_matches_scalar_across_kernels_and_loss() {
    let mut grng = Xoshiro256pp::new(0xBA7C);
    let n = 192;
    let p = 0.06;
    let g = sample_gnp(n, p, &mut grng);
    // Cap the budget so incomplete lanes (budget exhaustion) are exercised
    // without making the scalar side rerun 1300+ rounds per lane.
    let base = RunConfig::for_graph(n).with_max_rounds(60);

    let mut case = 0u64;
    for loss in [0.0, 0.2] {
        for kernel in [
            EngineKernel::Sparse,
            EngineKernel::Dense,
            EngineKernel::Auto,
        ] {
            let cfg = base.with_loss(loss).with_kernel(kernel);
            let master = derive_seed(0x5EED, case);
            case += 1;
            for ((name, make), (source, salt)) in
                protocol_factories(p)
                    .into_iter()
                    .zip([(0, 0u64), (5, 1), (11, 2)])
            {
                let ctx = format!("loss {loss}, {kernel:?}, {name}");
                assert_lanes_match_scalar(&g, source, &make, cfg, None, master ^ salt, 64, &ctx);
            }
        }
    }
}

/// Partial batches (1, 7, 33, 63 lanes) match the same prefix of scalar
/// streams, lossy and lossless.
#[test]
fn partial_batches_match_scalar_prefix() {
    let mut grng = Xoshiro256pp::new(0x9A7);
    let g = sample_gnp(128, 0.08, &mut grng);
    for loss in [0.0, 0.2] {
        let cfg = RunConfig::for_graph(128)
            .with_max_rounds(50)
            .with_loss(loss);
        for lanes in [1usize, 7, 33, 63] {
            assert_lanes_match_scalar(
                &g,
                0,
                &|| Box::new(EgDistributed::new(0.08)),
                cfg,
                None,
                0xAB,
                lanes,
                &format!("{lanes} lanes, loss {loss}"),
            );
        }
    }
}

/// Disconnected graphs: lanes exhaust the budget without completing, and
/// the per-lane informed counts still match the scalar runs.
#[test]
fn incomplete_lanes_match_scalar() {
    let mut grng = Xoshiro256pp::new(0xD15C);
    // Far below the connectivity threshold: isolated vertices guaranteed.
    let g = sample_gnp(150, 0.015, &mut grng);
    let cfg = RunConfig::for_graph(150).with_max_rounds(40);
    assert_lanes_match_scalar(
        &g,
        0,
        &|| Box::new(EgDistributed::new(0.015)),
        cfg,
        None,
        7,
        64,
        "disconnected",
    );
}

/// Random graphs of varying size at 1, 7, 63 and 64 lanes (and past one
/// lane group), alternating lossless and lossy runs.
#[test]
fn random_graph_lane_counts_match_scalar() {
    for (case, lanes) in [1usize, 7, 63, 64, 65, 130].into_iter().enumerate() {
        let case = case as u64;
        let mut grng = Xoshiro256pp::new(derive_seed(0xBA7C, case));
        let n = 40 + grng.below(80) as usize;
        let g = sample_gnp(n, 0.12, &mut grng);
        let loss = if case.is_multiple_of(2) { 0.0 } else { 0.25 };
        let cfg = RunConfig::for_graph(n).with_max_rounds(50).with_loss(loss);
        assert_lanes_match_scalar(
            &g,
            0,
            &|| Box::new(ConstantProb::new(0.3)),
            cfg,
            None,
            derive_seed(0x5EED, case),
            lanes,
            &format!("case {case}, {lanes} lanes"),
        );
    }
}

/// One plan per fault type, plus everything combined (and combined with
/// i.i.d. loss on top), at 7 and 64 lanes: traces, fault events and
/// degradation summaries all equal the scalar faulty runs.
#[test]
fn faulted_lanes_match_scalar_per_fault_type() {
    let n = 96;
    let g = sample_gnp(n, 0.1, &mut Xoshiro256pp::new(derive_seed(0xFA17, 0)));
    let mut crash = FaultPlan::new(n);
    crash.crash(3, 2).crash(10, 5).crash(11, 5);
    let mut sleep = FaultPlan::new(n);
    sleep.sleep(4, 6).sleep(9, 3);
    let mut jam = FaultPlan::new(n);
    jam.jam(7, 2, 12).jam(20, 1, u32::MAX);
    let mut burst = FaultPlan::new(n);
    burst.set_burst(0.4, 0.3);
    let mut combined = FaultPlan::new(n);
    combined
        .crash(3, 2)
        .sleep(4, 6)
        .jam(7, 2, 12)
        .set_burst(0.3, 0.25);

    for (case, (plan, loss)) in [
        (&crash, 0.0),
        (&sleep, 0.0),
        (&jam, 0.0),
        (&burst, 0.0),
        (&combined, 0.0),
        (&combined, 0.2),
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = RunConfig::for_graph(n).with_max_rounds(40).with_loss(loss);
        for lanes in [7, MAX_LANES] {
            assert_lanes_match_scalar(
                &g,
                0,
                &|| Box::new(ConstantProb::new(0.3)),
                cfg,
                Some(plan),
                derive_seed(0x5EED, case as u64),
                lanes,
                &format!("fault case {case}, {lanes} lanes"),
            );
        }
    }
}

/// A single-node graph completes in zero rounds in every lane.
#[test]
fn single_node_graph_completes_in_zero_rounds() {
    let g = Graph::empty(1);
    for lanes in [8, MAX_TILED_LANES] {
        let outcome = RunSpec::on_graph(&g, 0)
            .with_lanes(lanes)
            .with_master_seed(1)
            .run(&mut ConstantProb::new(0.5));
        assert_eq!(outcome.lanes.len(), lanes);
        for r in &outcome.lanes {
            assert!(r.completed);
            assert_eq!((r.rounds, r.informed), (0, 1));
            assert_eq!(r.kernel, KernelUsed::Tiled);
        }
    }
}

#[test]
#[should_panic(expected = "lanes must be >= 1")]
fn zero_lanes_rejected() {
    let g = Graph::path(3);
    let _ = RunSpec::on_graph(&g, 0)
        .with_lanes(0)
        .run(&mut ConstantProb::new(0.5));
}

#[test]
#[should_panic(expected = "at most 1024 lanes")]
fn lanes_past_a_full_tile_rejected() {
    let g = Graph::path(3);
    let _ = RunSpec::on_graph(&g, 0)
        .with_lanes(MAX_TILED_LANES + 1)
        .run(&mut ConstantProb::new(0.5));
}
