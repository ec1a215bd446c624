//! Experiment E-SUM — one-page performance summary (`BENCH_sim.json`).
//!
//! Aggregates the repo's three headline performance numbers into a single
//! versioned [`BenchReport`] committed at the repository root as
//! `BENCH_sim.json`, so the trajectory of the simulator is visible across
//! PRs without re-running every experiment:
//!
//! 1. **round-engine throughput** — `execute_round` at the `1/d`
//!    transmitter fraction the protocols use, in transmitters/second, plus
//!    the no-op-observer replay to pin the "observer is free" invariant;
//! 2. **schedule-build time** — `build_eg_schedule` (the five-phase
//!    centralized construction) wall time at a fixed `(n, p)`;
//! 3. **protocol round counts** — eg-distributed and decay at a fixed
//!    `(n, p)` with 95% confidence intervals.
//!
//! Section 1b adds the forced sparse-vs-dense kernel pair.  Section 1d
//! measures the tiled many-lane engine at the same `(n, d)`: the raw
//! 1024-lane gather/compress row sweep (`elems/s` there is *trial*
//! throughput), plus a full 1024-lane protocol run as the planner plans
//! it (the `--batch L` CLI path).  Section 4
//! runs the Theorem-7-shaped EG broadcast on the **implicit** backend at
//! `n = 10⁴…10⁶` (`10⁷` in `--full`) with no adjacency in memory,
//! recording rounds, wall time, edge throughput, and the process's peak
//! RSS — the measured table behind `docs/SCALING.md`.  Section 4b repeats
//! the largest size(s) with 64 trial lanes riding one regenerated edge
//! stream (the planner's lane-sweep engine), recording
//! trials-per-wall-second against the lane-1 baseline.  Section 5 runs
//! the `radio-node` message-passing service through its E-NODE
//! partition+crash scenario, recording msgs-per-op and delivery latency
//! percentiles (coverage must stay 1.0).
//!
//! Unlike the other experiments, this one writes JSON *by default*: to
//! `BENCH_sim.json` in the current directory unless `--json PATH`,
//! `--json-dir DIR`, or `RADIO_JSON_OUT` overrides the destination.

use radio_broadcast::centralized::{build_eg_schedule, CentralizedParams};
use radio_broadcast::distributed::{Decay, EgDistributed};
use radio_graph::gnp::sample_gnp;
use radio_graph::{AlignedWords, GraphProvider, ImplicitGnp, NodeId, TileLayout, Xoshiro256pp};
use radio_sim::wide::{sweep_rows, TiledTable};
use radio_sim::{
    run_schedule, run_schedule_observed, BroadcastState, EngineKernel, Json, KernelUsed,
    NoopObserver, PlannedEngine, RoundEngine, RunConfig, RunSpec, Schedule, TraceLevel,
    TransmitterPolicy,
};
use std::hint::black_box;

use crate::common::{measure_protocol, point_seed};
use crate::experiments::t7::scale_p;
use crate::harness::Harness;
use crate::outln;
use crate::registry::{ExpContext, Experiment};
use crate::report::{protocol_point_to_json, BenchPoint, BenchReport};

/// Best-effort peak RSS of this process in KiB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Aggregate performance summary (the `BENCH_sim.json` producer).
pub struct Summary;

impl Experiment for Summary {
    fn name(&self) -> &'static str {
        "summary"
    }
    fn banner_id(&self) -> &'static str {
        "E-SUM"
    }
    fn claim(&self) -> &'static str {
        "aggregate performance summary: engine throughput, schedule build, protocol rounds"
    }
    fn default_grid(&self) -> Vec<(&'static str, &'static str)> {
        vec![("sections", "engine/kernels/schedule/protocols")]
    }
    fn default_json_out(&self) -> Option<std::path::PathBuf> {
        Some(std::path::PathBuf::from("BENCH_sim.json"))
    }

    fn run(&self, ctx: &ExpContext) -> BenchReport {
        let args = &ctx.args;
        let mut report = BenchReport::new("sim_summary", self.claim(), args.mode(), args.seed);

        // ---- 1. round-engine throughput ---------------------------------------
        let n = args.size(args.scale(20_000, 50_000, 100_000));
        let d = 50.0;
        outln!(ctx, "## 1. Round-engine throughput (n = {n}, d = {d})\n");
        let mut h = Harness::new("engine");
        h.sample_size(args.scale(5, 10, 20)).quiet(true);
        let mut rng = Xoshiro256pp::new(point_seed(args.seed, "sum/engine"));
        let g = sample_gnp(n, d / n as f64, &mut rng);
        let mut state = BroadcastState::new(n, 0);
        for v in 0..(n / 2) as NodeId {
            state.inform(v, 0);
        }
        let transmitters: Vec<NodeId> = (0..(n / 2) as NodeId)
            .filter(|_| rng.next_f64() < 1.0 / d)
            .collect();
        // Forced sparse so this label stays comparable with the committed
        // baseline across PRs (the kernel comparison has its own points below).
        let mut engine = RoundEngine::new(&g).with_kernel(EngineKernel::Sparse);
        h.bench_with_throughput(
            "execute_round_frac_1_over_d",
            Some(transmitters.len() as u64),
            || {
                let mut st = state.clone();
                black_box(engine.execute_round(&mut st, &transmitters, 1))
            },
        );
        let schedule = Schedule::from_rounds(vec![transmitters.clone(); 8]);
        h.bench("replay_plain", || {
            black_box(run_schedule(
                &g,
                0,
                &schedule,
                TransmitterPolicy::InformedOnly,
                TraceLevel::SummaryOnly,
            ))
        });
        h.bench("replay_noop_observer", || {
            black_box(run_schedule_observed(
                &g,
                0,
                &schedule,
                TransmitterPolicy::InformedOnly,
                TraceLevel::SummaryOnly,
                &mut NoopObserver,
            ))
        });
        for stats in h.results() {
            outln!(ctx, "{}", h.render_line(stats));
            let mut point = stats.to_point();
            point.label = format!("engine/{}", point.label);
            if point.label == "engine/execute_round_frac_1_over_d" {
                point = point.field("kernel", Json::from("sparse"));
            }
            report.push(point);
        }

        // ---- 1b. kernel comparison: dense vs sparse ---------------------------
        // Dense-favourable regime: small n (the adjacency bitmap is 8 MiB, well
        // under the cap) and high degree, at the same 1/d transmitter fraction.
        let nk = args.size(8192);
        let dk = 81.0;
        outln!(ctx, "\n## 1b. Kernel comparison (n = {nk}, d = {dk})\n");
        let mut hk = Harness::new("engine");
        hk.sample_size(args.scale(10, 20, 40)).quiet(true);
        let mut rng = Xoshiro256pp::new(point_seed(args.seed, "sum/kernel"));
        let gk = sample_gnp(nk, dk / nk as f64, &mut rng);
        let mut state_k = BroadcastState::new(nk, 0);
        for v in 0..(nk / 2) as NodeId {
            state_k.inform(v, 0);
        }
        let tx_k: Vec<NodeId> = (0..(nk / 2) as NodeId)
            .filter(|_| rng.next_f64() < 1.0 / dk)
            .collect();
        let mut bitmap_build_ns = None;
        for (label, kernel) in [
            ("execute_round_sparse_frac_1_over_d", EngineKernel::Sparse),
            ("execute_round_dense_frac_1_over_d", EngineKernel::Dense),
        ] {
            let mut eng = RoundEngine::new(&gk).with_kernel(kernel);
            hk.bench_with_throughput(label, Some(tx_k.len() as u64), || {
                let mut st = state_k.clone();
                black_box(eng.execute_round(&mut st, &tx_k, 1))
            });
            if let Some(ns) = eng.bitmap_build_ns() {
                bitmap_build_ns = Some(ns);
            }
        }
        for stats in hk.results() {
            outln!(ctx, "{}", hk.render_line(stats));
            let mut point = stats.to_point();
            let kernel = if point.label.contains("dense") {
                "dense"
            } else {
                "sparse"
            };
            point.label = format!("engine/{}", point.label);
            point = point.field("kernel", Json::from(kernel));
            if kernel == "dense" {
                if let Some(ns) = bitmap_build_ns {
                    point = point.field("bitmap_build_ns", Json::from(ns));
                }
            }
            report.push(point);
        }

        // ---- 1d. tiled many-lane kernel ---------------------------------------
        // Same regime once more, but 1024 lanes share one adjacency sweep
        // through the gather/compress row sweep (`radio_sim::wide::sweep_rows`)
        // — the merge+resolve core of the tiled engine, measured raw with the
        // trivial exactly-one resolve so the point isolates kernel throughput.
        // `elems` counts transmitters summed over all lanes, so elems/s is
        // trial throughput, directly comparable with the scalar per-round
        // points of 1b.
        let lanes_t = radio_sim::MAX_TILED_LANES;
        outln!(
            ctx,
            "\n## 1d. Tiled many-lane kernel (n = {nk}, d = {dk}, {lanes_t} lanes)\n"
        );
        let mut ht = Harness::new("tiled");
        ht.sample_size(args.scale(10, 20, 40)).quiet(true);
        let mut rng = Xoshiro256pp::new(point_seed(args.seed, "sum/tiled"));
        let layout = TileLayout::new(lanes_t);
        let c = layout.words_per_node();
        let full = layout.full_pattern();
        // Per-lane transmitter draws at the 1/d fraction over the informed
        // half, packed into the compact table the sweep gathers over.
        let mut remap = vec![0u32; nk];
        let mut tx_rows: Vec<(NodeId, Vec<u64>)> = Vec::new();
        let mut total_tx_t = 0u64;
        for v in 0..nk / 2 {
            let mut row = vec![0u64; c];
            for (g, word) in row.iter_mut().enumerate().take(layout.groups()) {
                let mut w = 0u64;
                for b in 0..64 {
                    if rng.next_f64() < 1.0 / dk {
                        w |= 1 << b;
                    }
                }
                *word = w & layout.group_mask(g);
            }
            let ones: u64 = row.iter().map(|w| u64::from(w.count_ones())).sum();
            if ones > 0 {
                total_tx_t += ones;
                tx_rows.push((v as NodeId, row));
            }
        }
        let mut tc = AlignedWords::zeroed((tx_rows.len() + 1) * c);
        for (slot, (v, row)) in tx_rows.iter().enumerate() {
            remap[*v as usize] = (slot + 1) as u32;
            tc[(slot + 1) * c..(slot + 2) * c].copy_from_slice(row);
        }
        let table = TiledTable {
            graph: &gk,
            tc: &tc,
            remap: &remap,
            c,
            full_pattern: &full,
        };
        // Informed half = full rows (the sweep skips them via full_bits),
        // uninformed half = zero, mirroring the 1b informed state.  The
        // sweep never writes a full row, so the per-iteration reset only
        // has to re-zero the uninformed half of the plane.
        let mut inf_t = AlignedWords::zeroed(layout.plane_words(nk));
        let mut full_bits = vec![0u64; nk.div_ceil(64)];
        for v in 0..nk / 2 {
            inf_t[v * c..(v + 1) * c].copy_from_slice(&full);
            full_bits[v / 64] |= 1 << (v % 64);
        }
        let max_deg = (0..nk as NodeId).map(|v| gk.degree(v)).max().unwrap_or(0);
        let mut idx_scratch = vec![0u32; max_deg + 16];
        ht.bench_with_throughput("tiled_round_1024x_frac_1_over_d", Some(total_tx_t), || {
            inf_t[nk / 2 * c..].fill(0);
            full_bits[nk / 2 / 64..].fill(0);
            sweep_rows(
                &table,
                0,
                nk,
                &mut inf_t,
                &mut full_bits,
                &mut idx_scratch,
                &mut |_, _, _, _, e1| e1,
            );
            black_box(inf_t[nk * c - 1])
        });
        for stats in ht.results() {
            outln!(ctx, "{}", ht.render_line(stats));
            let mut point = stats.to_point();
            point.label = format!("tiled/{}", point.label);
            point = point
                .field("kernel", Json::from("tiled"))
                .field("batch_lanes", Json::from(lanes_t));
            report.push(point);
        }
        // Composition point: the full tiled engine (lane batching × tiled
        // kernel × intra-round worker pool) end-to-end on the same graph,
        // as the planner picks it for any multi-lane explicit run — the
        // exact path `--batch L` takes.  One run, wall-clock, with the
        // machine-picked worker count recorded alongside.
        let cfg_t = RunConfig::for_graph(nk).with_trace(TraceLevel::SummaryOnly);
        let mut proto_t = EgDistributed::new(dk / nk as f64);
        let lane_seed = rng.next();
        let start = std::time::Instant::now();
        let results = RunSpec::on_graph(&gk, 0)
            .with_config(cfg_t)
            .with_lanes(lanes_t)
            .with_master_seed(lane_seed)
            .run(&mut proto_t)
            .lanes;
        let wall_s = start.elapsed().as_secs_f64();
        debug_assert!(results.iter().all(|r| r.kernel == KernelUsed::Tiled));
        let completed = results.iter().filter(|r| r.completed).count();
        let threads = results.first().map_or(1, |r| r.threads);
        let rounds_mean =
            results.iter().map(|r| r.rounds as f64).sum::<f64>() / results.len().max(1) as f64;
        outln!(
            ctx,
            "full run: {completed}/{lanes_t} lanes completed, mean {rounds_mean:.1} rounds, \
             {wall_s:.2} s, {threads} worker thread(s)"
        );
        report.push(
            BenchPoint::new("tiled/protocol_eg_1024_lanes")
                .field("n", Json::from(nk as u64))
                .field("kernel", Json::from("tiled"))
                .field("threads", Json::from(u64::from(threads)))
                .field("batch_lanes", Json::from(lanes_t))
                .field("completed", Json::from(completed as u64))
                .field("rounds_mean", Json::from(rounds_mean))
                .field("wall_s", Json::from(wall_s))
                .field("lanes_per_s", Json::from(lanes_t as f64 / wall_s.max(1e-9))),
        );

        // ---- 2. schedule-build time -------------------------------------------
        let ns = args.size(args.scale(4_000, 10_000, 30_000));
        let ps = (ns as f64).ln().powi(2) / ns as f64;
        outln!(
            ctx,
            "\n## 2. Centralized schedule build (n = {ns}, d = ln²n)\n"
        );
        let mut hs = Harness::new("schedule");
        hs.sample_size(args.scale(3, 5, 10)).quiet(true);
        let mut rng = Xoshiro256pp::new(point_seed(args.seed, "sum/schedule"));
        let gs = sample_gnp(ns, ps, &mut rng);
        hs.bench("build_eg_schedule", || {
            let mut r = Xoshiro256pp::new(42);
            black_box(build_eg_schedule(
                &gs,
                0,
                CentralizedParams::default(),
                &mut r,
            ))
        });
        for stats in hs.results() {
            outln!(ctx, "{}", hs.render_line(stats));
            let mut point = stats.to_point();
            point.label = format!("schedule/{}", point.label);
            report.push(point);
        }

        // ---- 3. protocol round counts with CIs --------------------------------
        let np = args.size(args.scale(1 << 12, 1 << 13, 1 << 15));
        let pp = (np as f64).ln().powi(2) / np as f64;
        let trials = args.trials_or(args.scale(8, 20, 50));
        outln!(
            ctx,
            "\n## 3. Protocol round counts (n = {np}, d = ln²n, {trials} trials)\n"
        );
        for proto_name in ["eg-distributed", "decay"] {
            let seed = point_seed(args.seed, &format!("sum/proto/{proto_name}"));
            let point = match proto_name {
                "eg-distributed" => {
                    measure_protocol(np, pp, trials, seed, || EgDistributed::new(pp))
                }
                _ => measure_protocol(np, pp, trials, seed, Decay::new),
            };
            let ci = point
                .rounds
                .as_ref()
                .map(|s| (s.mean - 1.96 * s.std_err(), s.mean + 1.96 * s.std_err()));
            match (&point.rounds, ci) {
                (Some(s), Some((lo, hi))) => outln!(
                    ctx,
                    "{proto_name:>16}: mean {:.1} rounds  95% CI [{lo:.1}, {hi:.1}]  ({}/{} completed)",
                    s.mean,
                    point.completed,
                    point.trials
                ),
                _ => outln!(ctx, "{proto_name:>16}: no completions"),
            }
            let mut jp = protocol_point_to_json(&format!("protocol/{proto_name}"), &point);
            if let Some((lo, hi)) = ci {
                jp = jp
                    .field("rounds_ci_lo", Json::from(lo))
                    .field("rounds_ci_hi", Json::from(hi));
            }
            report.push(jp);
        }

        // ---- 4. implicit-backend scale ----------------------------------------
        // Theorem-7-shaped EG broadcast on the seed-only implicit G(n, p)
        // backend at p = 2.5·ln n/n: neighborhoods regenerate from the seed
        // every round, so memory stays O(n) no matter how many edges the
        // graph has.  One run per size (the scale regime trades trials for
        // n; the t7 scale sweep has the multi-trial statistics).
        let scale_ns: Vec<usize> = args.sizes(args.scale(
            vec![10_000, 100_000],
            vec![10_000, 100_000, 1_000_000],
            vec![10_000, 100_000, 1_000_000, 10_000_000],
        ));
        outln!(
            ctx,
            "\n## 4. Implicit-backend scale (EG, p = 2.5·ln n/n, no stored adjacency)\n"
        );
        let mut scalar_wall: Vec<(usize, f64)> = Vec::new();
        for n_s in scale_ns.clone() {
            let p_s = scale_p(n_s);
            let seed = point_seed(args.seed, &format!("sum/scale/{n_s}"));
            let mut rng = Xoshiro256pp::new(seed);
            let graph_seed = rng.next();
            let source = rng.below(n_s as u64) as NodeId;
            let imp = ImplicitGnp::new(n_s, p_s, graph_seed);
            let cfg = RunConfig::for_graph(n_s).with_trace(TraceLevel::SummaryOnly);
            let mut proto = EgDistributed::new(p_s);
            let start = std::time::Instant::now();
            let r = RunSpec::on_provider(&imp, 1, source)
                .with_config(cfg)
                .run_with_rng(&mut proto, &mut rng)
                .into_single();
            let wall_s = start.elapsed().as_secs_f64();
            scalar_wall.push((n_s, wall_s));
            debug_assert_eq!(r.kernel, KernelUsed::Sweep);
            // Edge-visit throughput: every round sweeps all ~m forward edges.
            let m_exp = imp.edge_hint() as f64;
            let edges_per_s = m_exp * r.rounds as f64 / wall_s.max(1e-9);
            let rss = peak_rss_kib();
            outln!(
                ctx,
                "n = {n_s:>9}: {} in {} rounds, {wall_s:.1} s  ({:.1} M edge-visits/s{})",
                if r.completed {
                    "completed"
                } else {
                    "INCOMPLETE"
                },
                r.rounds,
                edges_per_s / 1e6,
                rss.map_or(String::new(), |k| format!(
                    ", peak RSS {:.2} GiB",
                    k as f64 / (1 << 20) as f64
                ))
            );
            let label = format!("provider/implicit_eg_scale_n{n_s}");
            let mut point = BenchPoint::new(&label)
                .field("n", Json::from(n_s as u64))
                .field("p", Json::from(p_s))
                .field("backend", Json::from("implicit"))
                .field("completed", Json::from(r.completed))
                .field("rounds", Json::from(r.rounds))
                .field("wall_s", Json::from(wall_s))
                .field("expected_m", Json::from(m_exp))
                .field("edge_visits_per_s", Json::from(edges_per_s));
            if let Some(kib) = rss {
                point = point.field("peak_rss_kib", Json::from(kib));
            }
            report.push(point);
        }

        // ---- 4b. batched implicit scale ---------------------------------------
        // The same scale run with 64 trial lanes riding one regenerated
        // edge stream per round (the planner's lane-sweep engine): the
        // O(m)-per-round stream regeneration is paid once for all lanes
        // instead of once per trial, so trials-per-wall-second scales
        // almost with the lane count.  Measured at the largest size(s) of
        // the sweep; `trials_per_s_vs_scalar` is the headline ratio
        // against the matching lane-1 point above.
        let lanes_s = radio_sim::MAX_LANES;
        let batch_ns: Vec<usize> = {
            let take = if args.full { 2 } else { 1 };
            let mut v: Vec<usize> = scalar_wall
                .iter()
                .rev()
                .take(take)
                .map(|&(n, _)| n)
                .collect();
            v.reverse();
            v
        };
        outln!(
            ctx,
            "\n## 4b. Batched implicit scale ({lanes_s} lanes per edge stream)\n"
        );
        for n_s in batch_ns {
            let p_s = scale_p(n_s);
            let seed = point_seed(args.seed, &format!("sum/scale-batch/{n_s}"));
            let mut rng = Xoshiro256pp::new(seed);
            let graph_seed = rng.next();
            let source = rng.below(n_s as u64) as NodeId;
            let imp = ImplicitGnp::new(n_s, p_s, graph_seed);
            let cfg = RunConfig::for_graph(n_s).with_trace(TraceLevel::SummaryOnly);
            let mut proto = EgDistributed::new(p_s);
            let lane_seed = rng.next();
            let start = std::time::Instant::now();
            let outcome = RunSpec::on_provider(&imp, 1, source)
                .with_config(cfg)
                .with_lanes(lanes_s)
                .with_master_seed(lane_seed)
                .run(&mut proto);
            let wall_s = start.elapsed().as_secs_f64();
            debug_assert_eq!(outcome.plan.engine, PlannedEngine::LaneSweep);
            let completed = outcome.lanes.iter().filter(|r| r.completed).count();
            let rounds_mean =
                outcome.lanes.iter().map(|r| r.rounds as f64).sum::<f64>() / lanes_s.max(1) as f64;
            let trials_per_s = lanes_s as f64 / wall_s.max(1e-9);
            let speedup = scalar_wall
                .iter()
                .find(|&&(n, _)| n == n_s)
                .map(|&(_, w)| trials_per_s * w.max(1e-9));
            outln!(
                ctx,
                "n = {n_s:>9}: {completed}/{lanes_s} lanes completed, mean {rounds_mean:.1} rounds, \
                 {wall_s:.1} s  ({trials_per_s:.2} trials/s{})",
                speedup.map_or(String::new(), |s| format!(", {s:.1}x vs lane-1"))
            );
            let label = format!("provider/implicit_eg_batch{lanes_s}_n{n_s}");
            let mut point = BenchPoint::new(&label)
                .field("n", Json::from(n_s as u64))
                .field("p", Json::from(p_s))
                .field("backend", Json::from("implicit"))
                .field("plan_engine", Json::from(outcome.plan.engine.as_str()))
                .field("batch_lanes", Json::from(lanes_s))
                .field("completed", Json::from(completed as u64))
                .field("rounds_mean", Json::from(rounds_mean))
                .field("wall_s", Json::from(wall_s))
                .field("trials_per_s", Json::from(trials_per_s));
            if let Some(s) = speedup {
                point = point.field("trials_per_s_vs_scalar", Json::from(s));
            }
            report.push(point);
        }

        // ---- 5. message-passing service -----------------------------------------
        // The event-loop broadcast service (`radio-node`) under the E-NODE
        // partition+crash scenario: one summary point tracking message
        // economy (msgs/op) and delivery latency across PRs.  Coverage is
        // a correctness gate, not a trend — it must be 1.0.
        let n_node = args.size(args.scale(256, 1024, 4096));
        outln!(
            ctx,
            "\n## 5. Message-passing service (n = {n_node}, partition + crash)\n"
        );
        let mut node_cfg = radio_node::WorkloadConfig {
            n: n_node,
            degree: 12.0,
            ops: 16,
            ticks: 1_200,
            trials: args.trials_or(args.scale(1, 2, 4)),
            seed: point_seed(args.seed, "sum/node"),
            ..radio_node::WorkloadConfig::default()
        };
        node_cfg.net.partitions = vec![radio_node::Partition {
            from: 10,
            to: 10 + node_cfg.ticks / 4,
            groups: 2,
        }];
        node_cfg.faults.crash_rate = 0.05;
        node_cfg.faults.sleep_rate = 0.05;
        let start = std::time::Instant::now();
        let nr = radio_node::run_workload(&node_cfg);
        let node_wall = start.elapsed().as_secs_f64();
        outln!(
            ctx,
            "coverage {:.3}, {:.1} msgs/op, delivery p50 {} p99 {} ticks, \
             post-heal {} ticks, {node_wall:.2} s",
            nr.coverage,
            nr.msgs_per_op,
            nr.delivery_p50,
            nr.delivery_p99,
            nr.post_heal_ticks
        );
        report.push(
            BenchPoint::new("node/service_partition_crash")
                .field("n", Json::from(nr.n))
                .field("trials", Json::from(nr.trials))
                .field("coverage", Json::from(nr.coverage))
                .field("msgs_per_op", Json::from(nr.msgs_per_op))
                .field("delivery_p50", Json::from(nr.delivery_p50))
                .field("delivery_p99", Json::from(nr.delivery_p99))
                .field("post_heal_ticks", Json::from(nr.post_heal_ticks))
                .field("retries", Json::from(nr.retries))
                .field("wall_s", Json::from(node_wall)),
        );

        report
    }
}
