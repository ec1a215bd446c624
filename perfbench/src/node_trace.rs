//! The traced node workload: one `run_workload` trial, re-driven through
//! the public `SimNet` / `GossipNode` API so each layer call can be timed.
//!
//! The event loop, the seeds (`run_trials` trial 0, then the
//! `labeled_seed` streams) and the report aggregation follow
//! `radio_node::workload` step for step.  The runner compares the
//! resulting report with `run_workload`'s for the same config and fails
//! the traced run on any difference, so the per-layer node numbers always
//! describe the program that was timed.

use std::collections::VecDeque;
use std::time::Instant;

use radio_broadcast::distributed::{EgDistributed, Restartable};
use radio_graph::{child_rng, labeled_seed, Graph, NodeId, Xoshiro256pp};
use radio_node::node::client_msg;
use radio_node::{
    connected_topology, percentile, Body, GossipNode, NodeReport, SimNet, WorkloadConfig, CLIENT,
    NODE_REPORT_SCHEMA_VERSION, SOURCE,
};
use radio_sim::FaultPlan;

use crate::trace::{generate_faults, sample_graph, TimedProtocol, TraceCtx};

/// Nodes that never crash and stay reachable from [`SOURCE`] through
/// never-crashing nodes (the set `run_workload` measures coverage over).
fn eligible_nodes(g: &Graph, plan: &FaultPlan, horizon: u64) -> Vec<bool> {
    let alive = |v: NodeId| plan.crash_round(v).is_none_or(|r| u64::from(r) > horizon);
    let mut eligible = vec![false; g.n()];
    if g.n() == 0 || !alive(SOURCE) {
        return eligible;
    }
    let mut queue = VecDeque::from([SOURCE]);
    eligible[SOURCE as usize] = true;
    while let Some(u) = queue.pop_front() {
        for &w in g.neighbors(u) {
            if !eligible[w as usize] && alive(w) {
                eligible[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    eligible
}

/// Busy time and entry count of one fine-grained boundary within a call.
#[derive(Default)]
struct Boundary {
    calls: u64,
    busy_s: f64,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Boundary {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.calls += 1;
        self.busy_s += (end - start).as_secs_f64();
        self.first.get_or_insert(start);
        self.last = Some(end);
        out
    }

    fn record(&self, ctx: &mut TraceCtx, name: &'static str) -> Option<u64> {
        let (first, last) = (self.first?, self.last?);
        Some(ctx.aggregate(name, None, (first, last), self.calls, self.busy_s))
    }
}

/// Runs trial 0 of `cfg` (which must ask for one trial) with every layer
/// call timed into `ctx`, and returns the report `run_workload` would.
pub fn traced_trial(cfg: &WorkloadConfig, ctx: &mut TraceCtx) -> NodeReport {
    assert_eq!(cfg.trials, 1, "the traced node run replays one trial");
    let started = Instant::now();
    let n = cfg.n;
    let trial_master = child_rng(cfg.seed, 0).next();

    let mut topo_rng = Xoshiro256pp::new(labeled_seed(trial_master, "node/topo"));
    let g = sample_graph(Some(ctx), || {
        connected_topology(n, cfg.degree, &mut topo_rng)
    });

    let mut faults = cfg.faults;
    faults.exempt = Some(SOURCE);
    let plan = generate_faults(Some(ctx), || {
        FaultPlan::generate(&g, &faults, labeled_seed(trial_master, "node/faults"))
    });

    let eligible = eligible_nodes(&g, &plan, cfg.ticks);
    let eligible_count = eligible.iter().filter(|&&e| e).count().max(1);
    let mut net = SimNet::new(
        n,
        plan,
        cfg.net.clone(),
        labeled_seed(trial_master, "node/net"),
    );
    let node_master = labeled_seed(trial_master, "node/protocol");
    let p = (cfg.degree / n as f64).min(1.0);
    let mut nodes: Vec<GossipNode<TimedProtocol<Restartable<EgDistributed>>>> = (0..n as NodeId)
        .map(|id| {
            GossipNode::new(
                TimedProtocol::new(Restartable::auto(EgDistributed::new(p)), ctx.decide.clone()),
                id,
                n,
                g.neighbors(id).to_vec(),
                node_master,
                cfg.backoff,
            )
        })
        .collect();
    let window = (cfg.ticks / 4).max(1);
    let inject_tick = |j: usize| 1 + (j as u64 * window) / cfg.ops.max(1) as u64;
    let value_of = |j: usize| 1_000 + j as u64;

    let mut send = Boundary::default();
    let mut deliver = Boundary::default();
    let mut handle = Boundary::default();
    let mut tick_b = Boundary::default();
    let (mut gossips, mut gossip_values, mut in_flight_max) = (0u64, 0u64, 0u64);
    let mut count_gossip = |out: &[radio_node::Message]| {
        for msg in out {
            if let Body::Gossip { values } = &msg.body {
                gossips += 1;
                gossip_values += values.len() as u64;
            }
        }
    };

    let mut next_op = 0usize;
    let mut convergence_tick: Option<u64> = None;
    for tick in 1..=cfg.ticks {
        net.begin_tick(tick);
        for msg in deliver.time(|| net.deliver_due(tick)) {
            let dest = msg.dest as usize;
            for out in handle.time(|| nodes[dest].handle(msg, tick)) {
                if out.dest != CLIENT {
                    send.time(|| net.send(tick, out));
                }
            }
        }
        while next_op < cfg.ops && inject_tick(next_op) <= tick {
            let op = client_msg(
                SOURCE,
                Body::Broadcast {
                    msg_id: next_op as u64,
                    value: value_of(next_op),
                },
            );
            let _ = handle.time(|| nodes[SOURCE as usize].handle(op, tick));
            next_op += 1;
        }
        for (id, node) in nodes.iter_mut().enumerate() {
            if net.node_up(id as NodeId, tick) {
                let out = tick_b.time(|| node.on_tick(tick));
                count_gossip(&out);
                for msg in out {
                    send.time(|| net.send(tick, msg));
                }
            }
        }
        in_flight_max = in_flight_max.max(net.in_flight() as u64);
        if next_op == cfg.ops && convergence_tick.is_none() {
            let covered = (0..n)
                .filter(|&v| eligible[v] && nodes[v].values().len() >= cfg.ops)
                .count();
            if covered == eligible_count {
                convergence_tick = Some(tick);
                break;
            }
        }
    }

    let covered = (0..n)
        .filter(|&v| eligible[v] && nodes[v].values().len() >= cfg.ops)
        .count();
    let mut latencies = Vec::new();
    let mut stale_window_max = 0u64;
    for j in 0..next_op {
        let (value, injected) = (value_of(j), inject_tick(j));
        let mut last = injected;
        for v in (0..n).filter(|&v| eligible[v]) {
            if let Some(t) = nodes[v].learned_at(value) {
                latencies.push(t.saturating_sub(injected));
                last = last.max(t);
            }
        }
        stale_window_max = stale_window_max.max(last - injected);
    }
    latencies.sort_unstable();
    let protocol_msgs: u64 = nodes
        .iter()
        .map(|nd| nd.counters.gossip_sent + nd.counters.acks_sent)
        .sum();
    let retries: u64 = nodes.iter().map(|nd| nd.counters.retries).sum();
    let heal = net.heal_tick();

    // Decisions ran inside `on_tick`: file them under the tick aggregate.
    let tick_id = tick_b.record(ctx, "node.tick");
    ctx.flush_decide(tick_id, false);
    handle.record(ctx, "node.handle");
    send.record(ctx, "net.send");
    deliver.record(ctx, "net.deliver");
    let t = &mut ctx.totals;
    t.net_send_s += send.busy_s;
    t.net_deliver_s += deliver.busy_s;
    t.net_sends += net.stats.sent;
    t.net_delivered += net.stats.delivered;
    t.net_dropped += net.stats.dropped();
    t.net_in_flight_max = t.net_in_flight_max.max(in_flight_max);
    t.node_handle_s += handle.busy_s;
    t.node_tick_s += tick_b.busy_s;
    t.node_handle_calls += handle.calls;
    t.node_tick_calls += tick_b.calls;
    t.node_value_retries += retries;
    t.node_gossips += gossips;
    t.node_gossip_values += gossip_values;

    let ops = cfg.ops.max(1);
    NodeReport {
        schema_version: NODE_REPORT_SCHEMA_VERSION,
        n,
        ops: cfg.ops,
        ticks: cfg.ticks,
        trials: 1,
        seed: cfg.seed,
        coverage: covered as f64 / eligible_count as f64,
        converged_trials: usize::from(convergence_tick.is_some()),
        msgs_per_op: protocol_msgs as f64 / ops as f64,
        msgs_sent: net.stats.sent,
        msgs_delivered: net.stats.delivered,
        msgs_dropped: net.stats.dropped(),
        delivery_p50: percentile(&latencies, 50),
        delivery_p99: percentile(&latencies, 99),
        stale_window_max,
        post_heal_ticks: if heal == 0 {
            0
        } else {
            convergence_tick.map_or(0, |t| t.saturating_sub(heal))
        },
        retries,
        wall_ns: started.elapsed().as_nanos() as u64,
    }
}

/// Names the seed-exact fields on which two reports of one config differ
/// (empty when they agree; `wall_ns` is ignored).
pub fn report_mismatches(got: &NodeReport, want: &NodeReport) -> Vec<String> {
    let fields: [(&str, f64, f64); 11] = [
        ("msgs_sent", got.msgs_sent as f64, want.msgs_sent as f64),
        (
            "msgs_delivered",
            got.msgs_delivered as f64,
            want.msgs_delivered as f64,
        ),
        (
            "msgs_dropped",
            got.msgs_dropped as f64,
            want.msgs_dropped as f64,
        ),
        ("retries", got.retries as f64, want.retries as f64),
        ("msgs_per_op", got.msgs_per_op, want.msgs_per_op),
        (
            "delivery_p50",
            got.delivery_p50 as f64,
            want.delivery_p50 as f64,
        ),
        (
            "delivery_p99",
            got.delivery_p99 as f64,
            want.delivery_p99 as f64,
        ),
        ("coverage", got.coverage, want.coverage),
        (
            "converged_trials",
            got.converged_trials as f64,
            want.converged_trials as f64,
        ),
        (
            "stale_window_max",
            got.stale_window_max as f64,
            want.stale_window_max as f64,
        ),
        (
            "post_heal_ticks",
            got.post_heal_ticks as f64,
            want.post_heal_ticks as f64,
        ),
    ];
    fields
        .iter()
        .filter(|(_, a, b)| a.to_bits() != b.to_bits())
        .map(|(name, a, b)| format!("{name}: traced {a} vs run_workload {b}"))
        .collect()
}
