//! Cross-crate contract for the `radio-node` broadcast service: the
//! event-loop cluster built on `radio-broadcast`'s Thm-7 cadence and
//! `radio-sim`'s fault plans must recover from partitions and crashes
//! with full coverage, and whole workload runs must be bit-reproducible
//! from the master seed.

use radio_node::{
    run_workload, BackoffPolicy, Body, GossipNode, Message, NetConfig, Partition, SimNet,
    WorkloadConfig, CLIENT,
};
use radio_sim::{FaultConfig, FaultPlan, Json};

fn damaged_config(seed: u64, trials: usize) -> WorkloadConfig {
    let mut cfg = WorkloadConfig {
        n: 96,
        degree: 12.0,
        ops: 12,
        ticks: 900,
        trials,
        seed,
        ..WorkloadConfig::default()
    };
    cfg.faults = FaultConfig::parse("crash=0.05,sleep=0.1").unwrap();
    cfg.net.loss = 0.02;
    cfg.net.partitions = vec![Partition {
        from: 10,
        to: 180,
        groups: 2,
    }];
    cfg
}

#[test]
fn partitioned_crashing_cluster_recovers_to_full_coverage() {
    let report = run_workload(&damaged_config(2024, 2));
    assert_eq!(
        report.coverage, 1.0,
        "live reachable nodes must converge: {report:?}"
    );
    assert_eq!(report.converged_trials, 2);
    assert!(
        report.post_heal_ticks > 0,
        "convergence is gated on the heal"
    );
    assert!(
        report.retries > 0,
        "the damage must exercise the retry path"
    );
    assert!(report.msgs_dropped > 0);
    assert!(report.delivery_p50 <= report.delivery_p99);
}

/// `msgs_per_op` counts every message a node hands to the network, and
/// nothing else: times the op count it is exactly the network's `sent`.
/// A new message kind the counters miss would break the equality.
#[test]
fn msgs_per_op_accounts_for_every_sent_message() {
    let quiet = WorkloadConfig {
        n: 64,
        ops: 8,
        ticks: 400,
        trials: 2,
        seed: 5,
        ..WorkloadConfig::default()
    };
    for cfg in [damaged_config(2024, 2), quiet] {
        let report = run_workload(&cfg);
        let total_ops = (cfg.ops * cfg.trials) as f64;
        assert_eq!(
            report.msgs_per_op * total_ops,
            report.msgs_sent as f64,
            "{report:?}"
        );
        assert!(report.msgs_sent > 0);
    }
}

/// One cell of the node fault matrix: 1024 nodes, 16 ops, 2 trials,
/// 1200 ticks unless the cell says otherwise.  Every cell must cover
/// every eligible node and converge in both trials.
fn fault_matrix_cell(seed: u64, ticks: u64, faults: &str, loss: f64, jitter: u64, cut: &[&str]) {
    let mut cfg = WorkloadConfig {
        n: 1024,
        ops: 16,
        ticks,
        trials: 2,
        seed,
        ..WorkloadConfig::default()
    };
    if !faults.is_empty() {
        cfg.faults = FaultConfig::parse(faults).unwrap();
    }
    cfg.net.loss = loss;
    cfg.net.delay_jitter = jitter;
    cfg.net.partitions = cut.iter().map(|p| Partition::parse(p).unwrap()).collect();
    let report = run_workload(&cfg);
    assert_eq!(report.coverage, 1.0, "{cfg:?}: {report:?}");
    assert_eq!(report.converged_trials, 2, "{cfg:?}: {report:?}");
}

#[test]
fn fault_matrix_loss_crash_sleep() {
    fault_matrix_cell(5, 1200, "crash=0.05,sleep=0.1", 0.2, 0, &[]);
}

#[test]
fn fault_matrix_jitter_loss_three_way_partition() {
    fault_matrix_cell(6, 1200, "", 0.05, 4, &["50:200:3"]);
}

#[test]
fn fault_matrix_crash_sleep_light_burst() {
    fault_matrix_cell(7, 1200, "crash=0.05,sleep=0.05,burst=0.1:0.3", 0.0, 0, &[]);
}

#[test]
fn fault_matrix_partition_crash_sticky_burst() {
    fault_matrix_cell(3, 1200, "crash=0.05,burst=0.05:0.5", 0.0, 0, &["10:200"]);
}

/// Bursts with a 75% stationary bad fraction (p_bad 0.3, p_good 0.1).
#[test]
fn fault_matrix_mostly_bad_burst() {
    fault_matrix_cell(9, 1500, "crash=0.05,burst=0.3:0.1", 0.0, 0, &[]);
}

#[test]
fn workload_reports_are_seed_reproducible_bytes() {
    let render = |seed: u64| {
        run_workload(&damaged_config(seed, 2))
            .strip_timing()
            .to_json()
            .render()
    };
    let first = render(7);
    assert_eq!(first, render(7), "same seed, same bytes");
    assert_ne!(first, render(8), "seed must matter");
    // And the rendered report round-trips through the public parser.
    let parsed = radio_node::NodeReport::from_json(&Json::parse(&first).unwrap()).unwrap();
    assert_eq!(parsed.to_json().render(), first);
}

#[test]
fn gossip_values_survive_a_round_trip_through_the_wire_format() {
    // An in-process conversation rendered to JSON lines and parsed back
    // must drive a second node to the same state — the stdio mode and
    // the in-process mode speak the same protocol.
    let mk = || {
        GossipNode::new(
            radio_broadcast::distributed::Flooding,
            0,
            4,
            vec![1],
            5,
            BackoffPolicy::default(),
        )
    };
    let mut direct = mk();
    let mut via_wire = mk();
    let script = vec![
        Message {
            src: CLIENT,
            dest: 0,
            body: Body::Broadcast {
                msg_id: 1,
                value: 31,
            },
        },
        Message {
            src: 1,
            dest: 0,
            body: Body::Gossip {
                values: vec![31, 77],
            },
        },
        Message {
            src: CLIENT,
            dest: 0,
            body: Body::Read { msg_id: 2 },
        },
    ];
    for (t, msg) in script.into_iter().enumerate() {
        let now = t as u64 + 1;
        let a = direct.handle(msg.clone(), now);
        let relined = Message::from_line(&msg.to_line()).unwrap();
        let b = via_wire.handle(relined, now);
        assert_eq!(a, b);
    }
    assert_eq!(direct.values(), via_wire.values());
    assert!(direct.values().contains(&77));
}

#[test]
fn simnet_respects_the_shared_fault_plan() {
    // The same FaultPlan type the round engines consume drives the
    // event-loop network: a crash in the plan silences the node here too.
    let mut plan = FaultPlan::new(4);
    plan.crash(2, 3);
    let mut net = SimNet::new(4, plan, NetConfig::default(), 1);
    assert!(net.node_up(2, 2));
    assert!(!net.node_up(2, 3), "crashed from round 3 on");
    net.send(
        3,
        Message {
            src: 2,
            dest: 0,
            body: Body::Gossip { values: vec![1] },
        },
    );
    assert_eq!(
        net.stats.dropped_down, 1,
        "crashed sender transmits nothing"
    );
}

/// Set in the environment of the child process that
/// `hostile_nesting_on_stdin_is_an_ordinary_error` spawns.
const STDIN_NODE_CHILD: &str = "RADIO_NODE_STDIN_CHILD";

/// Child half of `hostile_nesting_on_stdin_is_an_ordinary_error`: when
/// spawned with [`STDIN_NODE_CHILD`] set, runs the `radio-node node`
/// entry point on this process's stdin (it exits the process itself).
/// Without the variable it does nothing.
#[test]
fn stdin_node_child() {
    if std::env::var_os(STDIN_NODE_CHILD).is_some() {
        radio_node::cli::cli_main(vec!["node".into(), "--seed".into(), "7".into()]);
        std::process::exit(0);
    }
}

/// 200k nested `[` on one stdin line used to overflow the stack and abort
/// the service (SIGABRT, exit 134).  The JSON depth cap turns the line
/// into an ordinary parse error: the process reports it and exits 1.
#[test]
fn hostile_nesting_on_stdin_is_an_ordinary_error() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let mut child = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "stdin_node_child",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(STDIN_NODE_CHILD, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the stdin node child");
    {
        let mut stdin = child.stdin.take().unwrap();
        let mut line = "[".repeat(200_000);
        line.push('\n');
        stdin.write_all(line.as_bytes()).unwrap();
    }
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(out.status.signal(), None, "killed by a signal: {stderr}");
    }
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}
