//! The `radio-node` command-line front end.
//!
//! ```text
//! radio-node workload --nodes N [--degree D] [--ops K] [--ticks T] [--trials R]
//!                     [--seed S] [--faults SPEC] [--partition FROM:LEN[:GROUPS]]...
//!                     [--loss P] [--jitter J] [--backoff BASE:FACTOR:CAP]
//!                     [--assert-coverage X] [--strip-timing] [--json]
//! radio-node node     [--seed S] [--degree D]
//! ```
//!
//! `workload` drives an in-process cluster and prints a
//! [`NodeReport`](crate::report::NodeReport)
//! (text by default, one JSON line with `--json`).  `node` speaks the
//! Maelstrom JSON-lines protocol on stdin/stdout: an `init` envelope
//! first, then `topology` / `broadcast` / `read` / `stats` / `gossip` /
//! `gossip_ack` / `tick` messages, one per line.  An envelope with an
//! unknown `type` or a bad field gets an `error` reply (code 10 or 12)
//! and the node keeps serving; a line that is not a JSON envelope ends
//! it with exit 1.  `--backoff` paces the anti-entropy: the targeted
//! re-sends to a peer known to be behind, and the periodic syncs.
//! `radio-cli node ...` forwards here, mirroring the `bench` forwarding.

use radio_broadcast::distributed::{EgDistributed, Restartable};
use radio_sim::FaultConfig;
use std::io::{BufRead, Write};

use crate::msg::{BadMessage, Body, Message};
use crate::net::Partition;
use crate::node::{BackoffPolicy, GossipNode};
use crate::workload::{run_workload, WorkloadConfig};

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "radio-node — deterministic message-passing broadcast service

  radio-node workload --nodes N [--degree D] [--ops K] [--ticks T] [--trials R]
                      [--seed S] [--faults SPEC] [--partition FROM:LEN[:GROUPS]]...
                      [--loss P] [--jitter J] [--backoff BASE:FACTOR:CAP]
                      [--assert-coverage X] [--strip-timing] [--json]
  radio-node node     [--seed S] [--degree D]

faults SPEC is the radio-cli grammar: crash=RATE[@H],sleep=RATE[@H],jam=K,burst=PB:PG
backoff paces anti-entropy (default 2:2:64): after its k-th send, the next
  re-send to a peer known to be behind, or the next periodic sync (k counts
  syncs since the node last learned a value), comes min(BASE*FACTOR^(k-1), CAP)
  ticks later
node answers init/topology/broadcast/read/stats on stdin; an unknown type or
  a bad field gets an error reply (code 10 or 12), a non-JSON line exits 1
examples:
  radio-node workload --nodes 1024 --ops 32 --partition 10:120 --faults crash=0.05 --json
  echo '{{\"src\":4294967295,\"dest\":0,\"body\":{{\"type\":\"init\",\"msg_id\":1,\"node_id\":0,\"n\":4}}}}' | radio-node node"
    );
    std::process::exit(2);
}

fn parse_backoff(spec: &str) -> Result<BackoffPolicy, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [base, factor, cap] = parts[..] else {
        return Err(format!("backoff {spec:?} is not BASE:FACTOR:CAP"));
    };
    let int = |what: &str, s: &str| -> Result<u64, String> {
        s.parse()
            .map_err(|_| format!("backoff {what}: bad integer {s:?}"))
    };
    let policy = BackoffPolicy {
        base: int("BASE", base)?.max(1),
        factor: int("FACTOR", factor)?.max(1),
        cap: int("CAP", cap)?.max(1),
    };
    Ok(policy)
}

struct WorkloadArgs {
    cfg: WorkloadConfig,
    assert_coverage: Option<f64>,
    strip_timing: bool,
    json: bool,
}

fn parse_workload(rest: &[String]) -> Result<WorkloadArgs, String> {
    let mut out = WorkloadArgs {
        cfg: WorkloadConfig::default(),
        assert_coverage: None,
        strip_timing: false,
        json: false,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--nodes" => out.cfg.n = value()?.parse().map_err(|_| "bad --nodes")?,
            "--degree" => out.cfg.degree = value()?.parse().map_err(|_| "bad --degree")?,
            "--ops" => out.cfg.ops = value()?.parse().map_err(|_| "bad --ops")?,
            "--ticks" => out.cfg.ticks = value()?.parse().map_err(|_| "bad --ticks")?,
            "--trials" => out.cfg.trials = value()?.parse().map_err(|_| "bad --trials")?,
            "--seed" => out.cfg.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--faults" => out.cfg.faults = FaultConfig::parse(value()?)?,
            "--partition" => out.cfg.net.partitions.push(Partition::parse(value()?)?),
            "--loss" => {
                let p: f64 = value()?.parse().map_err(|_| "bad --loss")?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("--loss {p} outside [0, 1]"));
                }
                out.cfg.net.loss = p;
            }
            "--jitter" => {
                out.cfg.net.delay_jitter = value()?.parse().map_err(|_| "bad --jitter")?
            }
            "--backoff" => out.cfg.backoff = parse_backoff(value()?)?,
            "--assert-coverage" => {
                out.assert_coverage = Some(value()?.parse().map_err(|_| "bad --assert-coverage")?)
            }
            "--strip-timing" => out.strip_timing = true,
            "--json" => out.json = true,
            other => return Err(format!("unknown workload flag {other}")),
        }
    }
    if out.cfg.n == 0 || out.cfg.ops == 0 || out.cfg.ticks == 0 {
        return Err("--nodes, --ops, and --ticks must be positive".into());
    }
    Ok(out)
}

fn cmd_workload(rest: &[String]) {
    let args = match parse_workload(rest) {
        Ok(a) => a,
        Err(e) => usage(&e),
    };
    let mut report = run_workload(&args.cfg);
    if args.strip_timing {
        report = report.strip_timing();
    }
    if args.json {
        println!("{}", report.to_json().render());
    } else {
        println!(
            "radio-node workload: n={} ops={} trials={} seed={}",
            report.n, report.ops, report.trials, report.seed
        );
        println!(
            "  coverage {:.4} ({}/{} trials converged)",
            report.coverage, report.converged_trials, report.trials
        );
        println!(
            "  msgs/op {:.2}  sent {}  delivered {}  dropped {}  retries {}",
            report.msgs_per_op,
            report.msgs_sent,
            report.msgs_delivered,
            report.msgs_dropped,
            report.retries
        );
        println!(
            "  delivery p50 {} p99 {} ticks  stale-window max {}  post-heal {}",
            report.delivery_p50,
            report.delivery_p99,
            report.stale_window_max,
            report.post_heal_ticks
        );
    }
    if let Some(min) = args.assert_coverage {
        if report.coverage < min {
            eprintln!(
                "error: coverage {:.4} below required {:.4}",
                report.coverage, min
            );
            std::process::exit(1);
        }
    }
}

/// The stdio node loop, split from `cmd_node` so tests can drive it with
/// in-memory readers and writers.
pub fn node_loop<R: BufRead, W: Write>(
    input: R,
    mut output: W,
    seed: u64,
    degree: f64,
) -> Result<(), String> {
    let mut node: Option<GossipNode<Restartable<EgDistributed>>> = None;
    let mut cluster = 0u32;
    let mut tick = 1u64;
    for line in input.lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let msg = match Message::from_line(&line) {
            Ok(msg) => msg,
            // A readable envelope with a body the node cannot serve gets
            // a typed `error` reply and the service keeps reading; a line
            // that is not an envelope at all ends it.
            Err(BadMessage {
                reply: Some(reply), ..
            }) if node.is_some() => {
                writeln!(output, "{}", reply.to_line()).map_err(|e| format!("stdout: {e}"))?;
                continue;
            }
            Err(bad) => return Err(bad.text),
        };
        let replies = match (&mut node, &msg.body) {
            (slot @ None, Body::Init { msg_id, node_id, n }) => {
                if *n == 0 {
                    return Err("init: n must be at least 1, got 0".into());
                }
                if *node_id >= *n {
                    return Err(format!("init: node_id {node_id} out of range for n = {n}"));
                }
                cluster = *n;
                let n = *n as usize;
                let p = (degree / n.max(1) as f64).min(1.0);
                let mut fresh = GossipNode::new(
                    Restartable::auto(EgDistributed::new(p)),
                    *node_id,
                    n,
                    Vec::new(),
                    seed,
                    BackoffPolicy::default(),
                );
                let replies = fresh.handle(msg.clone(), tick);
                *slot = Some(fresh);
                debug_assert!(matches!(
                    replies[0].body,
                    Body::InitOk { in_reply_to } if in_reply_to == *msg_id
                ));
                replies
            }
            (None, _) => return Err(format!("first message must be init, got {line}")),
            (Some(_), Body::Init { .. }) => return Err("duplicate init".into()),
            (Some(node), body) => {
                if let Body::Topology { neighbors, .. } = body {
                    if let Some(v) = neighbors.iter().find(|&&v| v >= cluster) {
                        return Err(format!(
                            "topology: neighbors entry {v} out of range for n = {cluster}"
                        ));
                    }
                }
                if let Body::Tick { tick: t } = body {
                    tick = (*t).max(tick);
                }
                node.handle(msg.clone(), tick)
            }
        };
        for reply in replies {
            writeln!(output, "{}", reply.to_line()).map_err(|e| format!("stdout: {e}"))?;
        }
    }
    Ok(())
}

fn cmd_node(rest: &[String]) {
    let (mut seed, mut degree) = (1u64, 12.0f64);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || -> &String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--degree" => degree = value().parse().unwrap_or_else(|_| usage("bad --degree")),
            other => usage(&format!("unknown node flag {other}")),
        }
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    if let Err(e) = node_loop(stdin.lock(), stdout.lock(), seed, degree) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Entry point shared by the `radio-node` binary and the `radio-cli node`
/// forwarding.
pub fn cli_main(argv: Vec<String>) {
    match argv.first().map(String::as_str) {
        None | Some("--help") | Some("-h") | Some("help") => usage(""),
        Some("workload") => cmd_workload(&argv[1..]),
        Some("node") => cmd_node(&argv[1..]),
        Some(other) => usage(&format!("unknown subcommand {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::CLIENT;

    #[test]
    fn backoff_spec_parses() {
        assert_eq!(
            parse_backoff("2:3:50").unwrap(),
            BackoffPolicy {
                base: 2,
                factor: 3,
                cap: 50
            }
        );
        assert!(parse_backoff("2:3").is_err());
        assert!(parse_backoff("a:b:c").is_err());
    }

    #[test]
    fn workload_flags_build_a_config() {
        let argv: Vec<String> = [
            "--nodes",
            "128",
            "--ops",
            "4",
            "--ticks",
            "300",
            "--seed",
            "9",
            "--loss",
            "0.1",
            "--partition",
            "5:20:4",
            "--faults",
            "crash=0.1",
            "--backoff",
            "1:2:16",
            "--strip-timing",
            "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = parse_workload(&argv).unwrap();
        assert_eq!(args.cfg.n, 128);
        assert_eq!(args.cfg.net.partitions.len(), 1);
        assert_eq!(args.cfg.net.partitions[0].groups, 4);
        assert_eq!(args.cfg.faults.crash_rate, 0.1);
        assert_eq!(args.cfg.backoff.cap, 16);
        assert!(args.strip_timing && args.json);
        assert!(parse_workload(&["--bogus".to_string()]).is_err());
    }

    #[test]
    fn stdio_node_speaks_the_wire_protocol() {
        let script = [
            Message {
                src: CLIENT,
                dest: 0,
                body: Body::Init {
                    msg_id: 1,
                    node_id: 0,
                    n: 4,
                },
            },
            Message {
                src: CLIENT,
                dest: 0,
                body: Body::Topology {
                    msg_id: 2,
                    neighbors: vec![1, 2],
                },
            },
            Message {
                src: CLIENT,
                dest: 0,
                body: Body::Broadcast {
                    msg_id: 3,
                    value: 41,
                },
            },
            Message {
                src: CLIENT,
                dest: 0,
                body: Body::Read { msg_id: 4 },
            },
        ];
        let input: String = script.iter().map(|m| m.to_line() + "\n").collect();
        let mut out = Vec::new();
        node_loop(input.as_bytes(), &mut out, 7, 12.0).unwrap();
        let lines: Vec<Message> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Message::from_line(l).unwrap())
            .collect();
        assert!(matches!(lines[0].body, Body::InitOk { in_reply_to: 1 }));
        assert!(matches!(lines[1].body, Body::TopologyOk { in_reply_to: 2 }));
        assert!(matches!(
            lines[2].body,
            Body::BroadcastOk { in_reply_to: 3 }
        ));
        match &lines[3].body {
            Body::ReadOk {
                in_reply_to,
                values,
            } => {
                assert_eq!(*in_reply_to, 4);
                assert_eq!(values, &[41]);
            }
            other => panic!("expected read_ok, got {other:?}"),
        }
    }

    /// Runs `lines` (after an `init` of node 0 in a cluster of 4) through
    /// the stdio loop and returns the reply lines after `init_ok`.
    fn serve(lines: &[&str]) -> Vec<Message> {
        let mut input = String::from(
            "{\"src\":4294967295,\"dest\":0,\"body\":{\"type\":\"init\",\"msg_id\":1,\"node_id\":0,\"n\":4}}\n",
        );
        for line in lines {
            input.push_str(line);
            input.push('\n');
        }
        let mut out = Vec::new();
        node_loop(input.as_bytes(), &mut out, 7, 12.0).unwrap();
        let replies: Vec<Message> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Message::from_line(l).unwrap())
            .collect();
        assert!(matches!(replies[0].body, Body::InitOk { in_reply_to: 1 }));
        replies[1..].to_vec()
    }

    #[test]
    fn stdio_node_answers_bad_bodies_with_an_error_and_keeps_serving() {
        let replies = serve(&[
            r#"{"src":4294967295,"dest":0,"body":{"type":"bogus","msg_id":2}}"#,
            r#"{"src":4294967295,"dest":0,"body":{"type":"broadcast","msg_id":3}}"#,
            r#"{"src":4294967295,"dest":0,"body":{"type":"read","msg_id":4}}"#,
        ]);
        let bodies: Vec<&Body> = replies.iter().map(|m| &m.body).collect();
        assert!(
            matches!(
                bodies[0],
                Body::Error {
                    in_reply_to: Some(2),
                    code: 10,
                    ..
                }
            ),
            "{bodies:?}"
        );
        assert!(
            matches!(
                bodies[1],
                Body::Error {
                    in_reply_to: Some(3),
                    code: 12,
                    ..
                }
            ),
            "{bodies:?}"
        );
        assert!(
            matches!(bodies[2], Body::ReadOk { in_reply_to: 4, values } if values.is_empty()),
            "{bodies:?}"
        );
        assert!(replies.iter().all(|m| m.dest == CLIENT && m.src == 0));
    }

    #[test]
    fn stdio_node_reports_its_counters() {
        let replies = serve(&[
            r#"{"src":4294967295,"dest":0,"body":{"type":"topology","msg_id":2,"neighbors":[1,2]}}"#,
            r#"{"src":4294967295,"dest":0,"body":{"type":"broadcast","msg_id":3,"value":42}}"#,
            r#"{"src":1,"dest":0,"body":{"type":"gossip","values":[7]}}"#,
            r#"{"src":4294967295,"dest":0,"body":{"type":"stats","msg_id":5}}"#,
        ]);
        // topology_ok, broadcast_ok, the gossip_ack to node 1 (it lacks
        // 42), then the counters that ack is counted in.
        assert!(matches!(&replies[2].body, Body::GossipAck { values } if values == &[7, 42]));
        assert_eq!(
            replies[3].body,
            Body::StatsOk {
                in_reply_to: 5,
                gossip_sent: 0,
                acks_sent: 1,
                retries: 0,
            }
        );
    }

    #[test]
    fn stdio_node_rejects_protocol_violations() {
        let broadcast_first =
            "{\"src\":4294967295,\"dest\":0,\"body\":{\"type\":\"read\",\"msg_id\":1}}\n";
        let mut out = Vec::new();
        assert!(node_loop(broadcast_first.as_bytes(), &mut out, 7, 12.0).is_err());
        assert!(node_loop("not json\n".as_bytes(), &mut out, 7, 12.0).is_err());
        let init = |node_id: u32, n: u32| {
            format!(
                "{{\"src\":4294967295,\"dest\":0,\"body\":{{\"type\":\"init\",\
                 \"msg_id\":1,\"node_id\":{node_id},\"n\":{n}}}}}\n"
            )
        };
        let topology = "{\"src\":4294967295,\"dest\":0,\"body\":{\"type\":\"topology\",\
                        \"msg_id\":2,\"neighbors\":[9,99]}}\n";
        for (input, field) in [
            (init(7, 0), "n must be at least 1"),
            (init(3, 3), "node_id 3 out of range"),
            (init(0, 3) + topology, "neighbors entry 9 out of range"),
        ] {
            let err = node_loop(input.as_bytes(), &mut out, 7, 12.0).unwrap_err();
            assert!(err.contains(field), "{input}: {err}");
        }
    }
}
