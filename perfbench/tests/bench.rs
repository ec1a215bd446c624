//! The benchmark's own tests, at tiny sizes: every workload passes its
//! gates, seed-exact results repeat across runs and thread counts, and a
//! corrupted result is caught by its gate.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use perfbench::node_trace::report_mismatches;
use perfbench::runner::{run, Options};
use perfbench::trace::EVERY_WORKLOAD;
use perfbench::workloads::{CallOut, Inputs, Scale, Workload};
use radio_sim::{Json, RunReport};

const END_TO_END: [&str; 6] = [
    "setup_s",
    "peak_rss_mib",
    "rounds_mean",
    "msgs_per_op",
    "delivery_ticks_p50",
    "delivery_ticks_p99",
];

/// Metrics and counts that depend on the seed only.
const SEED_EXACT: [&str; 20] = [
    "rounds_mean",
    "msgs_per_op",
    "delivery_ticks_p50",
    "delivery_ticks_p99",
    "protocol.calls",
    "protocol.lane_decisions",
    "protocol.transmit_frac",
    "exec.rounds",
    "exec.useful_round_frac",
    "provider.edge_visits",
    "gnp.edges",
    "fault.events",
    "net.sends",
    "net.delivered",
    "net.drop_frac",
    "net.in_flight_max",
    "node.handle_calls",
    "node.tick_calls",
    "node.value_retries",
    "node.values_per_gossip",
];

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-out")
}

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        out_dir: out_dir(),
    }
}

#[test]
fn every_workload_passes_its_gates() {
    for workload in Workload::ALL {
        let plain = run(&tiny(workload, false));
        assert!(plain.correct, "{workload:?}: {:#?}", plain.lines);
        assert_eq!(plain.failed, 0);
        assert!(plain.attempted > 0);
        let names: Vec<_> = plain.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END, "{workload:?}");
        for m in &plain.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload:?}: {m:?}");
        }

        let traced = run(&tiny(workload, true));
        assert!(traced.correct, "{workload:?}: {:#?}", traced.lines);
        let names: Vec<_> = traced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, EVERY_WORKLOAD, "{workload:?}");
        assert!(traced
            .lines
            .iter()
            .any(|l| l.starts_with("layer exec.run_s ")));
    }
}

/// Runs the binary on every workload and collects the seed-exact values
/// it prints, plus the attempted/failed counts.
fn seed_exact(threads: &str, trace: &str) -> BTreeMap<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "all", "--seed", "9", "--seconds", "0"])
        .args(["--trace", trace, "--scale", "tiny", "--out"])
        .arg(out_dir())
        .env("RADIO_THREADS", threads)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{stdout}");
    let mut values = BTreeMap::new();
    let mut workload = String::new();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            [head, w, ..] if *head == "perfbench" => workload = w.to_string(),
            [kind, name, value, ..]
                if ["metric", "layer"].contains(kind) && SEED_EXACT.contains(name) =>
            {
                values.insert(format!("{workload} {name}"), value.to_string());
            }
            _ => {}
        }
    }
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("json");
    for key in ["attempted", "failed"] {
        let v = result.get(key).and_then(Json::as_i64).expect("count");
        values.insert(key.to_string(), v.to_string());
    }
    values
}

#[test]
fn seed_exact_results_repeat_across_runs_and_thread_counts() {
    for trace in ["0", "1"] {
        let first = seed_exact("1", trace);
        assert!(first.len() >= 4 * 4 + 2, "{first:?}");
        assert_eq!(first, seed_exact("1", trace), "trace {trace}: second run");
        assert_eq!(first, seed_exact("2", trace), "trace {trace}: two threads");
    }
}

fn explicit_call() -> (Inputs, CallOut) {
    let inputs = Inputs::setup(Workload::Explicit, Scale::Tiny, 3, None);
    let out = inputs.call(0, None);
    assert_eq!(inputs.gate(&out).failed_ops, 0);
    (inputs, out)
}

#[test]
fn a_lane_that_disagrees_with_its_report_is_caught() {
    let (inputs, mut out) = explicit_call();
    let CallOut::Lanes(call) = &mut out else {
        unreachable!()
    };
    call.lanes[7].rounds += 1;
    let gate = inputs.gate(&out);
    assert!(gate.failed_ops >= 1, "{gate:?}");
    assert!(
        gate.problems.iter().any(|p| p.contains("lane 7")),
        "{gate:?}"
    );
}

#[test]
fn a_consistently_corrupted_lane_is_caught_by_the_scalar_rerun() {
    let (inputs, mut out) = explicit_call();
    let Inputs::Lanes(lane_inputs) = &inputs else {
        unreachable!()
    };
    let lane = lane_inputs.sampled_lanes(0)[0];
    let CallOut::Lanes(call) = &mut out else {
        unreachable!()
    };
    // Corrupt the result and re-render its report to match, so only the
    // scalar re-run can tell.
    call.lanes[lane].trace[0].collisions += 1;
    let algorithm = RunReport::from_json(&Json::parse(&call.reports[lane]).expect("json"))
        .expect("report")
        .algorithm;
    call.reports[lane] = RunReport::from_result(&algorithm, &call.lanes[lane])
        .to_json()
        .render();
    let gate = inputs.gate(&out);
    assert_eq!(gate.failed_ops, 1, "{gate:?}");
    assert!(gate.problems[0].contains("scalar plan"), "{gate:?}");
}

#[test]
fn corrupted_node_counts_are_caught() {
    let inputs = Inputs::setup(Workload::Node, Scale::Tiny, 3, None);
    let mut out = inputs.call(0, None);
    assert_eq!(inputs.gate(&out).failed_ops, 0);
    let CallOut::Node(call) = &mut out else {
        unreachable!()
    };
    let mut traced = call.report.clone();
    traced.msgs_sent += 1;
    traced.delivery_p99 += 1;
    let diffs = report_mismatches(&traced, &call.report);
    assert_eq!(diffs.len(), 2, "{diffs:?}");
    call.report.coverage = 0.99;
    assert_eq!(inputs.gate(&out).failed_ops, 4, "all four tiny ops fail");
}
