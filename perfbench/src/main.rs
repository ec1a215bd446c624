//! `perfbench --workload NAME|all --seed N --seconds S --trace 0|1`
//!
//! Prints report lines, then one JSON result line: `correct`,
//! `attempted`, `failed` and `metrics`.  Exits 1 when any gate failed and
//! 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::runner::{result_json, run, Options};
use perfbench::workloads::{workers, Scale, Workload};
use radio_sim::Json;

const USAGE: &str = "usage: perfbench --workload NAME|all --seed N --seconds S --trace 0|1 \
                     [--scale full|tiny] [--out DIR]";

fn parse(args: &[String]) -> Result<(Vec<Workload>, Options), String> {
    let mut workloads = None;
    let mut opts = Options {
        workload: Workload::Explicit,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!(
                            "unknown workload {value:?} (expected all, {})",
                            names.join(", ")
                        )
                    })?]
                })
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                opts.scale = match value {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    Ok((workloads, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, opts) = match parse(&args).and_then(|parsed| workers().map(|_| parsed)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let single = workloads.len() == 1;
    let mut results = Vec::new();
    for workload in workloads {
        let outcome = run(&Options {
            workload,
            ..opts.clone()
        });
        for line in &outcome.lines {
            println!("{line}");
        }
        let prefix = if single {
            String::new()
        } else {
            format!("{}/", workload.name())
        };
        results.push(result_json(&outcome, &prefix));
    }
    // One result line: the workload's own, or all workloads' merged with
    // name-prefixed metrics.
    let field = |r: &Json, key: &str| r.get(key).cloned().expect("result field");
    let merged = if single {
        results.pop().expect("one result")
    } else {
        let sum = |key: &str| {
            results
                .iter()
                .map(|r| field(r, key).as_i64().unwrap_or(0))
                .sum::<i64>()
        };
        let metrics = results
            .iter()
            .flat_map(|r| field(r, "metrics").as_obj().unwrap_or(&[]).to_vec())
            .collect::<Vec<_>>();
        Json::object([
            (
                "correct",
                Json::from(
                    results
                        .iter()
                        .all(|r| field(r, "correct").as_bool() == Some(true)),
                ),
            ),
            ("attempted", Json::from(sum("attempted"))),
            ("failed", Json::from(sum("failed"))),
            ("metrics", Json::Obj(metrics)),
        ])
    };
    println!("{}", merged.render());
    if merged.get("correct").and_then(Json::as_bool) == Some(true) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
