//! One benchmark run: set-up, the timed calls, the gates, and the
//! metrics.
//!
//! An untraced run times calls back to back (a closed loop with one
//! client), cycling through the call indices `0..`[`Workload::distinct_calls`],
//! until `--seconds` of call time have passed and every index ran.  A
//! traced run spends half of its time untraced and half traced, replays
//! the same call indices in both halves, and fails any traced call whose
//! results differ from the untraced ones: the wrappers must not change
//! what they measure.
//!
//! The result line carries the end-to-end metrics that two sets of runs
//! of the same code reproduce: set-up time, peak memory and the
//! seed-exact simulated metrics.  The call timings are printed but not
//! carried: the host this benchmark was sized on switches between a fast
//! state and one up to twice as slow for seconds to minutes at a time, so
//! unpaired runs of the same code disagree on them by more than any
//! useful bound.

use std::path::PathBuf;
use std::time::Instant;

use radio_sim::Json;

use crate::fingerprint::Fingerprint;
use crate::stats::{median, ratio, tail};
use crate::trace::{Metric, TraceCtx, EVERY_WORKLOAD};
use crate::workloads::{sim_metrics, Digest, Gate, Inputs, Scale, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Call time to measure, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where the summary and span files go.
    pub out_dir: PathBuf,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every gate passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a gate.
    pub failed: u64,
    /// The machine-readable metrics: end-to-end (untraced) or the
    /// per-layer set every workload shares (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines, printed before the result line.
    pub lines: Vec<String>,
}

/// The calls of one phase.
#[derive(Default)]
struct Phase {
    call_s: Vec<f64>,
    ops: u64,
    failed: u64,
    digests: Vec<Digest>,
    problems: Vec<String>,
    plan: Option<String>,
    /// Peak resident set once every input has run (or at the end, when
    /// the phase ran fewer calls than inputs).
    rss_mib: f64,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        ratio(
            (self.ops - self.failed) as f64,
            self.call_s.iter().sum::<f64>(),
        )
    }
}

/// Runs calls with indices 0, 1, ..., `cycle - 1`, 0, 1, ... until
/// `budget_s` of call time and at least `min_calls` calls, running
/// `between` after each call's checks.  The first call of each index
/// passes the workload's gate; a repeated call must reproduce the
/// seed-exact digest of its index's first call.  When tracing, each call
/// must also reproduce the untraced digest of its index (from
/// `reference`, or recomputed).
fn phase(
    inputs: &Inputs,
    mut ctx: Option<&mut TraceCtx>,
    budget_s: f64,
    (cycle, min_calls): (usize, usize),
    reference: &[Digest],
    between: &mut dyn FnMut(),
) -> Phase {
    let mut ph = Phase::default();
    let ops = inputs.ops_per_call();
    while ph.call_s.len() < min_calls || ph.call_s.iter().sum::<f64>() < budget_s {
        let index = (ph.call_s.len() % cycle) as u64;
        let start = match ctx.as_deref_mut() {
            Some(c) => c.begin_call(index),
            None => Instant::now(),
        };
        let out = inputs.call(index, ctx.as_deref_mut());
        ph.call_s.push(start.elapsed().as_secs_f64());
        // Everything below is outside the timed region.
        let traced = match ctx.as_deref_mut() {
            Some(c) => {
                c.end_call(start);
                true
            }
            None => false,
        };
        let repeat = ph.digests.len() >= cycle;
        let mut gate = if repeat {
            Gate::default()
        } else {
            inputs.gate(&out)
        };
        let digest = out.digest();
        let mut expected = Vec::new();
        if repeat {
            expected.push(("its first call", ph.digests[index as usize].clone()));
        }
        if traced {
            let want = match reference.get(index as usize) {
                Some(d) => d.clone(),
                None => inputs.call(index, None).digest(),
            };
            expected.push(("the untraced call", want));
        }
        for (what, want) in expected {
            let diffs = digest.mismatches(&want);
            if !diffs.is_empty() {
                gate.failed_ops = ops;
                gate.problems.push(format!(
                    "call {index}: results differ from {what}: {}",
                    diffs.join("; ")
                ));
            }
        }
        if ph.plan.is_none() {
            ph.plan = out.plan().map(|p| p.describe());
        }
        ph.ops += ops;
        ph.failed += gate.failed_ops.min(ops);
        ph.problems.extend(gate.problems);
        ph.digests.push(digest);
        between();
        if ph.digests.len() == cycle {
            ph.rss_mib = peak_rss_mib();
        }
    }
    if ph.digests.len() < cycle {
        ph.rss_mib = peak_rss_mib();
    }
    ph
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn line(kind: &str, m: &Metric) -> String {
    format!("{kind} {} {} {}", m.name, m.value, m.unit)
}

/// The end-to-end metrics of an untraced phase: the ones the result line
/// carries, and the report lines (those plus the call timings, which
/// follow the host's drift too closely to gate on).
fn end_to_end(ph: &Phase, setup_s: f64, distinct: usize) -> (Vec<Metric>, Vec<String>) {
    let ms: Vec<f64> = ph.call_s.iter().map(|s| s * 1e3).collect();
    let (tail_ms, beyond) = tail(&ms);
    let mut metrics = vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mib",
            value: ph.rss_mib,
            unit: "MiB",
        },
    ];
    let exact = &ph.digests[..distinct.min(ph.digests.len())];
    metrics.extend(sim_metrics(exact));
    let ungated = [
        Metric {
            name: "ops_per_s",
            value: ph.ops_per_s(),
            unit: "1/s",
        },
        Metric {
            name: "call_ms_p50",
            value: median(&ms),
            unit: "ms",
        },
        Metric {
            name: "call_ms_tail",
            value: tail_ms,
            unit: "ms",
        },
        Metric {
            name: "failed_frac",
            value: ratio(ph.failed as f64, ph.ops as f64),
            unit: "frac",
        },
    ];
    let mut lines: Vec<String> = metrics
        .iter()
        .chain(&ungated)
        .map(|m| line("metric", m))
        .collect();
    lines.push(format!(
        "note {} calls cycling through {} inputs; call_ms_tail has {beyond} calls beyond it \
         (p{:.0}); rounds_mean, msgs_per_op and delivery_ticks_* are over the {} inputs",
        ms.len(),
        exact.len(),
        100.0 * (ms.len() - beyond) as f64 / ms.len().max(1) as f64,
        exact.len()
    ));
    (metrics, lines)
}

/// Runs `opts` and returns its outcome (also writing the summary file,
/// and the span file when traced).
pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    let fp = Fingerprint::probe();
    let mut lines = vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={}",
            w.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        ),
        format!("fingerprint {}", fp.to_json().render()),
    ];

    // Set-up is repeated between calls too, so its median samples the
    // whole run rather than one moment of a host whose speed drifts.
    let cycle = w.distinct_calls();
    let (mut inputs, first) = Inputs::time_setup(w, opts.scale, opts.seed, w.setup_reps());
    let mut setups = vec![first];
    let mut resetup =
        || setups.push(Inputs::time_setup(w, opts.scale, opts.seed, w.setup_reps()).1);

    let (metrics, phases, ctx) = if opts.trace {
        let mut ctx = TraceCtx::new();
        // One more set-up, traced, for its spans (the explicit graph).
        inputs = Inputs::setup(w, opts.scale, opts.seed, Some(&mut ctx));
        inputs.prepare_trace(&mut ctx, cycle);
        let half = opts.seconds / 2.0;
        let plain = phase(&inputs, None, half, (cycle, 1), &[], &mut resetup);
        let traced = phase(
            &inputs,
            Some(&mut ctx),
            half,
            (cycle, 1),
            &plain.digests,
            &mut || {},
        );
        let overhead = ratio(plain.ops_per_s(), traced.ops_per_s()) - 1.0;
        let all = ctx.totals.metrics(overhead);
        lines.extend(end_to_end(&plain, median(&setups), cycle).1);
        lines.extend(all.iter().map(|m| line("layer", m)));
        let metrics = all
            .into_iter()
            .filter(|m| EVERY_WORKLOAD.contains(&m.name))
            .collect();
        (metrics, vec![plain, traced], Some(ctx))
    } else {
        let plain = phase(
            &inputs,
            None,
            opts.seconds,
            (cycle, cycle),
            &[],
            &mut resetup,
        );
        let (metrics, e2e_lines) = end_to_end(&plain, median(&setups), cycle);
        lines.extend(e2e_lines);
        (metrics, vec![plain], None)
    };

    let attempted: u64 = phases.iter().map(|p| p.ops).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    if let Some(plan) = phases.iter().find_map(|p| p.plan.clone()) {
        lines.insert(2, format!("plan {plan}"));
    }
    for p in phases.iter().flat_map(|p| &p.problems) {
        lines.push(format!("FAILED {p}"));
    }

    let stem = format!(
        "{}-seed{}-trace{}",
        w.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let summary = Json::object([
        ("workload", Json::from(w.name())),
        ("seed", Json::from(opts.seed)),
        ("fingerprint", fp.to_json()),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "call_s",
            Json::from(
                phases
                    .iter()
                    .map(|p| {
                        Json::from(p.call_s.iter().copied().map(Json::from).collect::<Vec<_>>())
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "lines",
            Json::from(
                lines
                    .iter()
                    .map(|l| Json::from(l.as_str()))
                    .collect::<Vec<_>>(),
            ),
        ),
    ]);
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|_| {
            std::fs::write(
                opts.out_dir.join(format!("{stem}.summary.json")),
                summary.render_pretty(),
            )
        })
        .and_then(|_| match &ctx {
            Some(ctx) => ctx.write_jsonl(&opts.out_dir.join(format!("{stem}.spans.jsonl"))),
            None => Ok(()),
        });
    match written {
        Ok(()) => lines.push(format!(
            "wrote {}",
            opts.out_dir.join(format!("{stem}.*")).display()
        )),
        Err(e) => lines.push(format!("note could not write {stem} files: {e}")),
    }

    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        lines,
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(outcome: &Outcome, prefix: &str) -> Json {
    Json::object([
        ("correct", Json::from(outcome.correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        (
            "metrics",
            Json::object(outcome.metrics.iter().map(|m| {
                (
                    format!("{prefix}{}", m.name),
                    Json::object([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })),
        ),
    ])
}
