//! The workload's result artifact: a versioned, JSON-stable [`NodeReport`].
//!
//! Everything except `wall_ns` is a pure function of the workload
//! configuration and master seed; [`NodeReport::strip_timing`] zeroes the
//! one wall-clock field so that two same-seed runs can be compared
//! byte-for-byte (the determinism contract `scripts/check.sh` enforces
//! across `RADIO_THREADS` settings).

use radio_sim::Json;

/// Schema version for [`NodeReport`] (v1: initial).
pub const NODE_REPORT_SCHEMA_VERSION: u32 = 1;

/// Aggregated partition-recovery metrics from `radio-node workload`.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Schema version ([`NODE_REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Cluster size per trial.
    pub n: usize,
    /// Client broadcast ops per trial.
    pub ops: usize,
    /// Tick horizon per trial.
    pub ticks: u64,
    /// Trials aggregated.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Worst-case (minimum over trials) final coverage: the fraction of
    /// live, source-reachable nodes holding every broadcast value.
    pub coverage: f64,
    /// Trials that reached coverage 1.0 inside the horizon.
    pub converged_trials: usize,
    /// Protocol messages (gossip + ack) per client op, mean over trials.
    pub msgs_per_op: f64,
    /// Messages accepted by the network, summed over trials.
    pub msgs_sent: u64,
    /// Messages delivered, summed over trials.
    pub msgs_delivered: u64,
    /// Messages dropped (all causes), summed over trials.
    pub msgs_dropped: u64,
    /// Median value-delivery latency in ticks (op injection → a node
    /// first learns the value), nearest-rank over all samples.
    pub delivery_p50: u64,
    /// 99th-percentile delivery latency in ticks, nearest-rank.
    pub delivery_p99: u64,
    /// Longest stale-read window in ticks: for the slowest value, the
    /// span from injection until the last node learned it.
    pub stale_window_max: u64,
    /// Ticks from the last partition healing to full coverage, worst
    /// trial (0 without partitions or when coverage precedes the heal).
    pub post_heal_ticks: u64,
    /// Anti-entropy `gossip` messages (targeted re-sends and periodic
    /// syncs), summed over trials.
    pub retries: u64,
    /// Wall-clock time of the whole workload, nanoseconds.  The only
    /// non-deterministic field; see [`NodeReport::strip_timing`].
    pub wall_ns: u64,
}

impl NodeReport {
    /// Zeroes the wall-clock field, leaving only seed-determined data.
    pub fn strip_timing(mut self) -> NodeReport {
        self.wall_ns = 0;
        self
    }

    /// Renders the report as a stable JSON object (keys in declaration
    /// order; re-rendering a parsed report is byte-identical).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema_version", Json::from(self.schema_version)),
            ("n", Json::from(self.n)),
            ("ops", Json::from(self.ops)),
            ("ticks", Json::from(self.ticks)),
            ("trials", Json::from(self.trials)),
            ("seed", Json::from(self.seed)),
            ("coverage", Json::from(self.coverage)),
            ("converged_trials", Json::from(self.converged_trials)),
            ("msgs_per_op", Json::from(self.msgs_per_op)),
            ("msgs_sent", Json::from(self.msgs_sent)),
            ("msgs_delivered", Json::from(self.msgs_delivered)),
            ("msgs_dropped", Json::from(self.msgs_dropped)),
            ("delivery_p50", Json::from(self.delivery_p50)),
            ("delivery_p99", Json::from(self.delivery_p99)),
            ("stale_window_max", Json::from(self.stale_window_max)),
            ("post_heal_ticks", Json::from(self.post_heal_ticks)),
            ("retries", Json::from(self.retries)),
            ("wall_ns", Json::from(self.wall_ns)),
        ])
    }

    /// Parses a report rendered by [`NodeReport::to_json`].
    pub fn from_json(json: &Json) -> Result<NodeReport, String> {
        let int = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or invalid {key}"))
        };
        let float = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or invalid {key}"))
        };
        let version = int("schema_version")? as u32;
        if version == 0 || version > NODE_REPORT_SCHEMA_VERSION {
            return Err(format!("unsupported node-report schema v{version}"));
        }
        Ok(NodeReport {
            schema_version: version,
            n: int("n")? as usize,
            ops: int("ops")? as usize,
            ticks: int("ticks")?,
            trials: int("trials")? as usize,
            seed: int("seed")?,
            coverage: float("coverage")?,
            converged_trials: int("converged_trials")? as usize,
            msgs_per_op: float("msgs_per_op")?,
            msgs_sent: int("msgs_sent")?,
            msgs_delivered: int("msgs_delivered")?,
            msgs_dropped: int("msgs_dropped")?,
            delivery_p50: int("delivery_p50")?,
            delivery_p99: int("delivery_p99")?,
            stale_window_max: int("stale_window_max")?,
            post_heal_ticks: int("post_heal_ticks")?,
            retries: int("retries")?,
            wall_ns: int("wall_ns")?,
        })
    }
}

/// Nearest-rank percentile (`q` in 0..=100) of an ascending-sorted slice;
/// 0 when empty.
pub fn percentile(sorted: &[u64], q: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * q as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeReport {
        NodeReport {
            schema_version: NODE_REPORT_SCHEMA_VERSION,
            n: 64,
            ops: 16,
            ticks: 400,
            trials: 2,
            seed: 42,
            coverage: 1.0,
            converged_trials: 2,
            msgs_per_op: 23.5,
            msgs_sent: 900,
            msgs_delivered: 850,
            msgs_dropped: 50,
            delivery_p50: 9,
            delivery_p99: 31,
            stale_window_max: 44,
            post_heal_ticks: 12,
            retries: 77,
            wall_ns: 123_456,
        }
    }

    #[test]
    fn report_round_trips_byte_stably() {
        let report = sample();
        let line = report.to_json().render();
        let back = NodeReport::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json().render(), line);
    }

    /// Seeds are full `u64`s: the ones at and above 2^63 used to render
    /// as floats, which the parser rejected.
    #[test]
    fn seeds_survive_json_across_the_u64_range() {
        for seed in [i64::MAX as u64, 1 << 63, u64::MAX] {
            let report = NodeReport {
                seed,
                wall_ns: u64::MAX,
                ..sample()
            };
            let line = report.to_json().render();
            assert!(line.contains(&format!("\"seed\":{seed},")), "{line}");
            let back = NodeReport::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, report);
            assert_eq!(back.to_json().render(), line);
        }
    }

    #[test]
    fn strip_timing_removes_the_only_unstable_field() {
        let a = sample().strip_timing();
        let mut b = sample();
        b.wall_ns = 999;
        assert_eq!(a, b.strip_timing());
        assert_eq!(a.wall_ns, 0);
    }

    #[test]
    fn unsupported_versions_are_rejected() {
        let mut json = sample().to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs[0].1 = Json::from(NODE_REPORT_SCHEMA_VERSION + 1);
        }
        assert!(NodeReport::from_json(&json).is_err());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[], 99), 0);
    }
}
