//! A deterministic message-passing broadcast *service* over the paper's
//! protocol stack: Maelstrom-style JSON-lines nodes, an in-tree
//! event-loop network with fault injection, and a partition-recovery
//! workload driver.
//!
//! Where `radio-sim` runs the Theorem-7 protocol as a lock-step round
//! simulation, this crate runs it as a *system*: each [`GossipNode`]
//! owns its state and RNG stream, exchanges typed [`Message`]s through a
//! [`SimNet`] event queue, and pushes its whole held set to its peers on
//! the Thm-7 transmit cadence ([`EventDriven`] supplies it), repairing
//! lost pushes by per-peer anti-entropy: useful-only replies, targeted
//! re-sends to peers known to be behind, and a periodic sync.  The
//! network adapts the round engines' [`FaultPlan`](radio_sim::FaultPlan)
//! into link faults — crash, sleep, jam, Gilbert–Elliott burst — and
//! adds partitions, iid loss, and delay jitter of its own.
//!
//! # Determinism contract
//!
//! A workload run is a pure function of its [`WorkloadConfig`]: no wall
//! clock, no thread timing, no iteration over unordered maps.  Every RNG
//! stream derives from the master seed by label (`node/topo`,
//! `node/faults`, `node/net`, `node/protocol`) or by node id, trials fan
//! out through `run_trials` (parallel == serial, bit for bit), and the
//! event queue breaks delivery ties by global send order.  Two runs with
//! the same seed produce byte-identical [`NodeReport`]s (after
//! [`NodeReport::strip_timing`]) at any `RADIO_THREADS` setting —
//! `scripts/check.sh` enforces exactly that.
//!
//! [`EventDriven`]: radio_broadcast::distributed::EventDriven

#![warn(missing_docs)]

pub mod cli;
pub mod msg;
pub mod net;
pub mod node;
pub mod report;
pub mod workload;

pub use msg::{BadMessage, Body, Message, CLIENT, MALFORMED_REQUEST, NOT_SUPPORTED};
pub use net::{NetConfig, NetStats, Partition, SimNet};
pub use node::{BackoffPolicy, GossipNode, NodeCounters};
pub use report::{percentile, NodeReport, NODE_REPORT_SCHEMA_VERSION};
pub use workload::{connected_topology, run_workload, WorkloadConfig, SOURCE};
