//! The broadcast service node: eager push on the Thm-7 transmit cadence,
//! useful-only replies, and per-peer anti-entropy.
//!
//! A [`GossipNode`] holds a grow-only set of values and keeps its
//! bookkeeping **per peer**: the set of values the peer is known to hold
//! (from the peer's own messages, or from what we sent it) and, while the
//! peer is known to be behind, one re-send timer.  Every `gossip` and
//! `gossip_ack` carries the sender's whole held set, so any message tells
//! its receiver exactly what the sender had.  Four rules move the values:
//!
//! * **Eager push.**  On a cadence tick, each peer not known to hold our
//!   whole set gets one `gossip`.  It is fire-and-forget: the peer is then
//!   assumed to hold the set.
//! * **Useful-only replies.**  A receiver answers a `gossip`/`gossip_ack`
//!   with a `gossip_ack` only if the message taught it something or shows
//!   that the sender lacks something.  Replies go out at once.
//! * **Targeted re-send.**  A peer whose last message showed it lacks
//!   values we hold is re-sent our set `backoff.delay(k)` ticks after the
//!   `k`-th send, until a later message from it shows it caught up.
//! * **Periodic sync.**  Each informed node sends its set to the next peer
//!   of a fixed rotation over all its peers, `backoff.delay(syncs)` ticks
//!   after the last sync; learning a value resets `syncs`.  Sync finds the
//!   peers whose pushes were lost without a word — an uninformed node
//!   behind a healed partition never transmits on its own.
//!
//! Pushes, re-sends and syncs wait for the wrapped protocol's transmit
//! cadence ([`EventDriven`]): where Thm-7 would stay silent the node stays
//! silent, which keeps per-tick channel load at the paper's level.

use radio_broadcast::distributed::EventDriven;
use radio_graph::NodeId;
use radio_sim::Protocol;
use std::collections::{BTreeMap, BTreeSet};

use crate::msg::{Body, Message, CLIENT};

/// Anti-entropy pacing: after `k` sends (1-based) the next one is due
/// `min(base · factor^(k−1), cap)` ticks later.  It spaces both the
/// targeted re-sends to a peer that is behind (`k` = sends so far) and
/// the periodic syncs (`k` = syncs since the node last learned a value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay after the first send, in ticks (≥ 1).
    pub base: u64,
    /// Multiplier per further send (≥ 1).
    pub factor: u64,
    /// Ceiling on the delay, in ticks.
    pub cap: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: 2,
            factor: 2,
            cap: 64,
        }
    }
}

impl BackoffPolicy {
    /// The delay scheduled after `attempts` sends (saturating, capped).
    pub fn delay(&self, attempts: u32) -> u64 {
        let mut d = self.base;
        for _ in 1..attempts.max(1) {
            d = d.saturating_mul(self.factor);
            if d >= self.cap {
                return self.cap;
            }
        }
        d.min(self.cap).max(1)
    }
}

/// Message-economy counters for one node.  Every message the node hands
/// to the network is counted in `gossip_sent + acks_sent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeCounters {
    /// `gossip` messages sent (pushes, re-sends and syncs).
    pub gossip_sent: u64,
    /// `gossip_ack` replies sent.
    pub acks_sent: u64,
    /// Anti-entropy sends among `gossip_sent`: re-sends and syncs to a
    /// peer already believed to hold everything sent.
    pub retries: u64,
}

/// What this node knows about one peer.
#[derive(Debug, Clone, Copy, Default)]
struct Peer {
    /// How many of our values the peer is known to hold.  A peer is only
    /// ever credited with our whole set (by its own message, or by our
    /// send), and that set only grows, so the count identifies the set.
    known: usize,
    /// While the peer's last message showed it lacks values we hold:
    /// `(sends so far, tick the next re-send is due)`.
    resend: Option<(u32, u64)>,
}

/// One deterministic broadcast-service node.
#[derive(Debug)]
pub struct GossipNode<P: Protocol> {
    id: NodeId,
    peers: Vec<NodeId>,
    /// Per-peer state, parallel to `peers`.
    state: Vec<Peer>,
    values: BTreeSet<u64>,
    /// value → tick first learned.
    first_learned: BTreeMap<u64, u64>,
    /// Periodic sync: syncs since the last learned value, the tick the
    /// next one is due, and the rotation cursor into `peers`.
    syncs: u32,
    next_sync: u64,
    cursor: usize,
    cadence: EventDriven<P>,
    backoff: BackoffPolicy,
    /// Message counters.
    pub counters: NodeCounters,
}

impl<P: Protocol> GossipNode<P> {
    /// A node with identity `id` in a cluster of `n`, gossiping to
    /// `peers`.  `proto` supplies the transmit cadence; its RNG stream is
    /// `child_rng(master, id)`, so a cluster rebuilt from the same master
    /// seed replays exactly.
    pub fn new(
        proto: P,
        id: NodeId,
        n: usize,
        peers: Vec<NodeId>,
        master: u64,
        backoff: BackoffPolicy,
    ) -> GossipNode<P> {
        GossipNode {
            id,
            state: vec![Peer::default(); peers.len()],
            peers,
            values: BTreeSet::new(),
            first_learned: BTreeMap::new(),
            syncs: 0,
            next_sync: u64::MAX,
            cursor: 0,
            cadence: EventDriven::new(proto, id, n, master),
            backoff,
            counters: NodeCounters::default(),
        }
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The gossip peer set.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Every value the node holds, ascending.
    pub fn values(&self) -> &BTreeSet<u64> {
        &self.values
    }

    /// The tick at which `value` was first learned, if held.
    pub fn learned_at(&self, value: u64) -> Option<u64> {
        self.first_learned.get(&value).copied()
    }

    fn learn(&mut self, value: u64, now: u64) -> bool {
        if !self.values.insert(value) {
            return false;
        }
        self.first_learned.insert(value, now);
        self.cadence.inform(now);
        self.syncs = 0;
        self.next_sync = self
            .next_sync
            .min(now.saturating_add(self.backoff.delay(1)));
        true
    }

    /// Handles one incoming message at `now`, returning the messages to
    /// send in response.
    pub fn handle(&mut self, msg: Message, now: u64) -> Vec<Message> {
        let (id, peer) = (self.id, msg.src);
        let reply = move |body: Body| {
            vec![Message {
                src: id,
                dest: peer,
                body,
            }]
        };
        match msg.body {
            Body::Init { msg_id, .. } => reply(Body::InitOk {
                in_reply_to: msg_id,
            }),
            Body::Topology { msg_id, neighbors } => {
                self.state = vec![Peer::default(); neighbors.len()];
                self.peers = neighbors;
                reply(Body::TopologyOk {
                    in_reply_to: msg_id,
                })
            }
            Body::Broadcast { msg_id, value } => {
                self.learn(value, now);
                reply(Body::BroadcastOk {
                    in_reply_to: msg_id,
                })
            }
            Body::Read { msg_id } => reply(Body::ReadOk {
                in_reply_to: msg_id,
                values: self.values.iter().copied().collect(),
            }),
            Body::Stats { msg_id } => reply(Body::StatsOk {
                in_reply_to: msg_id,
                gossip_sent: self.counters.gossip_sent,
                acks_sent: self.counters.acks_sent,
                retries: self.counters.retries,
            }),
            Body::Gossip { values: mut held } | Body::GossipAck { values: mut held } => {
                held.sort_unstable();
                held.dedup();
                let mut taught = false;
                for &v in &held {
                    taught |= self.learn(v, now);
                }
                // The sender's set is now a subset of ours: it lacks something
                // iff it is smaller, and holds ours once it has any reply.
                let lacks = held.len() < self.values.len();
                if let Some(i) = self.peers.iter().position(|&p| p == peer) {
                    let st = &mut self.state[i];
                    st.known = self.values.len();
                    st.resend = if lacks {
                        st.resend
                            .or(Some((1, now.saturating_add(self.backoff.delay(1)))))
                    } else {
                        None
                    };
                }
                if !(taught || lacks) {
                    return Vec::new();
                }
                self.counters.acks_sent += 1;
                reply(Body::GossipAck {
                    values: self.values.iter().copied().collect(),
                })
            }
            Body::Tick { tick } => self.on_tick(tick),
            // Replies addressed to the client; a node ignores them.
            Body::InitOk { .. }
            | Body::TopologyOk { .. }
            | Body::BroadcastOk { .. }
            | Body::ReadOk { .. }
            | Body::StatsOk { .. }
            | Body::Error { .. } => Vec::new(),
        }
    }

    /// Advances the node's clock to `now`.  If the Thm-7 cadence elects
    /// to transmit, sends one `gossip` (our whole set) to every peer that
    /// is owed a push, a due re-send, or this tick's sync.
    pub fn on_tick(&mut self, now: u64) -> Vec<Message> {
        if !self.cadence.wants_transmit(now) {
            return Vec::new();
        }
        let sync = (self.next_sync <= now && !self.peers.is_empty()).then(|| {
            self.syncs = self.syncs.saturating_add(1);
            self.next_sync = now.saturating_add(self.backoff.delay(self.syncs));
            let i = self.cursor % self.peers.len();
            self.cursor = i + 1;
            i
        });
        let (ours, mut out) = (self.values.len(), Vec::new());
        for (i, st) in self.state.iter_mut().enumerate() {
            let push = st.known < ours;
            let resend = match &mut st.resend {
                Some((k, due)) if *due <= now => {
                    *k = k.saturating_add(1);
                    *due = now.saturating_add(self.backoff.delay(*k));
                    true
                }
                _ => false,
            };
            if !(push || resend || sync == Some(i)) {
                continue;
            }
            self.counters.gossip_sent += 1;
            self.counters.retries += u64::from(!push);
            st.known = ours;
            out.push(Message {
                src: self.id,
                dest: self.peers[i],
                body: Body::Gossip {
                    values: self.values.iter().copied().collect(),
                },
            });
        }
        out
    }
}

/// Convenience: a client envelope addressed to `dest`.
pub fn client_msg(dest: NodeId, body: Body) -> Message {
    Message {
        src: CLIENT,
        dest,
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_broadcast::distributed::Flooding;

    fn node(id: NodeId, peers: Vec<NodeId>) -> GossipNode<Flooding> {
        // Flooding transmits every tick once informed, so the cadence
        // never hides a push, re-send or sync in these tests.
        GossipNode::new(Flooding, id, 16, peers, 99, BackoffPolicy::default())
    }

    fn broadcast(value: u64) -> Message {
        client_msg(0, Body::Broadcast { msg_id: 1, value })
    }

    fn gossip(src: NodeId, dest: NodeId, values: Vec<u64>) -> Message {
        Message {
            src,
            dest,
            body: Body::Gossip { values },
        }
    }

    /// `(tick, dest)` of every message `on_tick` sends over `ticks`.
    fn sends(
        a: &mut GossipNode<Flooding>,
        ticks: std::ops::RangeInclusive<u64>,
    ) -> Vec<(u64, NodeId)> {
        ticks
            .flat_map(|t| a.on_tick(t).into_iter().map(move |m| (t, m.dest)))
            .collect()
    }

    #[test]
    fn backoff_delays_grow_then_cap() {
        let b = BackoffPolicy {
            base: 2,
            factor: 3,
            cap: 50,
        };
        assert_eq!(b.delay(1), 2);
        assert_eq!(b.delay(2), 6);
        assert_eq!(b.delay(3), 18);
        assert_eq!(b.delay(4), 50);
        assert_eq!(b.delay(40), 50, "saturates at the cap, no overflow");
    }

    #[test]
    fn push_carries_the_held_set_and_replies_only_when_useful() {
        let mut a = node(0, vec![1]);
        let mut b = node(1, vec![0]);
        let replies = a.handle(broadcast(7), 1);
        assert!(matches!(
            replies[0].body,
            Body::BroadcastOk { in_reply_to: 1 }
        ));
        // a pushes its whole set to b, once.
        let out = a.on_tick(2);
        assert_eq!(out, vec![gossip(0, 1, vec![7])]);
        // b learns 7 and, having been taught, answers with its set.
        let acks = b.handle(out[0].clone(), 3);
        assert_eq!(b.learned_at(7), Some(3));
        assert!(matches!(&acks[0].body, Body::GossipAck { values } if values == &[7]));
        // The ack teaches a nothing and shows b lacks nothing: no reply,
        // and neither side owes the other a push.
        assert!(a.handle(acks[0].clone(), 4).is_empty());
        assert!(b.on_tick(4).is_empty());
        // A repeated gossip is no news either way: silence.
        assert!(b.handle(gossip(0, 1, vec![7]), 5).is_empty());
        // A sender that lacks values gets our set back, duplicates or not,
        // even when it is not one of our peers.
        let back = b.handle(gossip(9, 1, vec![3, 3]), 6);
        assert_eq!(back[0].dest, 9);
        assert!(matches!(&back[0].body, Body::GossipAck { values } if values == &[3, 7]));
        assert_eq!(
            (
                b.counters.gossip_sent,
                b.counters.acks_sent,
                b.counters.retries
            ),
            (0, 2, 0)
        );
    }

    #[test]
    fn lagging_peer_gets_targeted_resends_until_it_catches_up() {
        // Peer 1 sits last in the sync rotation, so every send to it in
        // this window is a targeted re-send.
        let mut a = node(0, vec![2, 3, 4, 5, 6, 7, 8, 1]);
        a.handle(broadcast(5), 1);
        assert_eq!(a.on_tick(2).len(), 8, "eager push to every peer");
        // Peer 1's gossip shows it lacks 5: reply at once, then re-send on
        // the backoff (base 2, factor 2: gaps 2, 4, 8, 16).
        let reply = a.handle(gossip(1, 0, vec![9]), 2);
        assert!(matches!(&reply[0].body, Body::GossipAck { values } if values == &[5, 9]));
        let to_one: Vec<u64> = sends(&mut a, 3..=40)
            .into_iter()
            .filter(|&(_, dest)| dest == 1)
            .map(|(t, _)| t)
            .collect();
        assert_eq!(to_one, vec![4, 8, 16, 32]);
        // 4 re-sends plus the syncs at 5, 9, 17 and 33 (the one at 3 was
        // also peer 2's push of 9).
        assert_eq!(a.counters.retries, 8);
        // Once peer 1 shows it caught up, the re-sends stop.
        assert!(a.handle(gossip(1, 0, vec![5, 9]), 41).is_empty());
        assert!(sends(&mut a, 42..=64).iter().all(|&(_, dest)| dest != 1));
    }

    #[test]
    fn sync_rotates_over_all_peers_and_restarts_when_a_value_is_learned() {
        let mut a = node(0, vec![1, 2, 3]);
        a.handle(broadcast(5), 1);
        // Push at 2; syncs 2, 4, 8, 16 ticks apart after the learn at 1.
        let mut want = vec![
            (2, 1),
            (2, 2),
            (2, 3),
            (3, 1),
            (5, 2),
            (9, 3),
            (17, 1),
            (33, 2),
        ];
        assert_eq!(sends(&mut a, 2..=40), want);
        // A new value: push to everyone, and syncs restart at base pace
        // from the next peer in the rotation.
        a.handle(broadcast(6), 40);
        want = vec![(41, 1), (41, 2), (41, 3), (42, 3), (44, 1), (48, 2)];
        assert_eq!(sends(&mut a, 41..=50), want);
        assert_eq!(a.counters.gossip_sent, 14);
        assert_eq!(a.counters.retries, 8);
    }

    #[test]
    fn reads_and_topology_follow_the_wire_contract() {
        let mut a = node(3, vec![]);
        let out = a.handle(
            client_msg(
                3,
                Body::Topology {
                    msg_id: 2,
                    neighbors: vec![1, 5],
                },
            ),
            1,
        );
        assert!(matches!(out[0].body, Body::TopologyOk { in_reply_to: 2 }));
        assert_eq!(a.peers(), &[1, 5]);
        a.handle(broadcast(9), 2);
        a.handle(broadcast(4), 3);
        let out = a.handle(client_msg(3, Body::Read { msg_id: 5 }), 4);
        match &out[0].body {
            Body::ReadOk {
                in_reply_to,
                values,
            } => {
                assert_eq!(*in_reply_to, 5);
                assert_eq!(values, &[4, 9], "ascending");
            }
            other => panic!("expected read_ok, got {other:?}"),
        }
        assert_eq!(out[0].dest, CLIENT);
    }

    #[test]
    fn stats_report_the_message_counters() {
        let mut a = node(3, vec![1, 5]);
        a.handle(broadcast(9), 1);
        assert_eq!(a.on_tick(2).len(), 2);
        let out = a.handle(client_msg(3, Body::Stats { msg_id: 6 }), 3);
        assert_eq!(out[0].dest, CLIENT);
        assert_eq!(
            out[0].body,
            Body::StatsOk {
                in_reply_to: 6,
                gossip_sent: 2,
                acks_sent: 0,
                retries: 0,
            }
        );
    }

    /// Ticks come from the stdin client unchecked: schedules saturate at
    /// the end of time instead of overflowing.
    #[test]
    fn schedules_saturate_at_the_last_tick() {
        let mut a = node(0, vec![1]);
        a.handle(broadcast(5), u64::MAX - 1);
        assert_eq!(a.on_tick(u64::MAX - 1).len(), 1, "push");
        a.handle(gossip(1, 0, vec![]), u64::MAX);
        assert_eq!(a.on_tick(u64::MAX).len(), 1, "sync");
    }

    #[test]
    fn uninformed_nodes_stay_silent() {
        let mut a = node(0, vec![1, 2]);
        for t in 1..20 {
            assert!(a.on_tick(t).is_empty());
        }
        assert_eq!(a.counters.gossip_sent, 0);
    }
}
