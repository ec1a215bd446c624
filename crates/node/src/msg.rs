//! Maelstrom-style JSON-lines messages.
//!
//! Every message is an envelope `{"src": ..., "dest": ..., "body": {...}}`
//! whose body carries a `type` tag plus typed fields — the wire format the
//! Maelstrom/Gossip-Glomers broadcast workloads speak, restricted to the
//! node ids being integers (the in-process cluster addresses nodes by
//! [`NodeId`]; the workload driver is [`CLIENT`]).
//!
//! In-process, the cluster exchanges the typed [`Message`] values directly
//! — rendering ~10⁷ JSON strings per workload would dominate the run — but
//! every message round-trips through [`Message::to_json`] /
//! [`Message::from_json`] byte-for-byte, and the `radio-node node` stdio
//! mode speaks exactly this rendering, one message per line.

use radio_graph::NodeId;
use radio_sim::Json;

/// The workload driver's address (client messages: `broadcast`, `read`,
/// `topology`, `init`).
pub const CLIENT: NodeId = NodeId::MAX;

/// One envelope on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sender node id ([`CLIENT`] for the driver).
    pub src: NodeId,
    /// Receiver node id.
    pub dest: NodeId,
    /// The typed payload.
    pub body: Body,
}

/// Typed message bodies (the `type` tag on the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Hands the node its identity and the cluster size.
    Init {
        /// Client-chosen message id.
        msg_id: u64,
        /// The node's own id.
        node_id: NodeId,
        /// Cluster size.
        n: u32,
    },
    /// Acknowledges `init`.
    InitOk {
        /// The `msg_id` being acknowledged.
        in_reply_to: u64,
    },
    /// Hands the node its gossip peers.
    Topology {
        /// Client-chosen message id.
        msg_id: u64,
        /// Neighbor ids, ascending.
        neighbors: Vec<NodeId>,
    },
    /// Acknowledges `topology`.
    TopologyOk {
        /// The `msg_id` being acknowledged.
        in_reply_to: u64,
    },
    /// A client op: remember `value` and spread it to the cluster.
    Broadcast {
        /// Client-chosen message id.
        msg_id: u64,
        /// The datum to spread.
        value: u64,
    },
    /// Acknowledges `broadcast`.
    BroadcastOk {
        /// The `msg_id` being acknowledged.
        in_reply_to: u64,
    },
    /// A client op: return every value the node has seen.
    Read {
        /// Client-chosen message id.
        msg_id: u64,
    },
    /// Answers `read`.
    ReadOk {
        /// The `msg_id` being answered.
        in_reply_to: u64,
        /// Every value the node holds, ascending.
        values: Vec<u64>,
    },
    /// Inter-node gossip: "here are values you may be missing".
    Gossip {
        /// The offered values, ascending.
        values: Vec<u64>,
    },
    /// Confirms receipt of a `gossip` (the ack layer's confirmation).
    GossipAck {
        /// The values being confirmed, ascending.
        values: Vec<u64>,
    },
    /// Advances the node's simulated clock (stdio mode only; the
    /// in-process event loop owns time directly).
    Tick {
        /// The new tick.
        tick: u64,
    },
    /// A client op: return the node's message counters.
    Stats {
        /// Client-chosen message id.
        msg_id: u64,
    },
    /// Answers `stats` with the node's
    /// [`NodeCounters`](crate::node::NodeCounters).
    StatsOk {
        /// The `msg_id` being answered.
        in_reply_to: u64,
        /// `gossip` messages sent.
        gossip_sent: u64,
        /// `gossip_ack` replies sent.
        acks_sent: u64,
        /// Anti-entropy sends among `gossip_sent`.
        retries: u64,
    },
    /// Answers a request the node cannot serve (Maelstrom error body).
    Error {
        /// The request's `msg_id`, when it had a readable one.
        in_reply_to: Option<u64>,
        /// Maelstrom error code: [`NOT_SUPPORTED`] or [`MALFORMED_REQUEST`].
        code: u64,
        /// What was wrong.
        text: String,
    },
}

/// Maelstrom error code: the message `type` is not one the node speaks.
pub const NOT_SUPPORTED: u64 = 10;
/// Maelstrom error code: a known `type` with a missing or invalid field.
pub const MALFORMED_REQUEST: u64 = 12;

/// Why a JSON line is not a [`Message`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadMessage {
    /// The `error` reply owed to the sender, when the envelope was
    /// readable (`src`, `dest` and `body.type` present) and only the body
    /// was wrong; `None` for lines that are not envelopes at all.
    pub reply: Option<Message>,
    /// What was wrong.
    pub text: String,
}

impl std::fmt::Display for BadMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

impl Body {
    /// The wire `type` tag.
    pub fn type_str(&self) -> &'static str {
        match self {
            Body::Init { .. } => "init",
            Body::InitOk { .. } => "init_ok",
            Body::Topology { .. } => "topology",
            Body::TopologyOk { .. } => "topology_ok",
            Body::Broadcast { .. } => "broadcast",
            Body::BroadcastOk { .. } => "broadcast_ok",
            Body::Read { .. } => "read",
            Body::ReadOk { .. } => "read_ok",
            Body::Gossip { .. } => "gossip",
            Body::GossipAck { .. } => "gossip_ack",
            Body::Tick { .. } => "tick",
            Body::Stats { .. } => "stats",
            Body::StatsOk { .. } => "stats_ok",
            Body::Error { .. } => "error",
        }
    }
}

fn values_json(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::from(v)).collect())
}

/// A field error: the request is malformed.
fn malformed(text: String) -> (u64, String) {
    (MALFORMED_REQUEST, text)
}

fn values_from(json: &Json, key: &str) -> Result<Vec<u64>, (u64, String)> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| malformed(format!("missing body.{key} array")))?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| malformed(format!("bad value in body.{key}")))
        })
        .collect()
}

/// Parses a body whose `type` is `kind`; errors carry a Maelstrom code.
fn body_from_json(body: &Json, kind: &str) -> Result<Body, (u64, String)> {
    let u64_field = |key: &str| {
        body.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| malformed(format!("missing or invalid body.{key}")))
    };
    let u32_field = |key: &str| {
        body.get(key)
            .and_then(Json::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| malformed(format!("missing or invalid body.{key}")))
    };
    Ok(match kind {
        "init" => Body::Init {
            msg_id: u64_field("msg_id")?,
            node_id: u32_field("node_id")?,
            n: u32_field("n")?,
        },
        "init_ok" => Body::InitOk {
            in_reply_to: u64_field("in_reply_to")?,
        },
        "topology" => Body::Topology {
            msg_id: u64_field("msg_id")?,
            neighbors: values_from(body, "neighbors")?
                .into_iter()
                .map(|v| u32::try_from(v).map_err(|_| malformed("bad neighbor id".into())))
                .collect::<Result<Vec<_>, _>>()?,
        },
        "topology_ok" => Body::TopologyOk {
            in_reply_to: u64_field("in_reply_to")?,
        },
        "broadcast" => Body::Broadcast {
            msg_id: u64_field("msg_id")?,
            value: u64_field("value")?,
        },
        "broadcast_ok" => Body::BroadcastOk {
            in_reply_to: u64_field("in_reply_to")?,
        },
        "read" => Body::Read {
            msg_id: u64_field("msg_id")?,
        },
        "read_ok" => Body::ReadOk {
            in_reply_to: u64_field("in_reply_to")?,
            values: values_from(body, "values")?,
        },
        "gossip" => Body::Gossip {
            values: values_from(body, "values")?,
        },
        "gossip_ack" => Body::GossipAck {
            values: values_from(body, "values")?,
        },
        "tick" => Body::Tick {
            tick: u64_field("tick")?,
        },
        "stats" => Body::Stats {
            msg_id: u64_field("msg_id")?,
        },
        "stats_ok" => Body::StatsOk {
            in_reply_to: u64_field("in_reply_to")?,
            gossip_sent: u64_field("gossip_sent")?,
            acks_sent: u64_field("acks_sent")?,
            retries: u64_field("retries")?,
        },
        "error" => Body::Error {
            in_reply_to: body.get("in_reply_to").and_then(Json::as_u64),
            code: u64_field("code")?,
            text: body
                .get("text")
                .and_then(Json::as_str)
                .ok_or_else(|| malformed("missing or invalid body.text".into()))?
                .to_string(),
        },
        other => return Err((NOT_SUPPORTED, format!("unknown message type {other:?}"))),
    })
}

impl Message {
    /// Renders the Maelstrom envelope (`src`/`dest`/`body`).
    pub fn to_json(&self) -> Json {
        let tag = ("type", Json::from(self.body.type_str()));
        let body = match &self.body {
            Body::Init { msg_id, node_id, n } => Json::object([
                tag,
                ("msg_id", Json::from(*msg_id)),
                ("node_id", Json::from(*node_id)),
                ("n", Json::from(*n)),
            ]),
            Body::InitOk { in_reply_to }
            | Body::TopologyOk { in_reply_to }
            | Body::BroadcastOk { in_reply_to } => {
                Json::object([tag, ("in_reply_to", Json::from(*in_reply_to))])
            }
            Body::Topology { msg_id, neighbors } => Json::object([
                tag,
                ("msg_id", Json::from(*msg_id)),
                (
                    "neighbors",
                    Json::Arr(neighbors.iter().map(|&v| Json::from(v)).collect()),
                ),
            ]),
            Body::Broadcast { msg_id, value } => Json::object([
                tag,
                ("msg_id", Json::from(*msg_id)),
                ("value", Json::from(*value)),
            ]),
            Body::Read { msg_id } => Json::object([tag, ("msg_id", Json::from(*msg_id))]),
            Body::ReadOk {
                in_reply_to,
                values,
            } => Json::object([
                tag,
                ("in_reply_to", Json::from(*in_reply_to)),
                ("values", values_json(values)),
            ]),
            Body::Gossip { values } | Body::GossipAck { values } => {
                Json::object([tag, ("values", values_json(values))])
            }
            Body::Tick { tick } => Json::object([tag, ("tick", Json::from(*tick))]),
            Body::Stats { msg_id } => Json::object([tag, ("msg_id", Json::from(*msg_id))]),
            Body::StatsOk {
                in_reply_to,
                gossip_sent,
                acks_sent,
                retries,
            } => Json::object([
                tag,
                ("in_reply_to", Json::from(*in_reply_to)),
                ("gossip_sent", Json::from(*gossip_sent)),
                ("acks_sent", Json::from(*acks_sent)),
                ("retries", Json::from(*retries)),
            ]),
            Body::Error {
                in_reply_to,
                code,
                text,
            } => Json::object([
                tag,
                ("in_reply_to", Json::from(*in_reply_to)),
                ("code", Json::from(*code)),
                ("text", Json::from(text.as_str())),
            ]),
        };
        Json::object([
            ("src", Json::from(self.src)),
            ("dest", Json::from(self.dest)),
            ("body", body),
        ])
    }

    /// Parses an envelope rendered by [`Message::to_json`].  An envelope
    /// with a readable `src`, `dest` and `body.type` but an unknown type
    /// or a bad field comes back with the `error` reply its sender is
    /// owed.
    pub fn from_json(json: &Json) -> Result<Message, BadMessage> {
        let fail = |text: &str| BadMessage {
            reply: None,
            text: text.to_string(),
        };
        let node = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| fail(&format!("missing or invalid {key}")))
        };
        let (src, dest) = (node("src")?, node("dest")?);
        let body = json.get("body").ok_or_else(|| fail("missing body"))?;
        let kind = body
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing body.type"))?;
        match body_from_json(body, kind) {
            Ok(parsed) => Ok(Message {
                src,
                dest,
                body: parsed,
            }),
            Err((code, text)) => Err(BadMessage {
                reply: Some(Message {
                    src: dest,
                    dest: src,
                    body: Body::Error {
                        in_reply_to: body.get("msg_id").and_then(Json::as_u64),
                        code,
                        text: text.clone(),
                    },
                }),
                text,
            }),
        }
    }

    /// One compact JSON line (the stdio wire format, no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().render()
    }

    /// Parses one JSON line.
    pub fn from_line(line: &str) -> Result<Message, BadMessage> {
        let json = Json::parse(line).map_err(|e| BadMessage {
            reply: None,
            text: format!("bad JSON line: {e}"),
        })?;
        Message::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Message> {
        vec![
            Message {
                src: CLIENT,
                dest: 0,
                body: Body::Init {
                    msg_id: 1,
                    node_id: 0,
                    n: 64,
                },
            },
            Message {
                src: 0,
                dest: CLIENT,
                body: Body::InitOk { in_reply_to: 1 },
            },
            Message {
                src: CLIENT,
                dest: 3,
                body: Body::Topology {
                    msg_id: 2,
                    neighbors: vec![1, 2, 9],
                },
            },
            Message {
                src: 3,
                dest: CLIENT,
                body: Body::TopologyOk { in_reply_to: 2 },
            },
            Message {
                src: CLIENT,
                dest: 5,
                body: Body::Broadcast {
                    msg_id: 3,
                    value: 7001,
                },
            },
            Message {
                src: 5,
                dest: CLIENT,
                body: Body::BroadcastOk { in_reply_to: 3 },
            },
            Message {
                src: CLIENT,
                dest: 5,
                body: Body::Read { msg_id: 4 },
            },
            Message {
                src: 5,
                dest: CLIENT,
                body: Body::ReadOk {
                    in_reply_to: 4,
                    values: vec![7001, 7002],
                },
            },
            Message {
                src: 5,
                dest: 9,
                body: Body::Gossip { values: vec![7001] },
            },
            Message {
                src: 9,
                dest: 5,
                body: Body::GossipAck { values: vec![7001] },
            },
            Message {
                src: CLIENT,
                dest: 5,
                body: Body::Tick { tick: 42 },
            },
            Message {
                src: CLIENT,
                dest: 5,
                body: Body::Stats { msg_id: 5 },
            },
            Message {
                src: 5,
                dest: CLIENT,
                body: Body::StatsOk {
                    in_reply_to: 5,
                    gossip_sent: 120,
                    acks_sent: 31,
                    retries: 17,
                },
            },
            Message {
                src: 5,
                dest: CLIENT,
                body: Body::Error {
                    in_reply_to: Some(6),
                    code: NOT_SUPPORTED,
                    text: "unknown message type \"warp\"".into(),
                },
            },
            Message {
                src: 5,
                dest: CLIENT,
                body: Body::Error {
                    in_reply_to: None,
                    code: MALFORMED_REQUEST,
                    text: "missing or invalid body.msg_id".into(),
                },
            },
            // Integers above i64::MAX stay exact on the wire.
            Message {
                src: CLIENT,
                dest: 5,
                body: Body::Broadcast {
                    msg_id: 1 << 63,
                    value: u64::MAX,
                },
            },
        ]
    }

    #[test]
    fn every_body_round_trips_through_json_lines() {
        for msg in samples() {
            let line = msg.to_line();
            let back = Message::from_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, msg, "{line}");
            // Rendering is stable (byte-identical re-render).
            assert_eq!(back.to_line(), line);
        }
    }

    #[test]
    fn wire_format_is_maelstrom_shaped() {
        let line = samples()[4].to_line();
        assert!(line.starts_with("{\"src\":"), "{line}");
        assert!(line.contains("\"body\":{\"type\":\"broadcast\""), "{line}");
        assert!(line.contains("\"value\":7001"), "{line}");
    }

    #[test]
    fn garbage_lines_are_rejected() {
        for line in [
            "not json",
            "{\"src\":1}",
            "{\"src\":1,\"dest\":2,\"body\":{}}",
        ] {
            let bad = Message::from_line(line).unwrap_err();
            assert_eq!(bad.reply, None, "{line}: not an envelope, no reply");
        }
    }

    #[test]
    fn bad_bodies_owe_their_sender_a_typed_error() {
        let cases = [
            (
                r#"{"src":4,"dest":2,"body":{"type":"warp","msg_id":8}}"#,
                Some(8),
                NOT_SUPPORTED,
            ),
            (
                r#"{"src":4,"dest":2,"body":{"type":"broadcast","msg_id":9}}"#,
                Some(9),
                MALFORMED_REQUEST,
            ),
            (
                r#"{"src":4,"dest":2,"body":{"type":"gossip","values":[-1]}}"#,
                None,
                MALFORMED_REQUEST,
            ),
        ];
        for (line, want_reply_to, want_code) in cases {
            let bad = Message::from_line(line).unwrap_err();
            let reply = bad.reply.unwrap_or_else(|| panic!("{line}: no reply"));
            assert_eq!((reply.src, reply.dest), (2, 4), "back to the sender");
            match reply.body {
                Body::Error {
                    in_reply_to,
                    code,
                    text,
                } => {
                    assert_eq!((in_reply_to, code), (want_reply_to, want_code), "{line}");
                    assert_eq!(text, bad.text);
                }
                other => panic!("{line}: expected error, got {other:?}"),
            }
        }
    }
}
