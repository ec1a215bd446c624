//! Provider-driven round execution: the implicit and sharded backends.
//!
//! [`RoundEngine`](crate::engine::RoundEngine) walks per-transmitter CSR
//! rows, which requires the full adjacency in memory.  [`SweepEngine`]
//! instead resolves a round by sweeping every **forward edge** of a
//! [`GraphProvider`] once — for edge `{u, v}` it bumps `v`'s hit counter if
//! `u` transmits and vice versa — so it runs unmodified on backends that
//! have no stored adjacency at all ([`ImplicitGnp`]).  Hit counters saturate
//! at 2 (the radio rule only distinguishes "exactly one" from "two or
//! more"), and a jammer counts two hits, exactly as in the sparse kernel.
//!
//! ## Sharding
//!
//! The edge sweep is embarrassingly parallel over row ranges: each shard
//! owns a disjoint range of rows (forward edges are owned by their lower
//! endpoint) and a private hit-counter scratch.  At the round barrier the
//! per-shard counters merge with saturating addition — `min(2, a + b)` is
//! exact for the only distinction that matters and commutative, so the
//! merged state is **independent of the shard count**.  All coins (loss,
//! burst) are drawn in the serial resolution pass that follows, in
//! ascending node-id order; shard count therefore never changes results,
//! which the cross-backend differential suite pins.
//!
//! ## Determinism contract
//!
//! The sweep plans of [`RunSpec::on_provider`](crate::exec::RunSpec::on_provider)
//! replicate the coin-draw order of the scalar round engine
//! draw-for-draw: fault coins at round start, decision coins per informed
//! node in ascending id, then one loss coin per exactly-one reception in
//! ascending id.  An implicit run and an explicit run on
//! [`GraphProvider::materialize`]'s graph are bit-identical — same informed
//! sets, same traces, same residual RNG stream.

use radio_graph::{
    child_rng, shard_ranges, AdjacencyBitmap, BitmapCapError, GraphProvider, ImplicitGnp, NodeId,
    Xoshiro256pp,
};
use std::ops::Range;

use crate::bitset::BitSet;
use crate::engine::RoundOutcome;
use crate::fault::{fault_summaries, FaultEvent, FaultPlan, FaultSession, LaneFaultSession};
use crate::kernel::{KernelUsed, DEFAULT_BITMAP_CAP_BYTES};
use crate::observer::NoopObserver;
use crate::protocol::{lane_mask, scalar_rounds, Protocol, RunConfig, MAX_LANES};
use crate::state::{BroadcastState, NOT_INFORMED};
use crate::trace::{RoundRecord, RunResult, TraceLevel};

/// Which graph backend a run executes on.
///
/// `Explicit` is the classic path (CSR +
/// [`RoundEngine`](crate::engine::RoundEngine) with its sparse/dense
/// kernels, and the tiled lane engine);
/// `Implicit` regenerates neighborhoods from the seed via [`ImplicitGnp`]
/// and runs on the [`SweepEngine`]; `Sharded` is the sweep over an explicit
/// CSR split across worker shards.  `Auto` picks per run size — see
/// [`resolve_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Decide per run: explicit when the dense bitmap would fit the default
    /// 64-MiB cap, implicit otherwise (with a note recording the decision).
    Auto,
    /// Explicit CSR adjacency, classic round engine.
    #[default]
    Explicit,
    /// Seed-only implicit `G(n, p)`, provider-driven sweep.
    Implicit,
    /// Explicit CSR swept in row-range shards across workers.
    Sharded,
}

impl Backend {
    /// Lower-case name, as accepted by the `FromStr` impl.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Auto => "auto",
            Backend::Explicit => "explicit",
            Backend::Implicit => "implicit",
            Backend::Sharded => "sharded",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Backend::Auto),
            "explicit" => Ok(Backend::Explicit),
            "implicit" => Ok(Backend::Implicit),
            "sharded" => Ok(Backend::Sharded),
            other => Err(format!(
                "unknown backend '{other}' (expected auto, explicit, implicit, or sharded)"
            )),
        }
    }
}

/// Resolves [`Backend::Auto`] for an `n`-node run: explicit while the
/// adjacency bitmap would fit [`DEFAULT_BITMAP_CAP_BYTES`], implicit beyond
/// it.  The returned [`BitmapCapError`], present exactly when the run was
/// rerouted, is the typed cap refusal — callers surface its `Display` text
/// as the trace note for the routing decision.  Non-`Auto` requests pass
/// through unchanged.
pub fn resolve_backend(requested: Backend, n: usize) -> (Backend, Option<BitmapCapError>) {
    match requested {
        Backend::Auto => {
            let needed = AdjacencyBitmap::bytes_needed(n);
            if needed > DEFAULT_BITMAP_CAP_BYTES {
                let err = BitmapCapError {
                    n,
                    needed,
                    cap: DEFAULT_BITMAP_CAP_BYTES,
                };
                (Backend::Implicit, Some(err))
            } else {
                (Backend::Explicit, None)
            }
        }
        other => (other, None),
    }
}

/// Sweeps `range`'s forward edges, accumulating hits (saturating at 2)
/// at both endpoints of every edge with a transmitting endpoint; a jam
/// source counts two hits.
fn fill_shard(
    provider: &dyn GraphProvider,
    range: Range<NodeId>,
    tx: &BitSet,
    jam_src: &BitSet,
    hits: &mut [u8],
) {
    let mut bump = |w: NodeId, from: NodeId| {
        let h = &mut hits[w as usize];
        *h = (*h + 1 + jam_src.get(from as usize) as u8).min(2);
    };
    provider.for_forward_edges(range, &mut |u, v| {
        if tx.get(u as usize) {
            bump(v, u);
        }
        if tx.get(v as usize) {
            bump(u, v);
        }
    });
}

/// Reusable provider-driven round executor (see the [module
/// docs](crate::sweep)).
///
/// Semantics are identical to the sparse kernel of
/// [`RoundEngine`](crate::engine::RoundEngine) under the default
/// [`TransmitterPolicy::InformedOnly`](crate::engine::TransmitterPolicy);
/// the engine differs only in how it finds the edges.
pub struct SweepEngine<'p> {
    provider: &'p dyn GraphProvider,
    ranges: Vec<Range<NodeId>>,
    /// Per-shard transmitting-neighbor counts (saturating at 2) for the
    /// rows each shard's edges touch.
    shards: Vec<Vec<u8>>,
    /// Transmitter membership this round (transmitters and jammers).
    is_transmitter: BitSet,
    /// Jam sources this round (the session's jammers).
    jam_src: BitSet,
    /// Effective transmitter list, reused across rounds.
    active: Vec<NodeId>,
    rounds: u64,
}

impl<'p> SweepEngine<'p> {
    /// A new engine sweeping `provider` with `shards` row-range shards
    /// (clamped to ≥ 1).  Shard count affects wall-clock only, never
    /// results.
    pub fn new(provider: &'p dyn GraphProvider, shards: usize) -> Self {
        let n = provider.n();
        let shards = shards.max(1);
        SweepEngine {
            provider,
            ranges: shard_ranges(n, shards),
            shards: vec![vec![0; n]; shards],
            is_transmitter: BitSet::new(n),
            jam_src: BitSet::new(n),
            active: Vec::new(),
            rounds: 0,
        }
    }

    /// The provider being swept.
    pub fn provider(&self) -> &'p dyn GraphProvider {
        self.provider
    }

    /// Number of row-range shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rounds executed so far.
    pub fn rounds_executed(&self) -> u64 {
        self.rounds
    }

    /// Executes one radio round (exact model, no faults).  Mirrors
    /// [`RoundEngine::execute_round`](crate::engine::RoundEngine::execute_round).
    pub fn execute_round(
        &mut self,
        state: &mut BroadcastState,
        transmitters: &[NodeId],
        round: u32,
    ) -> RoundOutcome {
        self.execute_with(state, transmitters, round, None, None)
    }

    /// Executes one round with i.i.d. per-reception loss.  The loss coin is
    /// drawn once per exactly-one reception in ascending node-id order —
    /// the same discipline as
    /// [`RoundEngine::execute_round_lossy`](crate::engine::RoundEngine::execute_round_lossy),
    /// so the two engines replay identically.
    pub fn execute_round_lossy(
        &mut self,
        state: &mut BroadcastState,
        transmitters: &[NodeId],
        round: u32,
        loss_prob: f64,
        rng: &mut Xoshiro256pp,
    ) -> RoundOutcome {
        assert!(
            (0.0..=1.0).contains(&loss_prob),
            "loss_prob must be within [0, 1], got {loss_prob}"
        );
        self.execute_with(state, transmitters, round, None, Some((loss_prob, rng)))
    }

    /// Executes one round under a fault session; semantics and coin order
    /// match
    /// [`RoundEngine::execute_round_faulty`](crate::engine::RoundEngine::execute_round_faulty)
    /// exactly.  The caller must have advanced the session with
    /// [`FaultSession::begin_round`] first.
    pub fn execute_round_faulty(
        &mut self,
        state: &mut BroadcastState,
        transmitters: &[NodeId],
        round: u32,
        session: &FaultSession<'_>,
        loss_prob: f64,
        rng: &mut Xoshiro256pp,
    ) -> RoundOutcome {
        self.execute_round_with(state, transmitters, round, Some(session), loss_prob, rng)
    }

    /// One round of a scalar sweep run: under `session` if there is one
    /// (`None` is the fault-free round), with i.i.d. loss `loss_prob` on
    /// top — the sweep twin of the round engine's step.
    pub(crate) fn execute_round_with(
        &mut self,
        state: &mut BroadcastState,
        transmitters: &[NodeId],
        round: u32,
        session: Option<&FaultSession<'_>>,
        loss_prob: f64,
        rng: &mut Xoshiro256pp,
    ) -> RoundOutcome {
        assert!(
            (0.0..=1.0).contains(&loss_prob),
            "loss_prob must be within [0, 1], got {loss_prob}"
        );
        let loss = (loss_prob > 0.0).then_some((loss_prob, rng));
        self.execute_with(state, transmitters, round, session, loss)
    }

    /// The round body: `loss` draws one coin per reception the faults let
    /// through (see the round engine's body).
    fn execute_with(
        &mut self,
        state: &mut BroadcastState,
        transmitters: &[NodeId],
        round: u32,
        session: Option<&FaultSession<'_>>,
        mut loss: Option<(f64, &mut Xoshiro256pp)>,
    ) -> RoundOutcome {
        let n = self.provider.n();
        debug_assert_eq!(state.n(), n);

        // Effective transmitter set: deduplicated, informed-only, unmuted.
        let mut active = std::mem::take(&mut self.active);
        active.clear();
        for &t in transmitters {
            if self.is_transmitter.get(t as usize) {
                continue; // duplicate
            }
            if !state.is_informed(t) {
                continue;
            }
            if session.is_some_and(|s| s.mute(t)) {
                continue;
            }
            self.is_transmitter.set(t as usize);
            active.push(t);
        }
        // Jammers occupy the channel too: they cannot receive this round.
        let jammers = session.map_or(&[][..], |s| s.jammers());
        for &j in jammers {
            self.is_transmitter.set(j as usize);
            self.jam_src.set(j as usize);
        }

        // Fill: sweep forward edges, one shard per row range.
        {
            let provider = self.provider;
            let tx = &self.is_transmitter;
            let jam_src = &self.jam_src;
            if self.shards.len() == 1 {
                fill_shard(
                    provider,
                    self.ranges[0].clone(),
                    tx,
                    jam_src,
                    &mut self.shards[0],
                );
            } else {
                let ranges = &self.ranges;
                std::thread::scope(|scope| {
                    for (scratch, range) in self.shards.iter_mut().zip(ranges) {
                        let range = range.clone();
                        scope.spawn(move || fill_shard(provider, range, tx, jam_src, scratch));
                    }
                });
            }
        }

        // Merge shards 1.. into shard 0 at the round barrier: saturating
        // counter addition (exact for the ==1 vs ≥2 distinction and
        // commutative, so results are shard-count-invariant).
        if self.shards.len() > 1 {
            let (first, rest) = self.shards.split_at_mut(1);
            for other in rest.iter() {
                for (m, o) in first[0].iter_mut().zip(other) {
                    *m = (*m + *o).min(2);
                }
            }
        }

        // Serial resolution in ascending node-id order — all coins are
        // drawn here, never in the fill, so shard scheduling cannot
        // influence the stream.
        let mut outcome = RoundOutcome {
            transmitters: active.len() + jammers.len(),
            ..RoundOutcome::default()
        };
        let blocked = session.map(|s| s.blocked());
        for (w, &h) in self.shards[0].iter().enumerate() {
            if h == 0 {
                continue;
            }
            if self.is_transmitter.get(w) {
                continue; // transmitting (or jamming), not listening
            }
            if blocked.is_some_and(|b| b.get(w)) {
                continue; // crashed or asleep: deaf
            }
            let w = w as NodeId;
            if !state.is_informed(w) {
                outcome.reached += 1;
                if h == 1 {
                    // Burst veto first, without a coin; the loss coin
                    // only for receptions the burst channel lets
                    // through (same order as the round engine).
                    let delivered = !session.is_some_and(|s| s.burst_bad(w))
                        && loss.as_mut().is_none_or(|(p, rng)| !rng.coin(*p));
                    if delivered {
                        state.inform(w, round);
                        outcome.newly_informed += 1;
                    }
                } else {
                    outcome.collisions += 1;
                }
            }
        }

        // Reset scratch for the next round.
        for hits in &mut self.shards {
            hits.fill(0);
        }
        for &t in &active {
            self.is_transmitter.unset(t as usize);
        }
        for &j in jammers {
            self.is_transmitter.unset(j as usize);
            self.jam_src.unset(j as usize);
        }
        self.active = active;
        self.rounds += 1;
        outcome
    }
}

/// Scalar sweep core: the body behind every
/// [`PlannedEngine::Sweep`](crate::exec::PlannedEngine::Sweep) plan,
/// faulted (`plan` set) or not.  (The shards ≤ 1 + explicit-adjacency
/// fast path lives in the planner, which routes such specs to the round
/// engine instead.)
pub(crate) fn run_sweep_scalar_core<P: Protocol + ?Sized>(
    provider: &dyn GraphProvider,
    shards: usize,
    source: NodeId,
    protocol: &mut P,
    config: RunConfig,
    plan: Option<&FaultPlan>,
    rng: &mut Xoshiro256pp,
) -> RunResult {
    let state = BroadcastState::new(provider.n(), source);
    let mut engine = SweepEngine::new(provider, shards);
    let mut result = scalar_rounds(
        provider,
        state,
        protocol,
        config,
        plan,
        rng,
        &mut NoopObserver,
        |state, transmitters, round, session, rng| {
            engine.execute_round_with(state, transmitters, round, session, config.loss_prob, rng)
        },
    );
    result.kernel = KernelUsed::Sweep;
    result
}

/// Per-shard lane scratch: two-plane saturating counters over trial
/// lanes (`planes[v] = [ge1, ge2]`, the lanes with ≥ 1 / ≥ 2
/// transmitting neighbors of `v` so far) plus jam-noise bits — the
/// lane-batched analogue of the scalar sweep's per-shard hit counters.
struct LaneShardScratch {
    planes: Vec<[u64; 2]>,
    jam: BitSet,
}

impl LaneShardScratch {
    fn new(n: usize) -> Self {
        LaneShardScratch {
            planes: vec![[0, 0]; n],
            jam: BitSet::new(n),
        }
    }

    fn reset(&mut self) {
        self.planes.fill([0, 0]);
        self.jam.clear();
    }
}

/// Sweeps `range`'s forward edges, merging each transmitting endpoint's
/// transmit word into the other endpoint's lane planes (and its jam bit
/// if the transmitter is a jam source).  Stores only — every coin is
/// drawn in the serial resolution pass.
fn fill_lane_shard(
    provider: &dyn GraphProvider,
    range: Range<NodeId>,
    t: &[u64],
    jam_src: &BitSet,
    scratch: &mut LaneShardScratch,
) {
    let LaneShardScratch { planes, jam } = scratch;
    provider.for_forward_edges(range, &mut |u, v| {
        let wu = t[u as usize];
        if wu != 0 {
            let p = &mut planes[v as usize];
            p[1] |= p[0] & wu;
            p[0] |= wu;
            if jam_src.get(u as usize) {
                jam.set(v as usize);
            }
        }
        let wv = t[v as usize];
        if wv != 0 {
            let p = &mut planes[u as usize];
            p[1] |= p[0] & wv;
            p[0] |= wv;
            if jam_src.get(v as usize) {
                jam.set(u as usize);
            }
        }
    });
}

/// Lane-batched provider sweep: the body behind every
/// [`PlannedEngine::LaneSweep`](crate::exec::PlannedEngine::LaneSweep)
/// plan — up to [`MAX_LANES`] independent trials resolved per
/// regenerated edge stream, so implicit backends amortize edge
/// regeneration across a whole batch of trials.
///
/// Lane `l` is **bit-identical** to the scalar runners on
/// `child_rng(master_seed, l)` — the same contract the tiled engine
/// keeps.  The core replays the scalar coin order within every lane
/// (fault/burst coins at round start, node-major and lane-ascending;
/// decision coins per informed node in ascending id; loss coins per
/// exactly-one reception in ascending id), each lane owns a private
/// RNG, and all coins are drawn in the serial resolution pass — shard
/// count and shard scheduling never change results.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sweep_lanes_core<P: Protocol + ?Sized>(
    provider: &dyn GraphProvider,
    shards: usize,
    source: NodeId,
    protocol: &mut P,
    config: RunConfig,
    plan: Option<&FaultPlan>,
    master_seed: u64,
    lanes: usize,
) -> Vec<RunResult> {
    assert!(
        (1..=MAX_LANES).contains(&lanes),
        "lanes must be in 1..={MAX_LANES}, got {lanes}"
    );
    let n = provider.n();
    assert!(
        (source as usize) < n,
        "source {source} out of range for n = {n}"
    );
    if let Some(p) = plan {
        assert_eq!(p.n(), n, "fault plan size mismatch");
    }
    let shards = shards.max(1);
    let ranges = shard_ranges(n, shards);
    let full = lane_mask(lanes);
    let lossy = config.loss_prob > 0.0;
    let loss = config.loss_prob;
    let per_round = config.trace_level == TraceLevel::PerRound;

    let mut rngs: Vec<Xoshiro256pp> = (0..lanes as u64)
        .map(|l| child_rng(master_seed, l))
        .collect();
    protocol.begin_run(n);

    let mut session = plan.map(LaneFaultSession::new);
    let mut lane_events: Vec<Vec<FaultEvent>> = vec![Vec::new(); lanes];

    // Per-lane broadcast state, struct-of-words: informed mask per node,
    // informed round per (node, lane).
    let mut informed: Vec<u64> = vec![0; n];
    informed[source as usize] = full;
    let mut informed_round: Vec<u32> = vec![NOT_INFORMED; n * lanes];
    informed_round[source as usize * lanes..source as usize * lanes + lanes].fill(0);

    // Transmit words (bit l = transmits in lane l) and jam sources.
    // The fill reads both; jam bits are derived per edge there, so no
    // stored adjacency is ever needed for jammers.
    let mut t: Vec<u64> = vec![0; n];
    let mut tx_nodes: Vec<NodeId> = Vec::new();
    let mut jam_src = BitSet::new(n);
    let mut jam_live = false;
    let mut scratches: Vec<LaneShardScratch> =
        (0..shards).map(|_| LaneShardScratch::new(n)).collect();

    let mut lane_informed = vec![1usize; lanes];
    let mut lane_rounds = vec![0u32; lanes];
    let mut lane_completed = vec![n == 1; lanes];
    let mut lane_last = vec![0u32; lanes];
    let mut traces: Vec<Vec<RoundRecord>> = vec![Vec::new(); lanes];

    // Per-round, per-lane outcome counters.
    let mut tx_count = vec![0u32; lanes];
    let mut newly = vec![0u32; lanes];
    let mut colls = vec![0u32; lanes];
    let mut reach = vec![0u32; lanes];

    let mut active = if n == 1 { 0 } else { full };
    let mut round = 0u32;
    while active != 0 && round < config.max_rounds {
        round += 1;

        // Faults fire (and burst channels step) before any decision
        // coin, exactly like the scalar faulty runners.
        if let Some(s) = session.as_mut() {
            let fired = s.begin_round(round, &[active], &mut rngs);
            if !fired.is_empty() {
                let mut m = active;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    lane_events[l].extend_from_slice(fired);
                }
            }
        }

        // Decision phase, node-major: each lane sees its informed nodes
        // in ascending id order on its private RNG (the scalar order).
        for u in 0..n {
            let mask = informed[u] & active;
            if mask == 0 {
                continue;
            }
            // Crashed, asleep, and jamming nodes draw no decision coin.
            if session.as_ref().is_some_and(|s| s.mute(u as NodeId)) {
                continue;
            }
            let base = u * lanes;
            let word = protocol.transmits_lanes(
                u as NodeId,
                round,
                mask,
                &informed_round[base..base + lanes],
                &mut rngs,
            ) & mask;
            if word != 0 {
                t[u] = word;
                tx_nodes.push(u as NodeId);
                let mut m = word;
                while m != 0 {
                    tx_count[m.trailing_zeros() as usize] += 1;
                    m &= m - 1;
                }
            }
        }

        // Jammers transmit in every active lane.  Jam-only exactly-one
        // lanes are demoted to collisions during resolution via the
        // per-shard jam bits the fill derives from `jam_src`.
        if let Some(s) = session.as_ref() {
            if jam_live {
                jam_src.clear();
                jam_live = false;
            }
            for &j in s.jammers() {
                debug_assert_eq!(t[j as usize], 0, "jammer drew a decision coin");
                t[j as usize] = active;
                tx_nodes.push(j);
                jam_src.set(j as usize);
                jam_live = true;
                let mut m = active;
                while m != 0 {
                    tx_count[m.trailing_zeros() as usize] += 1;
                    m &= m - 1;
                }
            }
        }

        // Fill: sweep forward edges, one shard per row range.
        {
            let tw = &t;
            let js = &jam_src;
            if shards == 1 {
                fill_lane_shard(provider, ranges[0].clone(), tw, js, &mut scratches[0]);
            } else {
                std::thread::scope(|scope| {
                    for (scratch, range) in scratches.iter_mut().zip(&ranges) {
                        let range = range.clone();
                        scope.spawn(move || fill_lane_shard(provider, range, tw, js, scratch));
                    }
                });
            }
        }

        // Merge shards 1.. into shard 0 at the round barrier: the
        // per-lane saturating combine `ge2' = a2 | b2 | (a1 & b1);
        // ge1' = a1 | b1` is commutative and associative, so the merged
        // planes are independent of the shard count, plus jam-bit union.
        if shards > 1 {
            let (first, rest) = scratches.split_at_mut(1);
            let merged = &mut first[0];
            for other in rest.iter_mut() {
                for (m, o) in merged.planes.iter_mut().zip(&other.planes) {
                    m[1] |= o[1] | (m[0] & o[0]);
                    m[0] |= o[0];
                }
                merged.jam.union_with(&other.jam);
            }
        }

        // Serial resolution in ascending node-id order — all coins are
        // drawn here (ascending lane within a node), never in the fill,
        // so shard scheduling cannot influence the streams.
        {
            let scr = &scratches[0];
            for v in 0..n {
                let [ge1, ge2] = scr.planes[v];
                if ge1 == 0 {
                    continue;
                }
                // A lane's transmitters (and jammers) cannot receive;
                // informed lanes have nothing to learn.
                let reached_w = ge1 & !t[v] & !informed[v];
                if reached_w == 0 {
                    continue;
                }
                // Blocked (crashed/asleep) nodes receive nothing and
                // count toward neither reach nor collisions.
                if session
                    .as_ref()
                    .is_some_and(|s| s.blocked_node(v as NodeId))
                {
                    continue;
                }
                let mut m = reached_w;
                while m != 0 {
                    reach[m.trailing_zeros() as usize] += 1;
                    m &= m - 1;
                }
                let mut m = reached_w & ge2;
                while m != 0 {
                    colls[m.trailing_zeros() as usize] += 1;
                    m &= m - 1;
                }
                let e1 = reached_w & !ge2;
                if jam_live && scr.jam.get(v) {
                    // The jammer transmits in every active lane, so each
                    // exactly-one lane here is a jam-only hit: a
                    // collision, never a delivery, and (like the scalar
                    // engines) no burst/loss coin is drawn for it.
                    let mut m = e1;
                    while m != 0 {
                        colls[m.trailing_zeros() as usize] += 1;
                        m &= m - 1;
                    }
                    continue;
                }
                let mut delivered = e1;
                if let Some(s) = session.as_ref() {
                    // Burst veto consumes no coin (channel state was
                    // drawn in begin_round), matching the scalar `&&`
                    // short circuit: lost-to-burst lanes skip the loss
                    // coin too.
                    delivered &= !s.burst_word(v as NodeId);
                }
                if lossy {
                    // Same coin as the scalar engines' delivery veto, in
                    // ascending lane order within the ascending node
                    // sweep.
                    let mut m = delivered;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        if rngs[l].coin(loss) {
                            delivered &= !(1u64 << l);
                        }
                    }
                }
                if delivered != 0 {
                    informed[v] |= delivered;
                    let base = v * lanes;
                    let mut m = delivered;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        informed_round[base + l] = round;
                        lane_informed[l] += 1;
                        newly[l] += 1;
                    }
                }
            }
        }

        // Book-keeping per still-active lane: trace record, completion.
        let mut still = active;
        while still != 0 {
            let l = still.trailing_zeros() as usize;
            still &= still - 1;
            if per_round {
                traces[l].push(RoundRecord {
                    round,
                    transmitters: tx_count[l] as usize,
                    newly_informed: newly[l] as usize,
                    collisions: colls[l] as usize,
                    reached: reach[l] as usize,
                    informed_after: lane_informed[l],
                });
            }
            if newly[l] > 0 {
                lane_last[l] = round;
            }
            if lane_informed[l] == n {
                lane_completed[l] = true;
                lane_rounds[l] = round;
                active &= !(1u64 << l);
            }
        }

        for &u in &tx_nodes {
            t[u as usize] = 0;
        }
        tx_nodes.clear();
        tx_count.fill(0);
        newly.fill(0);
        colls.fill(0);
        reach.fill(0);
        for scratch in &mut scratches {
            scratch.reset();
        }
    }

    // Budget-exhausted lanes report the exhausted budget, like the
    // scalar runner.
    let mut still = active;
    while still != 0 {
        let l = still.trailing_zeros() as usize;
        still &= still - 1;
        lane_rounds[l] = round;
    }

    let lane_faults = plan.map(|p| {
        fault_summaries(p, provider, source, &lane_rounds, |l, v| {
            informed[v as usize] >> l & 1 == 1
        })
    });

    traces
        .into_iter()
        .enumerate()
        .map(|(l, trace)| RunResult {
            completed: lane_completed[l],
            rounds: lane_rounds[l],
            informed: lane_informed[l],
            n,
            kernel: KernelUsed::Sweep,
            threads: 1,
            last_delivery_round: lane_last[l],
            fault_events: std::mem::take(&mut lane_events[l]),
            faults: lane_faults.as_ref().map(|f| f[l]),
            trace,
        })
        .collect()
}

/// Convenience: an [`ImplicitGnp`] provider for one run, seeded like the
/// explicit samplers (graph structure from its own child stream of `seed`).
pub fn implicit_gnp(n: usize, p: f64, seed: u64) -> ImplicitGnp {
    ImplicitGnp::new(n, p, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::RunSpec;
    use crate::fault::FaultPlan;
    use crate::protocol::LocalNode;
    use radio_graph::Graph;

    struct AlwaysTransmit;
    impl Protocol for AlwaysTransmit {
        fn name(&self) -> String {
            "always".into()
        }
        fn transmits(&mut self, _node: LocalNode, _rng: &mut Xoshiro256pp) -> bool {
            true
        }
    }

    /// Transmit with probability 1/2 every round.
    struct HalfCoin;
    impl Protocol for HalfCoin {
        fn name(&self) -> String {
            "half".into()
        }
        fn transmits(&mut self, _node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
            rng.coin(0.5)
        }
    }

    #[test]
    fn backend_parsing_round_trips() {
        for b in [
            Backend::Auto,
            Backend::Explicit,
            Backend::Implicit,
            Backend::Sharded,
        ] {
            assert_eq!(b.as_str().parse::<Backend>().unwrap(), b);
        }
        assert!("bogus".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Explicit);
    }

    #[test]
    fn auto_resolution_routes_on_bitmap_cap() {
        // Small n: bitmap fits the 64-MiB cap → explicit, no note.
        let (b, note) = resolve_backend(Backend::Auto, 1000);
        assert_eq!((b, note), (Backend::Explicit, None));
        // Oversized n: rerouted to implicit with the typed cap error.
        let n = 100_000;
        let (b, note) = resolve_backend(Backend::Auto, n);
        assert_eq!(b, Backend::Implicit);
        let err = note.expect("cap error note");
        assert_eq!(err.n, n);
        assert_eq!(err.cap, DEFAULT_BITMAP_CAP_BYTES);
        assert!(err.needed > err.cap);
        // Explicit requests pass through untouched.
        let (b, note) = resolve_backend(Backend::Sharded, n);
        assert_eq!((b, note), (Backend::Sharded, None));
    }

    #[test]
    fn sweep_matches_engine_on_star() {
        let g = Graph::star(5);
        let mut st = BroadcastState::new(5, 0);
        let mut eng = SweepEngine::new(&g, 1);
        let out = eng.execute_round(&mut st, &[0], 1);
        assert_eq!(out.transmitters, 1);
        assert_eq!(out.newly_informed, 4);
        assert!(st.is_complete());
        assert_eq!(eng.rounds_executed(), 1);
    }

    #[test]
    fn sweep_collision_and_dedup_semantics() {
        // 0 — 2, 1 — 2: both 0 and 1 transmit → 2 hears a collision;
        // duplicates are not double-counted.
        let g = Graph::from_edges(3, vec![(0, 2), (1, 2)]);
        let mut st = BroadcastState::new(3, 0);
        st.inform(1, 0);
        let mut eng = SweepEngine::new(&g, 1);
        let out = eng.execute_round(&mut st, &[0, 1, 0], 1);
        assert_eq!(out.transmitters, 2);
        assert_eq!(out.collisions, 1);
        assert!(!st.is_informed(2));
        // Uninformed entries are skipped (InformedOnly semantics).
        let out2 = eng.execute_round(&mut st, &[2], 2);
        assert_eq!(out2.transmitters, 0);
    }

    #[test]
    fn provider_run_fast_path_equals_explicit_runner() {
        let g = ImplicitGnp::new(300, 0.03, 5).materialize();
        let cfg = RunConfig::for_graph(300);
        let mut rng_a = Xoshiro256pp::new(77);
        let a = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .run_with_rng(&mut HalfCoin, &mut rng_a)
            .into_single();
        let mut rng_b = Xoshiro256pp::new(77);
        let b = RunSpec::on_provider(&g, 1, 0)
            .with_config(cfg)
            .run_with_rng(&mut HalfCoin, &mut rng_b)
            .into_single();
        assert_eq!(a, b, "shards=1 on explicit must take the engine fast path");
        assert_eq!(rng_a.next(), rng_b.next());
    }

    #[test]
    fn sharded_explicit_matches_engine_run() {
        let g = ImplicitGnp::new(400, 0.025, 9).materialize();
        let cfg = RunConfig::for_graph(400);
        let mut rng_a = Xoshiro256pp::new(3);
        let mut a = RunSpec::on_graph(&g, 2)
            .with_config(cfg)
            .run_with_rng(&mut HalfCoin, &mut rng_a)
            .into_single();
        for shards in [2, 4, 7] {
            let mut rng_b = Xoshiro256pp::new(3);
            let b = RunSpec::on_provider(&g, shards, 2)
                .with_config(cfg)
                .run_with_rng(&mut HalfCoin, &mut rng_b)
                .into_single();
            assert_eq!(b.kernel, KernelUsed::Sweep);
            a.kernel = KernelUsed::Sweep;
            assert_eq!(a, b, "shards = {shards}");
            assert_eq!(rng_a.clone().next(), rng_b.next());
        }
    }

    #[test]
    fn implicit_run_matches_materialized_run() {
        let imp = implicit_gnp(350, 0.03, 11);
        let g = imp.materialize();
        let cfg = RunConfig::for_graph(350).with_loss(0.2);
        let mut rng_a = Xoshiro256pp::new(41);
        let mut a = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .run_with_rng(&mut HalfCoin, &mut rng_a)
            .into_single();
        let mut rng_b = Xoshiro256pp::new(41);
        let b = RunSpec::on_provider(&imp, 1, 0)
            .with_config(cfg)
            .run_with_rng(&mut HalfCoin, &mut rng_b)
            .into_single();
        a.kernel = KernelUsed::Sweep;
        assert_eq!(a, b);
        assert_eq!(rng_a.next(), rng_b.next());
    }

    #[test]
    fn faulty_provider_run_matches_explicit() {
        let imp = implicit_gnp(256, 0.04, 13);
        let g = imp.materialize();
        let mut plan = FaultPlan::new(256);
        plan.crash(5, 4)
            .sleep(30, 8)
            .jam(40, 3, 20)
            .set_burst(0.3, 0.25);
        let cfg = RunConfig::for_graph(256).with_loss(0.1);
        let mut rng_a = Xoshiro256pp::new(19);
        let mut a = RunSpec::on_graph(&g, 1)
            .with_config(cfg)
            .with_faults(&plan)
            .run_with_rng(&mut HalfCoin, &mut rng_a)
            .into_single();
        for shards in [1, 4] {
            let mut rng_b = Xoshiro256pp::new(19);
            let b = RunSpec::on_provider(&imp, shards, 1)
                .with_config(cfg)
                .with_faults(&plan)
                .run_with_rng(&mut HalfCoin, &mut rng_b)
                .into_single();
            a.kernel = KernelUsed::Sweep;
            assert_eq!(a, b, "shards = {shards}");
            assert_eq!(rng_a.clone().next(), rng_b.next());
        }
    }

    #[test]
    fn flooding_on_path_provider() {
        let g = Graph::path(10);
        let mut rng = Xoshiro256pp::new(1);
        let r = RunSpec::on_provider(
            &g, 3, // force the sweep path on an explicit graph
            0,
        )
        .with_config(RunConfig::for_graph(10))
        .run_with_rng(&mut AlwaysTransmit, &mut rng)
        .into_single();
        assert!(r.completed);
        assert_eq!(r.rounds, 9);
        assert_eq!(r.kernel, KernelUsed::Sweep);
    }

    #[test]
    fn lane_sweep_matches_scalar_streams() {
        let imp = implicit_gnp(180, 0.05, 21);
        let g = imp.materialize();
        for (case, (lanes, loss)) in [(16usize, 0.0), (64, 0.0), (7, 0.25), (64, 0.25)]
            .into_iter()
            .enumerate()
        {
            let cfg = RunConfig::for_graph(180)
                .with_max_rounds(50)
                .with_loss(loss);
            let master = 1000 + case as u64;
            for shards in [1usize, 3] {
                let batch =
                    run_sweep_lanes_core(&imp, shards, 0, &mut HalfCoin, cfg, None, master, lanes);
                assert_eq!(batch.len(), lanes);
                for (l, got) in batch.iter().enumerate() {
                    let mut rng = child_rng(master, l as u64);
                    let mut want = RunSpec::on_graph(&g, 0)
                        .with_config(cfg)
                        .run_with_rng(&mut HalfCoin, &mut rng)
                        .into_single();
                    want.kernel = KernelUsed::Sweep;
                    assert_eq!(*got, want, "case {case}, shards {shards}, lane {l}");
                }
            }
        }
    }

    #[test]
    fn faulty_lane_sweep_matches_scalar_faulty_runs() {
        let imp = implicit_gnp(150, 0.06, 33);
        let g = imp.materialize();
        let mut plan = FaultPlan::new(150);
        plan.crash(5, 4)
            .sleep(30, 8)
            .jam(40, 3, 20)
            .set_burst(0.3, 0.25);
        for (case, loss) in [(0u64, 0.0), (1, 0.2)] {
            let cfg = RunConfig::for_graph(150)
                .with_max_rounds(40)
                .with_loss(loss);
            let master = 7000 + case;
            for shards in [1usize, 4] {
                let batch = run_sweep_lanes_core(
                    &imp,
                    shards,
                    1,
                    &mut HalfCoin,
                    cfg,
                    Some(&plan),
                    master,
                    MAX_LANES,
                );
                for (l, got) in batch.iter().enumerate() {
                    let mut rng = child_rng(master, l as u64);
                    let mut want = RunSpec::on_graph(&g, 1)
                        .with_config(cfg)
                        .with_faults(&plan)
                        .run_with_rng(&mut HalfCoin, &mut rng)
                        .into_single();
                    want.kernel = KernelUsed::Sweep;
                    assert_eq!(*got, want, "case {case}, shards {shards}, lane {l}");
                }
            }
        }
    }
}
