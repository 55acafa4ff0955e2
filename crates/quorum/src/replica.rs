//! One member of a recorder quorum group: a full [`RecorderNode`] (so
//! every replica captures the broadcast medium and can serve replay
//! reads) fused with a [`RaftCore`] that sequences arrivals through the
//! replicated log.
//!
//! The replica keeps the recorder in *deferred sequencing* mode: an
//! observed destination ack no longer assigns an arrival sequence on
//! the spot — it is queued, proposed by the group's leader as a
//! [`Op::Sequence`] entry with the sequence chosen at proposal, and
//! published on every replica when the entry commits. The §3.2
//! guarantee ("the recorder remembers the order in which messages
//! arrive") thereby survives the permanent loss of any minority of
//! replicas.

use crate::codec::{decode_exports, encode_exports};
use crate::raft::{Op, QMsg, RaftConfig, RaftCore, RaftOut, ReplicaId, Role};
use publishing_core::cluster::TierStation;
use publishing_core::node::{RNAction, RecorderConfig, RecorderNode};
use publishing_demos::ids::{MessageId, NodeId, ProcessId};
use publishing_demos::transport::Wire;
use publishing_net::frame::{Destination, Frame, StationId};
use publishing_obs::span::{MsgKey, Stage};
use publishing_sim::codec::{Decode, Encode};
use publishing_sim::stats::{LinearHistogram, LogHistogram};
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Timer-token namespace bit: tokens with it set belong to the quorum
/// layer; the rest are forwarded to the inner recorder node.
const QUORUM_TOKEN_BIT: u64 = 1 << 63;
/// The recurring consensus tick.
const TICK_TOKEN: u64 = QUORUM_TOKEN_BIT;

/// An action a [`QuorumReplica`] asks the cluster to perform: the
/// recorder node's own action set, since a replica is a recorder node
/// plus consensus. Node restarts are arbitrated by the tier (only the
/// leader reboots processors).
pub type QAction = RNAction;

/// Configuration for one quorum replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Recorder group id (carried in every `Wire::Quorum` frame).
    pub group: u32,
    /// Consensus pacing.
    pub raft: RaftConfig,
    /// How often the consensus core ticks (election/heartbeat driver).
    pub tick: SimDuration,
    /// Inner recorder-node configuration.
    pub node: RecorderConfig,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            group: 0,
            raft: RaftConfig::default(),
            tick: SimDuration::from_millis(10),
            node: RecorderConfig::default(),
        }
    }
}

/// A recorder-quorum replica: recorder node + consensus core.
pub struct QuorumReplica {
    id: ReplicaId,
    group: u32,
    tick: SimDuration,
    node: RecorderNode,
    raft: RaftCore,
    /// Node id of each group member, indexed by replica id.
    peers: Vec<NodeId>,
    /// Acks observed on the medium whose messages are not yet
    /// quorum-sequenced, in observation order (volatile; every live
    /// replica accumulates the same backlog, so leader failover can
    /// re-propose it).
    acked: VecDeque<(MessageId, ProcessId)>,
    acked_ids: HashSet<MessageId>,
    /// Leader-volatile: next arrival sequence to propose per
    /// destination. Seeded from the recorder after the term's no-op
    /// commits; cleared on any leadership change.
    proposed_next: HashMap<ProcessId, u64>,
    /// Leader-volatile: set once this term's no-op entry commits —
    /// inherited entries are applied and it is safe to propose.
    term_settled: bool,
    /// Shared flag the recovery-responsibility filter reads: only the
    /// group leader directs process recovery.
    leader_flag: Arc<AtomicBool>,
    /// Bumped on crash so stale consensus-tick timers from a previous
    /// incarnation are ignored instead of forking a second tick chain.
    tick_epoch: u64,
    /// Audit trail for the quorum oracles: every `(seq, id)` this
    /// replica has applied, per destination. Survives crashes (it
    /// belongs to the test harness, not the node) and records a
    /// violation if a sequence is ever re-applied with a different
    /// message — the state-machine-safety check.
    applied_log: BTreeMap<ProcessId, BTreeMap<u64, MessageId>>,
    audit_violations: Vec<String>,
    /// When each still-uncommitted log entry this replica proposed was
    /// proposed (log index → propose time). Volatile: cleared on crash,
    /// so a restart's idempotent re-apply never charges phantom
    /// latencies.
    proposed_at: BTreeMap<u64, SimTime>,
    /// Proposal → quorum-durable commit latency, in virtual-time µs.
    commit_latency_us: LogHistogram,
    /// Worst follower replication lag (log entries), sampled each
    /// consensus tick while this replica leads.
    replication_lag: LinearHistogram,
    up: bool,
}

impl QuorumReplica {
    /// Creates replica `id` of a group whose members live on `peers`
    /// (indexed by replica id; `peers[id]` is this replica's own node).
    pub fn new(id: ReplicaId, peers: Vec<NodeId>, seed: u64, cfg: ReplicaConfig) -> Self {
        assert!((id as usize) < peers.len());
        let mut node = RecorderNode::new(peers[id as usize], cfg.node.clone());
        node.set_deferred_sequencing(true);
        node.set_checkpoint_duty(false);
        let leader_flag = Arc::new(AtomicBool::new(false));
        let flag = leader_flag.clone();
        // Track every pid (each replica is a full recorder); direct
        // recovery only while leading.
        let responsible: publishing_core::recorder::PidFilter =
            Arc::new(move |_pid| flag.load(Ordering::Relaxed));
        node.set_shard_filters(None, Some(responsible));
        let raft = RaftCore::new(id, peers.len() as u32, seed, cfg.raft.clone());
        QuorumReplica {
            id,
            group: cfg.group,
            tick: cfg.tick,
            node,
            raft,
            peers,
            acked: VecDeque::new(),
            acked_ids: HashSet::new(),
            proposed_next: HashMap::new(),
            term_settled: false,
            leader_flag,
            tick_epoch: 0,
            applied_log: BTreeMap::new(),
            audit_violations: Vec::new(),
            proposed_at: BTreeMap::new(),
            commit_latency_us: LogHistogram::new(),
            replication_lag: LinearHistogram::new(0.0, 64.0, 16),
            up: true,
        }
    }

    /// The packed identity Elect spans use for this replica (node in
    /// the high half, local 0 — rendered `node.0`). Only process pids
    /// destined by sequenced messages otherwise appear as subjects in a
    /// replica's span log, so election program-order chains never mix
    /// with message lifecycles.
    fn span_identity(&self) -> u64 {
        (self.node.node().0 as u64) << 32
    }

    /// This replica's id within the group.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The group id.
    pub fn group(&self) -> u32 {
        self.group
    }

    /// The node this replica runs on.
    pub fn node_id(&self) -> NodeId {
        self.node.node()
    }

    /// This replica's station.
    pub fn station(&self) -> StationId {
        self.node.station()
    }

    /// Whether the replica is up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Whether this replica currently leads the group.
    pub fn is_leader(&self) -> bool {
        self.up && self.raft.is_leader()
    }

    /// Read access to the inner recorder node.
    pub fn recorder_node(&self) -> &RecorderNode {
        &self.node
    }

    /// Read access to the consensus core.
    pub fn raft(&self) -> &RaftCore {
        &self.raft
    }

    /// Every `(seq, id)` this replica has applied, per destination —
    /// the audit trail the quorum oracles compare across replicas.
    pub fn applied_log(&self) -> &BTreeMap<ProcessId, BTreeMap<u64, MessageId>> {
        &self.applied_log
    }

    /// State-machine-safety violations this replica observed while
    /// applying (a sequence re-applied with a different message).
    pub fn audit_violations(&self) -> &[String] {
        &self.audit_violations
    }

    /// Proposal → quorum-durable commit latency of entries this replica
    /// proposed, in virtual-time microseconds.
    pub fn commit_latency_us(&self) -> &LogHistogram {
        &self.commit_latency_us
    }

    /// Worst follower replication lag (entries), sampled per consensus
    /// tick while leading.
    pub fn replication_lag_hist(&self) -> &LinearHistogram {
        &self.replication_lag
    }

    /// Begins operation: recorder watchdogs over `watch`, plus the
    /// consensus tick.
    pub fn start(&mut self, now: SimTime, watch: &[NodeId]) -> Vec<QAction> {
        let mut out = Vec::new();
        out.extend(self.node.start(now, watch));
        let routs = self.raft.start(now);
        self.process(now, routs, &mut out);
        out.push(QAction::SetTimer {
            at: now + self.tick,
            token: TICK_TOKEN | self.tick_epoch,
        });
        out
    }

    fn qframe(&self, to: ReplicaId, msg: &QMsg) -> Frame {
        let wire = Wire::Quorum {
            src_node: self.node.node(),
            group: self.group,
            payload: msg.encode_to_vec(),
        };
        Frame::new(
            self.station(),
            Destination::Station(StationId(self.peers[to as usize].0)),
            wire.encode_to_vec(),
        )
    }

    /// Runs consensus effects to quiescence, then applies committed
    /// entries and proposes any ready backlog.
    fn process(&mut self, now: SimTime, routs: Vec<RaftOut>, out: &mut Vec<QAction>) {
        let mut queue: VecDeque<RaftOut> = routs.into();
        while let Some(o) = queue.pop_front() {
            match o {
                RaftOut::Send { to, msg } => out.push(QAction::Transmit(self.qframe(to, &msg))),
                RaftOut::NeedSnapshot { to } => {
                    let image = self.build_snapshot();
                    let mut more = Vec::new();
                    self.raft.snapshot_built(to, image, &mut more);
                    queue.extend(more);
                }
                RaftOut::ApplySnapshot {
                    leader,
                    index,
                    snap_term,
                    image,
                } => {
                    if let Ok(exports) = decode_exports(&image) {
                        for export in exports {
                            let actions = self.node.import_process(now, export);
                            out.extend(actions);
                        }
                    }
                    queue.extend(self.raft.snapshot_installed(leader, index, snap_term));
                }
                RaftOut::BecameLeader => {
                    self.term_settled = false;
                    self.proposed_next.clear();
                    self.leader_flag.store(true, Ordering::Relaxed);
                    self.node.set_checkpoint_duty(true);
                    // The election win is a lifecycle event: everything
                    // the group sequences from here on waited on it, so
                    // the causal explorer can attribute failover time.
                    let me = self.span_identity();
                    let term = self.raft.term();
                    self.node.record_span(
                        now,
                        MsgKey {
                            sender: me,
                            seq: term,
                        },
                        Stage::Elect,
                        me,
                        term,
                    );
                }
                RaftOut::SteppedDown => {
                    self.term_settled = false;
                    self.proposed_next.clear();
                    self.leader_flag.store(false, Ordering::Relaxed);
                    self.node.set_checkpoint_duty(false);
                }
            }
        }
        self.drain_commits(now, out);
        self.collect_acks();
        self.propose_ready(now, out);
    }

    fn drain_commits(&mut self, now: SimTime, out: &mut Vec<QAction>) {
        for (idx, entry) in self.raft.take_applicable() {
            if let Some(proposed) = self.proposed_at.remove(&idx) {
                self.commit_latency_us
                    .record(now.saturating_since(proposed).as_nanos() / 1_000);
            }
            match entry.op {
                Op::Noop => {
                    if self.raft.is_leader() && entry.term == self.raft.term() {
                        // Inherited entries are now applied: the
                        // recorder's per-pid sequence counters are
                        // authoritative and proposing is safe.
                        self.term_settled = true;
                    }
                }
                Op::Sequence { seq, msg } => {
                    let dst = msg.header.to;
                    let slot = self.applied_log.entry(dst).or_default();
                    if let Some(prev) = slot.get(&seq) {
                        if *prev != msg.header.id {
                            self.audit_violations.push(format!(
                                "replica {}: pid {:?} seq {} applied as {:?} then {:?}",
                                self.id, dst, seq, prev, msg.header.id
                            ));
                        }
                    } else {
                        slot.insert(seq, msg.header.id);
                    }
                    self.acked_ids.remove(&msg.header.id);
                    let actions = self.node.apply_committed(now, seq, &msg);
                    out.extend(actions);
                }
            }
        }
    }

    fn collect_acks(&mut self) {
        for (_at, id, pid) in self.node.take_observed_acks() {
            if !self.acked_ids.contains(&id) && !self.node.recorder().is_sequenced(id) {
                self.acked_ids.insert(id);
                self.acked.push_back((id, pid));
            }
        }
    }

    fn propose_ready(&mut self, now: SimTime, out: &mut Vec<QAction>) {
        if self.raft.role() != Role::Leader || !self.term_settled || self.acked.is_empty() {
            return;
        }
        let mut routs = Vec::new();
        let backlog: Vec<(MessageId, ProcessId)> = self.acked.drain(..).collect();
        for (id, dst) in backlog {
            if self.node.recorder().is_sequenced(id) {
                self.acked_ids.remove(&id);
                continue;
            }
            let Some(msg) = self.node.recorder().pending_message(id).cloned() else {
                // The ack raced a capture we never made (e.g. we were
                // catching up); the destination's recovery replay covers
                // it. Do not invent a sequence for bytes we don't hold.
                self.acked_ids.remove(&id);
                continue;
            };
            let seeded = self.node.recorder().next_arrival_seq(dst);
            let next = self.proposed_next.entry(dst).or_insert(seeded);
            let seq = *next;
            *next += 1;
            if let Some(idx) = self.raft.propose(Op::Sequence { seq, msg }, &mut routs) {
                self.proposed_at.insert(idx, now);
            }
        }
        // Proposals only generate Sends (plus possible snapshot needs);
        // re-enter the effect loop without re-proposing.
        let mut queue: VecDeque<RaftOut> = routs.into();
        while let Some(o) = queue.pop_front() {
            match o {
                RaftOut::Send { to, msg } => out.push(QAction::Transmit(self.qframe(to, &msg))),
                RaftOut::NeedSnapshot { to } => {
                    let image = self.build_snapshot();
                    let mut more = Vec::new();
                    self.raft.snapshot_built(to, image, &mut more);
                    queue.extend(more);
                }
                _ => {}
            }
        }
        self.drain_commits(now, out);
    }

    fn build_snapshot(&self) -> Vec<u8> {
        let pids: Vec<ProcessId> = self.node.recorder().known_pids().collect();
        let exports: Vec<_> = pids
            .iter()
            .filter_map(|&p| self.node.export_process(p))
            .collect();
        encode_exports(&exports)
    }

    /// Handles a frame seen on the medium. Quorum frames for this group
    /// are consensus input and are processed whenever the replica is up
    /// (their loss tolerance comes from heartbeat retransmission, not
    /// the capture gate); everything else goes to the inner recorder.
    pub fn on_frame(&mut self, now: SimTime, frame: &Frame, recorder_ok: bool) -> Vec<QAction> {
        let mut out = Vec::new();
        if !self.up {
            return out;
        }
        if frame.is_intact() {
            if let Ok(Wire::Quorum { group, payload, .. }) = Wire::decode_all(&frame.payload) {
                if group == self.group && frame.dst.accepts(self.station()) {
                    if let Ok(qmsg) = QMsg::decode_all(&payload) {
                        let routs = self.raft.on_msg(now, qmsg);
                        self.process(now, routs, &mut out);
                    }
                }
                return out;
            }
        }
        let actions = self.node.on_frame(now, frame, recorder_ok);
        out.extend(actions);
        // An observed ack may be proposable immediately.
        self.collect_acks();
        self.propose_ready(now, &mut out);
        out
    }

    /// Handles a timer callback.
    pub fn on_timer(&mut self, now: SimTime, token: u64) -> Vec<QAction> {
        let mut out = Vec::new();
        if !self.up {
            return out;
        }
        if token & QUORUM_TOKEN_BIT != 0 {
            if token != (TICK_TOKEN | self.tick_epoch) {
                // A tick armed before a crash; the restart began a fresh
                // chain.
                return out;
            }
            let routs = self.raft.tick(now);
            self.process(now, routs, &mut out);
            if self.raft.is_leader() {
                self.replication_lag
                    .record(self.raft.worst_follower_lag() as f64);
            }
            out.push(QAction::SetTimer {
                at: now + self.tick,
                token: TICK_TOKEN | self.tick_epoch,
            });
        } else {
            let actions = self.node.on_timer(now, token);
            out.extend(actions);
            self.collect_acks();
            self.propose_ready(now, &mut out);
        }
        out
    }

    /// Crashes the replica: recorder volatile state is lost (battery
    /// keeps the capture buffer and the consensus log), leadership is
    /// lost, timers die with the host.
    pub fn crash(&mut self) {
        self.up = false;
        self.leader_flag.store(false, Ordering::Relaxed);
        self.term_settled = false;
        self.tick_epoch += 1;
        self.proposed_next.clear();
        self.proposed_at.clear();
        self.acked.clear();
        self.acked_ids.clear();
        self.node.crash();
    }

    /// Restarts the replica: recorder rebuild from stable storage, then
    /// rejoin the group as a follower and re-apply the committed prefix
    /// (idempotently) to repair any store writes the crash destroyed.
    pub fn restart(&mut self, now: SimTime) -> Vec<QAction> {
        let mut out = Vec::new();
        self.up = true;
        out.extend(self.node.restart(now));
        let routs = self.raft.restart(now);
        self.process(now, routs, &mut out);
        out.push(QAction::SetTimer {
            at: now + self.tick,
            token: TICK_TOKEN | self.tick_epoch,
        });
        out
    }
}

impl TierStation for QuorumReplica {
    fn start(&mut self, now: SimTime, watch: &[NodeId]) -> Vec<RNAction> {
        QuorumReplica::start(self, now, watch)
    }

    fn on_timer(&mut self, now: SimTime, token: u64) -> Vec<RNAction> {
        QuorumReplica::on_timer(self, now, token)
    }

    fn on_frame(&mut self, now: SimTime, frame: &Frame, recorder_ok: bool) -> Vec<RNAction> {
        QuorumReplica::on_frame(self, now, frame, recorder_ok)
    }

    fn is_up(&self) -> bool {
        self.up
    }

    fn recorder_node(&self) -> &RecorderNode {
        &self.node
    }

    fn recorder_node_mut(&mut self) -> &mut RecorderNode {
        &mut self.node
    }
}
