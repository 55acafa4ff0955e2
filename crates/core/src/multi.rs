//! Multiple recorders for reliability (§6.3).
//!
//! "During normal operation, all recorders record all messages. If there
//! are n recorders, n−1 can fail before the network becomes unavailable."
//! Each processing node carries a priority vector over the recorders; a
//! crashed node is recovered by the highest-priority recorder that is
//! functioning, and lower-priority recorders periodically re-check so a
//! recorder that dies mid-recovery is covered. Survivors "supply the
//! acknowledges" for a dead recorder — modelled by shrinking the medium's
//! required-recorder set — and a restarted recorder catches up through
//! natural checkpointing before it is required again.

use crate::cluster::{Cluster, RecorderTier};
use crate::node::{RecorderConfig, RecorderNode};
use publishing_demos::costs::CostModel;
use publishing_demos::ids::NodeId;
use publishing_demos::registry::ProgramRegistry;
use publishing_demos::transport::TransportConfig;
use publishing_net::bus::PerfectBus;
use publishing_net::lan::LanConfig;
use publishing_obs::probe::RecoveryLag;
use publishing_sim::time::SimTime;
use std::collections::BTreeMap;

/// Per-node recorder priority orderings (the §6.3 vectors V_i).
#[derive(Debug, Clone, Default)]
pub struct PriorityVectors {
    /// For each node, recorder indices in descending priority.
    pub per_node: BTreeMap<NodeId, Vec<usize>>,
}

impl PriorityVectors {
    /// Round-robin default: node k's vector starts at recorder k mod m.
    pub fn round_robin(nodes: u32, recorders: usize) -> Self {
        let mut per_node = BTreeMap::new();
        for n in 0..nodes {
            let v: Vec<usize> = (0..recorders)
                .map(|i| (n as usize + i) % recorders)
                .collect();
            per_node.insert(NodeId(n), v);
        }
        PriorityVectors { per_node }
    }

    /// The recorder responsible for `node` given per-recorder liveness:
    /// the first functioning recorder in the node's vector.
    pub fn responsible(&self, node: NodeId, alive: &[bool]) -> Option<usize> {
        self.per_node
            .get(&node)?
            .iter()
            .copied()
            .find(|&r| alive.get(r).copied().unwrap_or(false))
    }
}

/// The recording tier of a [`MultiWorld`]: several recorders that all
/// record everything.
pub struct MultiTier {
    /// The recorders; index i runs on node id `nodes + i`.
    pub recorders: Vec<RecorderNode>,
    /// Priority vectors.
    pub priorities: PriorityVectors,
    /// Recorders waiting to be re-required once caught up: (index, since).
    rejoining: Vec<(usize, SimTime)>,
}

impl RecorderTier for MultiTier {
    type Station = RecorderNode;

    fn stations(&self) -> &[RecorderNode] {
        &self.recorders
    }

    fn stations_mut(&mut self) -> &mut [RecorderNode] {
        &mut self.recorders
    }

    fn gate(c: &mut MultiWorld) {
        refresh_required(c);
    }

    fn restart_node(c: &mut MultiWorld, now: SimTime, idx: usize, node: NodeId, _incarnation: u32) {
        // §6.3: only the highest-priority live recorder acts.
        let alive: Vec<bool> = c.recorders.iter().map(|r| r.is_up()).collect();
        if c.priorities.responsible(node, &alive) != Some(idx) {
            c.recorders[idx].decline_node_restart(node);
            return;
        }
        let incarnation = c.next_incarnation(node);
        c.restart_node(now, idx, node, incarnation, false);
    }

    /// Re-admits rejoining recorders once caught up.
    fn after_event(c: &mut MultiWorld, _now: SimTime) {
        if c.rejoining.is_empty() {
            return;
        }
        let done: Vec<usize> = c
            .rejoining
            .iter()
            .filter(|(i, since)| c.recorders[*i].recorder().caught_up(*since))
            .map(|(i, _)| *i)
            .collect();
        if !done.is_empty() {
            c.rejoining.retain(|(i, _)| !done.contains(i));
            refresh_required(c);
        }
    }

    fn metric_prefix(idx: usize) -> String {
        format!("recorder/{idx}")
    }

    /// Every recorder records everything: read the first live one.
    fn recovery_lags(c: &MultiWorld, suppressed: &BTreeMap<u64, u64>) -> Vec<RecoveryLag> {
        c.recorders
            .iter()
            .find(|r| r.is_up())
            .map(|r| crate::obs::recovery_lags(r.recorder(), c.now(), suppressed))
            .unwrap_or_default()
    }
}

/// Requires every live recorder that is not still catching up.
fn refresh_required(c: &mut MultiWorld) {
    let live: Vec<usize> = (0..c.recorders.len())
        .filter(|&i| c.recorders[i].is_up() && !c.rejoining.iter().any(|(j, _)| *j == i))
        .collect();
    c.require_stations(live);
}

/// A world with several recorders.
pub type MultiWorld = Cluster<MultiTier>;

impl MultiWorld {
    /// Builds a world with `nodes` processing nodes and `n_recorders`
    /// recorders (node ids `nodes..nodes+n_recorders`).
    pub fn new(nodes: u32, n_recorders: usize, registry: ProgramRegistry) -> Self {
        let tier = MultiTier {
            recorders: (0..n_recorders as u32)
                .map(|i| RecorderNode::new(NodeId(nodes + i), RecorderConfig::default()))
                .collect(),
            priorities: PriorityVectors::round_robin(nodes, n_recorders),
            rejoining: Vec::new(),
        };
        Cluster::with_tier(
            nodes,
            registry,
            CostModel::zero(),
            TransportConfig::default(),
            true,
            Box::new(PerfectBus::new(LanConfig::default())),
            tier,
        )
    }

    /// Crashes a recorder; survivors cover for it (required set shrinks).
    pub fn crash_recorder(&mut self, idx: usize) {
        self.record_crash();
        self.recorders[idx].crash();
        let st = self.recorders[idx].station();
        self.lan.set_station_up(st, false);
        self.rejoining.retain(|(i, _)| *i != idx);
        refresh_required(self);
    }

    /// Restarts a recorder; it catches up via natural checkpointing
    /// before the medium requires its acknowledgement again.
    pub fn restart_recorder(&mut self, idx: usize) {
        let now = self.now();
        let st = self.recorders[idx].station();
        self.lan.set_station_up(st, true);
        let actions = self.recorders[idx].restart(now);
        self.apply_tier(now, idx, actions);
        self.rejoining.push((idx, now));
        refresh_required(self);
    }
}
