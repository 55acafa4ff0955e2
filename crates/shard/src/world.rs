//! The sharded recorder tier: the published log and checkpoint store are
//! *partitioned* across N recorder shards by the HRW [`ShardMap`], with
//! R-way replication inside each pid's capture set. The tier wires the
//! [`ShardRouter`] into the medium (per-frame ack ownership), into each
//! shard's recorder (ownership filter) and recovery manager
//! (responsibility filter), and implements the tier's orchestration:
//!
//! - **parallel recovery** — a crashed node's processes are recovered
//!   concurrently, each by the shard responsible for it, after the
//!   restart leader (the shard owning the node's kernel endpoint)
//!   announces the restart;
//! - **failover** — when a shard dies, its pids fall to their next-
//!   ranked live shard (which already holds their log, R ≥ 2), the
//!   capture sets are re-replicated to restore R copies, and the newly
//!   responsible shard issues targeted state queries so recoveries that
//!   died with the shard restart cleanly;
//! - **rebalancing** — a new shard drains the log segments of the pids
//!   it claims from their current holders, then the map epoch is bumped
//!   and a [`ShardCutover`] control message is published on the medium.

use crate::map::{ShardId, ShardMap};
use crate::router::ShardRouter;
use publishing_core::cluster::{Cluster, RecorderTier};
use publishing_core::node::{RecorderConfig, RecorderNode};
use publishing_demos::costs::CostModel;
use publishing_demos::ids::{Channel, MessageId, NodeId, ProcessId};
use publishing_demos::kernel::encode_ctl;
use publishing_demos::message::{Message, MessageHeader};
use publishing_demos::protocol::{codes, ShardCutover};
use publishing_demos::registry::ProgramRegistry;
use publishing_demos::transport::{TransportConfig, Wire};
use publishing_net::bus::PerfectBus;
use publishing_net::frame::{Destination, Frame, StationId};
use publishing_net::lan::{Lan, LanConfig};
use publishing_obs::probe::{RecoveryLag, ShardHealth};
use publishing_obs::registry::MetricsRegistry;
use publishing_obs::report::ObsReport;
use publishing_sim::codec::Encode;
use publishing_sim::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Deref, DerefMut};

/// The recording tier of a [`ShardedWorld`].
pub struct ShardTier {
    /// The recorder shards; index i is [`ShardId`]`(i)`.
    pub shards: Vec<RecorderNode>,
    router: ShardRouter,
    /// Every pid ever spawned (rebalance bookkeeping).
    processes: BTreeSet<ProcessId>,
    /// Restarted shards catching up before being readmitted: (idx, since).
    rejoining: Vec<(usize, SimTime)>,
    cutovers_published: u64,
}

type Sharded = Cluster<ShardTier>;

impl ShardTier {
    /// Read access to the routing state.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards ever admitted (live or not).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Cutover control messages published so far.
    pub fn cutovers_published(&self) -> u64 {
        self.cutovers_published
    }

    /// The shards (by index) that completed at least one recovery.
    pub fn recovering_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| self.shards[i].manager().stats().completed.get() > 0)
            .collect()
    }

    /// A recorder for shard `sid` on `node`, with the shard's ownership
    /// and responsibility filters, registered with the router.
    fn new_shard(&self, sid: ShardId, node: NodeId) -> RecorderNode {
        let mut rn = RecorderNode::new(node, RecorderConfig::default());
        rn.set_shard_filters(
            Some(self.router.owner_filter(sid)),
            Some(self.router.responsible_filter(sid)),
        );
        self.router.register(sid, rn.station());
        rn
    }

    /// Capture sets and responsibility before a membership change.
    #[allow(clippy::type_complexity)]
    fn snapshot_placement(
        &self,
    ) -> (
        BTreeMap<ProcessId, Vec<ShardId>>,
        BTreeMap<ProcessId, ShardId>,
    ) {
        self.router.with_map(|m| {
            let r = self.router.replication();
            let caps = self
                .processes
                .iter()
                .map(|&p| (p, m.capture_set(p, r)))
                .collect();
            let resp = self
                .processes
                .iter()
                .filter_map(|&p| m.responsible(p).map(|s| (p, s)))
                .collect();
            (caps, resp)
        })
    }

    fn health(&self, lan: &dyn Lan) -> Vec<ShardHealth> {
        (0..self.shards.len())
            .map(|i| {
                let rn = &self.shards[i];
                let rec = rn.recorder();
                ShardHealth {
                    shard: i as u32,
                    live: rn.is_up(),
                    catching_up: self.rejoining.iter().any(|(j, _)| *j == i),
                    queue_depth: rec.pending_depth() as u64,
                    known_processes: rec.known_pids().count() as u64,
                    recoveries_in_flight: rn.manager().job_pids().len() as u64,
                    replay_lag: publishing_core::obs::replay_lag(rec, rn.manager()),
                    gating_stalls: lan.stats().blocked_at(rn.station()),
                    published: rec.stats().published.get(),
                }
            })
            .collect()
    }
}

impl RecorderTier for ShardTier {
    type Station = RecorderNode;

    fn stations(&self) -> &[RecorderNode] {
        &self.shards
    }

    fn stations_mut(&mut self) -> &mut [RecorderNode] {
        &mut self.shards
    }

    fn gate(c: &mut Sharded) {
        let router = c.router.recorder_router();
        c.lan.set_recorder_router(Some(router));
        refresh_required(c);
    }

    /// Generalized §6.3 arbitration: the shard owning the node's kernel
    /// endpoint leads its restart; every live shard then recovers the
    /// pids it is responsible for.
    fn restart_node(c: &mut Sharded, now: SimTime, idx: usize, node: NodeId, _incarnation: u32) {
        if c.router.restart_leader(node) != Some(ShardId(idx as u32)) {
            c.shards[idx].decline_node_restart(node);
            return;
        }
        let incarnation = c.next_incarnation(node);
        c.restart_node(now, idx, node, incarnation, true);
    }

    /// Readmits rejoining shards once they have caught up (§6.3: natural
    /// checkpointing brings a returning recorder up to date).
    fn after_event(c: &mut Sharded, now: SimTime) {
        if c.rejoining.is_empty() {
            return;
        }
        let done: Vec<(usize, SimTime)> = c
            .rejoining
            .iter()
            .copied()
            .filter(|(i, since)| c.shards[*i].recorder().caught_up(*since))
            .collect();
        if !done.is_empty() {
            c.rejoining
                .retain(|(i, _)| !done.iter().any(|(j, _)| j == i));
            for (i, _) in done {
                change_membership(c, now, |m| m.set_live(ShardId(i as u32), true));
            }
        }
    }

    fn spawned(&mut self, pid: ProcessId) {
        self.processes.insert(pid);
    }

    fn metric_prefix(idx: usize) -> String {
        format!("shard/{idx}")
    }

    fn tier_metrics(c: &Sharded, reg: &mut MetricsRegistry) {
        for h in c.health(c.lan.as_ref()) {
            h.into_registry(reg);
        }
    }

    /// One probe per process, read from the shard currently responsible
    /// for it (capture-set replicas would repeat the same entry).
    fn recovery_lags(c: &Sharded, suppressed: &BTreeMap<u64, u64>) -> Vec<RecoveryLag> {
        let mut out = Vec::new();
        for &pid in &c.processes {
            let Some(sid) = c.router.with_map(|m| m.responsible(pid)) else {
                continue;
            };
            let rec = c.shards[sid.0 as usize].recorder();
            let mut lags = publishing_core::obs::recovery_lags(rec, c.now(), suppressed);
            lags.retain(|l| l.subject == pid.as_u64());
            out.extend(lags);
        }
        out
    }

    fn report(c: &Sharded, report: &mut ObsReport) {
        report.shards = c.health(c.lan.as_ref());
    }
}

/// The global fallback required set: every live, admitted shard. Only
/// undecodable frames ever consult it; everything else goes through the
/// per-frame router.
fn refresh_required(c: &mut Sharded) {
    let live: Vec<usize> = c
        .router
        .with_map(|m| m.live())
        .iter()
        .map(|s| s.0 as usize)
        .collect();
    c.require_stations(live);
}

/// Applies one membership change to the map (one atomic epoch bump every
/// closure sees), then restores placement against the old one and
/// publishes the cutover.
fn change_membership(c: &mut Sharded, now: SimTime, change: impl FnOnce(&mut ShardMap)) {
    let (caps, resp) = c.snapshot_placement();
    c.router.with_map_mut(change);
    refresh_required(c);
    reconcile_placement(c, now, &caps, &resp);
    publish_cutover(c, now);
}

/// After a map change: restore R-way replication by draining log
/// segments into newly responsible capture-set members, release
/// segments from members that dropped out, and have shards that
/// inherited responsibility from a dead one query their new pids'
/// states (a recovery that died with the old shard must restart).
fn reconcile_placement(
    c: &mut Sharded,
    now: SimTime,
    before_caps: &BTreeMap<ProcessId, Vec<ShardId>>,
    before_resp: &BTreeMap<ProcessId, ShardId>,
) {
    let r = c.router.replication();
    let mut queries: BTreeMap<usize, Vec<ProcessId>> = BTreeMap::new();
    for (&pid, old_set) in before_caps {
        let new_set = c.router.with_map(|m| m.capture_set(pid, r));
        for &s in new_set.iter().filter(|s| !old_set.contains(s)) {
            let tgt = s.0 as usize;
            if !c.shards[tgt].is_up() {
                continue;
            }
            // A readmitted shard kept capturing its pids while it was
            // marked dead (its ownership filter counts itself), so its
            // segment is already complete — don't re-drain.
            if c.shards[tgt].recorder().entry(pid).is_some() {
                continue;
            }
            let export = old_set.iter().find_map(|&o| {
                let src = o.0 as usize;
                if src != tgt && c.shards[src].is_up() {
                    c.shards[src].export_process(pid)
                } else {
                    None
                }
            });
            if let Some(export) = export {
                let actions = c.shards[tgt].import_process(now, export);
                c.apply_tier(now, tgt, actions);
            }
        }
        for &s in old_set.iter().filter(|s| !new_set.contains(s)) {
            let src = s.0 as usize;
            if c.shards[src].is_up() {
                let actions = c.shards[src].release_process(now, pid);
                c.apply_tier(now, src, actions);
            }
        }
        let new_resp = c.router.with_map(|m| m.responsible(pid));
        if let (Some(&old_r), Some(new_r)) = (before_resp.get(&pid), new_resp) {
            if old_r != new_r && !c.shards[old_r.0 as usize].is_up() {
                queries.entry(new_r.0 as usize).or_default().push(pid);
            }
        }
    }
    for (idx, pids) in queries {
        let actions = c.shards[idx].query_process_states(now, &pids);
        c.apply_tier(now, idx, actions);
    }
}

/// Publishes the new map epoch as a control message on the medium — the
/// §4 publishing principle applied to the tier's own reconfiguration:
/// the cutover is part of the recorded broadcast history, not a side
/// channel.
fn publish_cutover(c: &mut Sharded, now: SimTime) {
    let (epoch, live_shards) = c.router.with_map(|m| (m.epoch(), m.live().len() as u32));
    let Some(src_idx) = c.shards.iter().position(|s| s.is_up()) else {
        return;
    };
    let src_node = c.shards[src_idx].node();
    let body = encode_ctl(codes::SHARD_CUTOVER, &ShardCutover { epoch, live_shards });
    c.cutovers_published += 1;
    let seq = (epoch << 16) | c.cutovers_published;
    let nodes: Vec<u32> = c.kernels.keys().copied().collect();
    for n in nodes {
        let msg = Message {
            header: MessageHeader {
                id: MessageId {
                    sender: ProcessId::kernel_of(src_node),
                    seq,
                },
                to: ProcessId::kernel_of(NodeId(n)),
                code: 0,
                channel: Channel::DEFAULT,
                deliver_to_kernel: false,
            },
            passed_link: None,
            body: body.clone(),
        };
        let wire = Wire::Datagram { src_node, msg };
        let frame = Frame::new(
            StationId(src_node.0),
            Destination::Station(StationId(n)),
            wire.encode_to_vec(),
        );
        c.transmit(now, frame);
    }
}

/// A world whose recorder tier is sharded.
pub struct ShardedWorld(Sharded);

impl Deref for ShardedWorld {
    type Target = Sharded;

    fn deref(&self) -> &Sharded {
        &self.0
    }
}

impl DerefMut for ShardedWorld {
    fn deref_mut(&mut self) -> &mut Sharded {
        &mut self.0
    }
}

impl ShardedWorld {
    /// Builds a world with `nodes` processing nodes and `n_shards`
    /// recorder shards (on node ids `nodes..nodes+n_shards`), with
    /// capture sets of min(2, n_shards) shards.
    pub fn new(nodes: u32, n_shards: usize, registry: ProgramRegistry) -> Self {
        ShardedWorld::with_medium(
            nodes,
            n_shards,
            registry,
            Box::new(PerfectBus::new(LanConfig::default())),
        )
    }

    /// Builds a world like [`ShardedWorld::new`] but on a caller-supplied
    /// medium (ethernet, token ring, star...). The medium must be fresh:
    /// stations are attached here.
    pub fn with_medium(
        nodes: u32,
        n_shards: usize,
        registry: ProgramRegistry,
        lan: Box<dyn Lan>,
    ) -> Self {
        ShardedWorld::with_tuning(
            nodes,
            n_shards,
            registry,
            lan,
            CostModel::zero(),
            TransportConfig::default(),
        )
    }

    /// Builds a world like [`ShardedWorld::with_medium`] with explicit
    /// node CPU costs and transport parameters (the what-if profiler's
    /// tuning knobs).
    pub fn with_tuning(
        nodes: u32,
        n_shards: usize,
        registry: ProgramRegistry,
        lan: Box<dyn Lan>,
        costs: CostModel,
        transport: TransportConfig,
    ) -> Self {
        let replication = 2.min(n_shards.max(1));
        let mut tier = ShardTier {
            shards: Vec::new(),
            router: ShardRouter::new(ShardMap::new(n_shards as u32), replication),
            processes: BTreeSet::new(),
            rejoining: Vec::new(),
            cutovers_published: 0,
        };
        tier.shards = (0..n_shards as u32)
            .map(|i| tier.new_shard(ShardId(i), NodeId(nodes + i)))
            .collect();
        ShardedWorld(Cluster::with_tier(
            nodes, registry, costs, transport, true, lan, tier,
        ))
    }

    /// Crashes a shard. Its pids fail over to their next-ranked live
    /// shard (which, with R ≥ 2, already holds their full log); capture
    /// sets are re-replicated and inherited recoveries re-queried.
    pub fn crash_shard(&mut self, idx: usize) {
        let now = self.now();
        self.record_crash();
        self.shards[idx].crash();
        let st = self.shards[idx].station();
        self.lan.set_station_up(st, false);
        self.rejoining.retain(|(i, _)| *i != idx);
        change_membership(self, now, |m| m.set_live(ShardId(idx as u32), false));
    }

    /// Restarts a crashed shard. It rebuilds from its store, keeps
    /// recording its pids immediately (its ownership filter counts it
    /// even while not readmitted), and is marked live again — regaining
    /// responsibility — only once every process it knows has
    /// checkpointed since the restart.
    pub fn restart_shard(&mut self, idx: usize) {
        let now = self.now();
        let st = self.shards[idx].station();
        self.lan.set_station_up(st, true);
        let actions = self.shards[idx].restart(now);
        self.apply_tier(now, idx, actions);
        self.rejoining.push((idx, now));
    }

    /// Admits a brand-new shard: drains the log segments of every pid
    /// the new shard claims from their current holders, bumps the map
    /// epoch, publishes the cutover, and releases the drained segments
    /// from the members they moved off of.
    pub fn add_shard(&mut self) -> ShardId {
        let now = self.now();
        let idx = self.shards.len();
        let sid = ShardId(idx as u32);
        let node = NodeId(self.node_count() + idx as u32);
        let rn = self.new_shard(sid, node);
        self.lan.attach(rn.station());
        self.shards.push(rn);
        for k in self.kernels.values_mut() {
            k.add_recorder(node);
        }
        self.start_station(now, idx);
        change_membership(self, now, |m| {
            m.add_shard(sid);
        });
        sid
    }

    /// Point-in-time health of every shard in the tier.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.health(self.lan.as_ref())
    }
}

impl core::fmt::Debug for ShardedWorld {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShardedWorld")
            .field("nodes", &self.node_count())
            .field("shards", &self.shards.len())
            .field("router", &self.router)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_demos::link::Link;
    use publishing_demos::programs::{self, PingClient};

    fn registry() -> ProgramRegistry {
        let mut reg = ProgramRegistry::new();
        programs::register_standard(&mut reg);
        reg.register("ping10", || Box::new(PingClient::new(10)));
        reg
    }

    #[test]
    fn ping_completes_under_sharding() {
        let mut w = ShardedWorld::new(2, 3, registry());
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_secs(5));
        let out = w.outputs_of(client);
        assert_eq!(out.len(), 11, "{out:?}");
        assert_eq!(out.last().unwrap(), "done");
    }

    #[test]
    fn each_pid_is_recorded_by_its_capture_set() {
        let mut w = ShardedWorld::new(2, 3, registry());
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_secs(5));
        for pid in [server, client] {
            let caps = w.router().with_map(|m| m.capture_set(pid, 2));
            for i in 0..w.shard_count() {
                let has = w.shards[i].recorder().entry(pid).is_some();
                let should = caps.contains(&ShardId(i as u32));
                assert_eq!(has, should, "shard {i} vs capture set {caps:?} for {pid:?}");
            }
        }
    }

    #[test]
    fn process_crash_recovered_by_responsible_shard_only() {
        let mut w = ShardedWorld::new(2, 3, registry());
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_millis(40));
        w.crash_process(server, "injected");
        w.run_until(SimTime::from_secs(10));
        let out = w.outputs_of(client);
        assert_eq!(out.len(), 11, "{out:?}");
        let responsible = w.router().with_map(|m| m.responsible(server)).unwrap();
        for i in 0..w.shard_count() {
            let completed = w.shards[i].manager().stats().completed.get();
            if i == responsible.0 as usize {
                assert_eq!(completed, 1, "responsible shard recovers");
            } else {
                assert_eq!(completed, 0, "shard {i} must defer");
            }
        }
    }

    #[test]
    fn add_shard_publishes_cutover_and_keeps_working() {
        let mut w = ShardedWorld::new(2, 2, registry());
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_millis(30));
        let epoch_before = w.router().with_map(|m| m.epoch());
        let sid = w.add_shard();
        assert_eq!(sid, ShardId(2));
        assert!(w.router().with_map(|m| m.epoch()) > epoch_before);
        assert_eq!(w.cutovers_published(), 1);
        w.run_until(SimTime::from_secs(5));
        let out = w.outputs_of(client);
        assert_eq!(out.len(), 11, "{out:?}");
    }
}
