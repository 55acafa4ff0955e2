//! The replicated-recorder tier: a quorum group of recorder replicas.
//! Every replica captures every frame (the medium replicates bytes for
//! free, §3.2), the elected leader sequences arrivals through the
//! replicated log, and the group survives the crash of any minority —
//! including the leader, mid-commit — without losing or duplicating an
//! arrival sequence.

use crate::replica::{QuorumReplica, ReplicaConfig};
use publishing_core::cluster::{Cluster, RecorderTier, TierStation};
use publishing_core::node::RecorderConfig;
use publishing_demos::costs::CostModel;
use publishing_demos::ids::{MessageId, NodeId, ProcessId};
use publishing_demos::registry::ProgramRegistry;
use publishing_demos::transport::{TransportConfig, Wire};
use publishing_net::bus::PerfectBus;
use publishing_net::frame::Frame;
use publishing_net::lan::{Lan, LanConfig, RecorderRouter};
use publishing_obs::probe::{QuorumHealth, RecoveryLag};
use publishing_obs::registry::MetricsRegistry;
use publishing_obs::report::{ConsensusStats, ObsReport, WatchdogSummary};
use publishing_obs::watchdog::{Watchdog, WatchdogConfig};
use publishing_sim::codec::Decode;
use publishing_sim::ledger::{ResourceKind, ResourceUsage, Timeline};
use publishing_sim::stats::{LinearHistogram, LogHistogram};
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Virtual-time cadence of the online invariant watchdog.
const WATCHDOG_PERIOD: SimDuration = SimDuration::from_millis(25);

/// Configuration for a [`QuorumWorld`].
#[derive(Debug, Clone)]
pub struct QuorumConfig {
    /// Processing nodes (node ids `0..nodes`).
    pub nodes: u32,
    /// Quorum replicas (node ids `nodes..nodes+replicas`). Use an odd
    /// count; 1 degenerates to the single-recorder world.
    pub replicas: usize,
    /// Deterministic seed for election-timeout randomization.
    pub seed: u64,
    /// Per-replica configuration template (the group id and the inner
    /// recorder/raft settings).
    pub replica: ReplicaConfig,
    /// Node CPU cost model (zero by default, as in protocol tests).
    pub costs: CostModel,
    /// Transport parameters for all processing nodes.
    pub transport: TransportConfig,
}

impl Default for QuorumConfig {
    fn default() -> Self {
        QuorumConfig {
            nodes: 2,
            replicas: 3,
            seed: 0,
            replica: ReplicaConfig::default(),
            costs: CostModel::zero(),
            transport: TransportConfig::default(),
        }
    }
}

/// A recorder-consensus router: consensus, datagram, and kernel
/// control traffic is never gated on capture (it must flow during
/// elections and while replicas are down); everything else falls back
/// to the live-replica required set.
fn quorum_router() -> RecorderRouter {
    Arc::new(|frame: &Frame| match Wire::decode_all(&frame.payload) {
        Ok(Wire::Quorum { .. } | Wire::Datagram { .. } | Wire::EpochNotice { .. }) => {
            Some(Vec::new())
        }
        Ok(Wire::Data { msg, .. }) if msg.header.to.is_kernel() => Some(Vec::new()),
        Ok(Wire::Ack { dst_pid, .. }) if dst_pid.is_kernel() => Some(Vec::new()),
        _ => None,
    })
}

/// The recording tier of a [`QuorumWorld`].
pub struct QuorumTier {
    /// The recorder quorum group, by replica index.
    pub replicas: Vec<QuorumReplica>,
    /// Leader observed for each term, with the election-safety
    /// violations found while tracking.
    term_leaders: BTreeMap<u64, u32>,
    election_violations: Vec<String>,
    /// Online invariant watchdog, evaluated every [`WATCHDOG_PERIOD`]
    /// of virtual time as events dispatch.
    watchdog: Watchdog,
    next_watchdog_scan: SimTime,
    /// Busy-while-leaderless availability meter: charged whenever a
    /// watchdog scan finds no leader, closed when one is observed.
    leaderless: Timeline,
    leaderless_since: Option<SimTime>,
}

type Quorum = Cluster<QuorumTier>;

impl QuorumTier {
    /// The number of replicas in the group.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The index of the current leader, if any replica is leading.
    pub fn leader(&self) -> Option<usize> {
        self.replicas.iter().position(|r| r.is_leader())
    }

    /// Live replicas (up hosts).
    pub fn live_replicas(&self) -> usize {
        self.replicas.iter().filter(|r| r.is_up()).count()
    }

    /// The online invariant watchdog's state so far.
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// Violations the watchdog has surfaced so far, in detection order.
    pub fn watchdog_violations(&self) -> &[String] {
        self.watchdog.violations()
    }

    /// The quorum safety oracles, evaluated over the whole run:
    ///
    /// 1. **Election safety** — at most one leader per term (tracked
    ///    continuously as leadership changes hands).
    /// 2. **State-machine safety** — no replica ever applied the same
    ///    arrival sequence with two different messages.
    /// 3. **Log matching** — where two replicas both applied a
    ///    sequence, they applied the same message.
    /// 4. **Gap freedom** — the union of applied sequences per process
    ///    is contiguous from zero: leadership changes neither skip nor
    ///    double-assign an arrival number.
    pub fn quorum_invariant_failures(&self) -> Vec<String> {
        let mut out = self.election_violations.clone();
        for r in &self.replicas {
            out.extend(r.audit_violations().iter().cloned());
        }
        // Cross-replica agreement + union gap check.
        let mut union: BTreeMap<ProcessId, BTreeMap<u64, (u32, MessageId)>> = BTreeMap::new();
        for r in &self.replicas {
            for (&pid, seqs) in r.applied_log() {
                let u = union.entry(pid).or_default();
                for (&seq, &id) in seqs {
                    match u.get(&seq) {
                        Some(&(other, prev)) if prev != id => {
                            out.push(format!(
                                "log matching: pid {pid:?} seq {seq} is {prev:?} on replica \
                                 {other} but {id:?} on replica {}",
                                r.id()
                            ));
                        }
                        Some(_) => {}
                        None => {
                            u.insert(seq, (r.id(), id));
                        }
                    }
                }
            }
        }
        for (pid, seqs) in &union {
            let n = seqs.len() as u64;
            if n > 0 {
                let (&first, _) = seqs.iter().next().expect("non-empty");
                let (&last, _) = seqs.iter().next_back().expect("non-empty");
                if first != 0 || last + 1 != n {
                    out.push(format!(
                        "gap freedom: pid {pid:?} applied {n} seqs spanning [{first}, {last}]"
                    ));
                }
            }
        }
        out
    }

    /// Total committed arrival sequences across the group (union over
    /// replicas, deduplicated per pid × seq).
    pub fn sequenced_total(&self) -> u64 {
        let mut union: BTreeMap<ProcessId, BTreeMap<u64, MessageId>> = BTreeMap::new();
        for r in &self.replicas {
            for (&pid, seqs) in r.applied_log() {
                union.entry(pid).or_default().extend(seqs.iter());
            }
        }
        union.values().map(|s| s.len() as u64).sum()
    }

    /// Point-in-time consensus health of every replica.
    pub fn quorum_health(&self) -> Vec<QuorumHealth> {
        self.replicas
            .iter()
            .map(|r| {
                let raft = r.raft();
                QuorumHealth {
                    replica: r.id(),
                    live: r.is_up(),
                    leader: r.is_leader(),
                    term: raft.term(),
                    elections: raft.stats().elections_started,
                    commit_index: raft.commit_index(),
                    applied_index: raft.applied_index(),
                    replication_lag: if r.is_up() {
                        raft.worst_follower_lag()
                    } else {
                        0
                    },
                    compacted: raft.snap_index(),
                }
            })
            .collect()
    }

    /// Follower replication-lag distribution merged across replicas
    /// (samples are taken on the leader, once per consensus tick).
    pub fn replication_lag(&self) -> Option<LinearHistogram> {
        let mut merged: Option<LinearHistogram> = None;
        for r in &self.replicas {
            let h = r.replication_lag_hist();
            match &mut merged {
                Some(m) => m.merge(h),
                None => merged = Some(h.clone()),
            }
        }
        merged
    }

    /// Election-safety tracking: record who leads each term; two
    /// different leaders in one term is the canonical consensus bug.
    fn note_leadership(&mut self, idx: usize) {
        let r = &self.replicas[idx];
        if !r.is_leader() {
            return;
        }
        let term = r.raft().term();
        let me = r.id();
        match self.term_leaders.get(&term) {
            Some(&prev) if prev != me => {
                self.election_violations.push(format!(
                    "election safety: term {term} led by replica {prev} and replica {me}"
                ));
            }
            Some(_) => {}
            None => {
                self.term_leaders.insert(term, me);
            }
        }
    }

    /// One watchdog pass over the group's observable state: the union
    /// of applied arrival sequences per process (gap freedom with a
    /// virtual-time deadline), every live replica's commit index
    /// (monotonicity), and the leadership view (ack-gating stall:
    /// a live majority must elect a leader within the deadline).
    fn watchdog_scan(&mut self, now: SimTime) {
        let mut union: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for r in self.replicas.iter().filter(|r| r.is_up()) {
            for (&pid, seqs) in r.applied_log() {
                union
                    .entry(pid.as_u64())
                    .or_default()
                    .extend(seqs.keys().copied());
            }
        }
        for (pid, seqs) in &union {
            self.watchdog
                .scan_arrival_seqs(now, *pid, seqs.iter().copied());
        }
        let mut has_leader = false;
        for r in self.replicas.iter().filter(|r| r.is_up()) {
            self.watchdog
                .observe_commit_index(now, r.id(), r.raft().commit_index());
            has_leader |= r.is_leader();
        }
        let majority_live = self.live_replicas() * 2 > self.replicas.len();
        self.watchdog
            .observe_leadership(now, majority_live, has_leader);
        match (self.leaderless_since, has_leader) {
            (None, false) => self.leaderless_since = Some(now),
            (Some(since), true) => {
                self.leaderless.add_busy(since, now);
                self.leaderless_since = None;
            }
            _ => {}
        }
    }
}

impl RecorderTier for QuorumTier {
    type Station = QuorumReplica;

    fn stations(&self) -> &[QuorumReplica] {
        &self.replicas
    }

    fn stations_mut(&mut self) -> &mut [QuorumReplica] {
        &mut self.replicas
    }

    fn gate(c: &mut Quorum) {
        c.lan.set_recorder_router(Some(quorum_router()));
        refresh_required(c);
    }

    /// Restart arbitration is consensus-derived: only the group leader
    /// reboots processors. Everyone else stands down and lets its
    /// watchdog keep checking. Every live replica resets transport
    /// numbering; the leader alone announces NODE_RESTARTED and drives
    /// recovery (its responsibility filter reads the leader flag).
    fn restart_node(c: &mut Quorum, now: SimTime, idx: usize, node: NodeId, _incarnation: u32) {
        if !c.replicas[idx].is_leader() {
            c.replicas[idx]
                .recorder_node_mut()
                .decline_node_restart(node);
            return;
        }
        let incarnation = c.next_incarnation(node);
        c.restart_node(now, idx, node, incarnation, true);
    }

    fn applied(c: &mut Quorum, idx: usize) {
        c.note_leadership(idx);
    }

    fn after_event(c: &mut Quorum, now: SimTime) {
        if now >= c.next_watchdog_scan {
            c.watchdog_scan(now);
            c.next_watchdog_scan = now + WATCHDOG_PERIOD;
        }
    }

    fn metric_prefix(idx: usize) -> String {
        format!("quorum/{idx}")
    }

    fn tier_metrics(c: &Quorum, reg: &mut MetricsRegistry) {
        for (i, r) in c.replicas.iter().enumerate() {
            reg.histogram(
                &format!("quorum/{i}/consensus/commit_latency_us"),
                r.commit_latency_us(),
            );
            reg.linear_histogram(
                &format!("quorum/{i}/consensus/replication_lag"),
                r.replication_lag_hist(),
            );
        }
        for h in c.quorum_health() {
            h.into_registry(reg);
        }
        c.watchdog.into_registry(reg);
    }

    /// Read from the leader (or the first live replica when leaderless).
    fn recovery_lags(c: &Quorum, suppressed: &BTreeMap<u64, u64>) -> Vec<RecoveryLag> {
        let Some(idx) = c
            .leader()
            .or_else(|| c.replicas.iter().position(|r| r.is_up()))
        else {
            return Vec::new();
        };
        publishing_core::obs::recovery_lags(
            c.replicas[idx].recorder_node().recorder(),
            c.now(),
            suppressed,
        )
    }

    fn report(c: &Quorum, report: &mut ObsReport) {
        let quorum = c.quorum_health();
        let mut commit = LogHistogram::new();
        for r in &c.replicas {
            commit.merge(r.commit_latency_us());
        }
        let consensus = ConsensusStats {
            commits: commit.summary().count(),
            commit_p50_us: commit.quantile(0.5),
            commit_p99_us: commit.quantile(0.99),
            replication_lag_p95: c.replication_lag().map(|h| h.quantile(0.95)).unwrap_or(0.0),
            elections: quorum.iter().map(|h| h.elections).sum(),
        };
        let mut leaderless = c.leaderless.clone();
        if let Some(since) = c.leaderless_since {
            leaderless.add_busy(since, c.now());
        }
        if let (false, Some(utilization)) = (leaderless.is_empty(), &mut report.utilization) {
            utilization.resources.push(ResourceUsage::from_timeline(
                ResourceKind::Consensus,
                "consensus:leaderless".into(),
                0,
                0,
                &leaderless,
                report.horizon,
                0.0,
                0,
                consensus.elections,
                0,
            ));
        }
        report.watchdog = Some(WatchdogSummary {
            checks: c.watchdog.checks(),
            violations: c.watchdog.violations().to_vec(),
        });
        report.consensus = Some(consensus);
        report.quorum = quorum;
    }
}

/// The capture gate follows group membership: every live replica must
/// capture a frame for it to count as published (§6.3's "explicit act of
/// the recovery layer" — here, of the consensus layer).
fn refresh_required(c: &mut Quorum) {
    let live: Vec<usize> = (0..c.replicas.len())
        .filter(|&i| c.replicas[i].is_up())
        .collect();
    c.require_stations(live);
}

/// The running quorum world.
pub struct QuorumWorld(Quorum);

impl Deref for QuorumWorld {
    type Target = Quorum;

    fn deref(&self) -> &Quorum {
        &self.0
    }
}

impl DerefMut for QuorumWorld {
    fn deref_mut(&mut self) -> &mut Quorum {
        &mut self.0
    }
}

impl QuorumWorld {
    /// Builds a world with `nodes` processing nodes and a `replicas`-way
    /// recorder quorum on the default perfect bus.
    pub fn new(nodes: u32, replicas: usize, registry: ProgramRegistry) -> Self {
        QuorumWorld::with_config(
            QuorumConfig {
                nodes,
                replicas,
                ..QuorumConfig::default()
            },
            registry,
            Box::new(PerfectBus::new(LanConfig::default())),
        )
    }

    /// Builds a world from a full configuration on a caller-supplied
    /// medium. The medium must be fresh: stations are attached here.
    pub fn with_config(cfg: QuorumConfig, registry: ProgramRegistry, lan: Box<dyn Lan>) -> Self {
        assert!(cfg.replicas >= 1, "a quorum needs at least one replica");
        let peer_nodes: Vec<NodeId> = (0..cfg.replicas as u32)
            .map(|i| NodeId(cfg.nodes + i))
            .collect();
        let replicas = (0..cfg.replicas)
            .map(|i| {
                // Fork the seed per replica so election timeouts diverge.
                let mut rc = cfg.replica.clone();
                rc.node = RecorderConfig::default();
                QuorumReplica::new(
                    i as u32,
                    peer_nodes.clone(),
                    cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
                    rc,
                )
            })
            .collect();
        let tier = QuorumTier {
            replicas,
            term_leaders: BTreeMap::new(),
            election_violations: Vec::new(),
            watchdog: Watchdog::new(WatchdogConfig::default()),
            next_watchdog_scan: SimTime::ZERO,
            leaderless: Timeline::new(),
            leaderless_since: None,
        };
        QuorumWorld(Cluster::with_tier(
            cfg.nodes,
            registry,
            cfg.costs,
            cfg.transport,
            true,
            lan,
            tier,
        ))
    }

    /// Crashes one quorum replica. A minority crash leaves the group
    /// live: the capture gate shrinks to the survivors and, if the
    /// leader died, a new election begins within a few timeouts.
    pub fn crash_replica(&mut self, idx: usize) {
        if !self.replicas[idx].is_up() {
            return;
        }
        self.record_crash();
        self.replicas[idx].crash();
        // Commit index is volatile state: the restarted replica will
        // re-learn it from the leader, so the monotonicity floor resets.
        let id = self.replicas[idx].id();
        self.watchdog.reset_replica(id);
        let station = self.replicas[idx].station();
        self.lan.set_station_up(station, false);
        refresh_required(self);
    }

    /// Restarts a crashed replica: recorder rebuild from stable
    /// storage, rejoin as follower, catch up from the leader's log or a
    /// snapshot.
    pub fn restart_replica(&mut self, idx: usize) {
        if self.replicas[idx].is_up() {
            return;
        }
        let now = self.now();
        let station = self.replicas[idx].station();
        self.lan.set_station_up(station, true);
        let id = self.replicas[idx].id();
        self.watchdog.reset_replica(id);
        let actions = self.replicas[idx].restart(now);
        self.apply_tier(now, idx, actions);
        refresh_required(self);
    }
}

impl core::fmt::Debug for QuorumWorld {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("QuorumWorld")
            .field("nodes", &self.node_count())
            .field("replicas", &self.replicas.len())
            .field("leader", &self.leader())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_demos::ids::Channel;
    use publishing_demos::link::Link;
    use publishing_demos::programs::{self, PingClient};

    fn registry() -> ProgramRegistry {
        let mut reg = ProgramRegistry::new();
        programs::register_standard(&mut reg);
        reg.register("ping10", || Box::new(PingClient::new(10)));
        reg
    }

    fn invariants_clean(w: &QuorumWorld) {
        let fails = w.quorum_invariant_failures();
        assert!(fails.is_empty(), "quorum invariants violated: {fails:?}");
    }

    #[test]
    fn ping_completes_under_quorum_sequencing() {
        let mut w = QuorumWorld::new(2, 3, registry());
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_secs(5));
        let out = w.outputs_of(client);
        assert_eq!(out.len(), 11, "{out:?}");
        assert_eq!(out.last().unwrap(), "done");
        assert!(w.leader().is_some(), "a leader was elected");
        assert!(w.sequenced_total() > 0, "arrivals were quorum-sequenced");
        invariants_clean(&w);
    }

    #[test]
    fn replicas_apply_identical_arrival_orders() {
        let mut w = QuorumWorld::new(2, 3, registry());
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_secs(5));
        assert_eq!(w.outputs_of(client).len(), 11);
        // Every live replica converges on the same applied log.
        let logs: Vec<_> = w.replicas.iter().map(|r| r.applied_log()).collect();
        assert!(!logs[0].is_empty());
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
        invariants_clean(&w);
    }

    #[test]
    fn leader_crash_fails_over_without_gaps_or_dups() {
        let mut w = QuorumWorld::new(2, 3, registry());
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        // Let traffic start and a leader emerge, then kill it mid-run.
        w.run_until(SimTime::from_millis(300));
        let old = w.leader().expect("initial leader");
        w.crash_replica(old);
        w.run_until(SimTime::from_secs(12));
        let new = w.leader().expect("new leader elected");
        assert_ne!(new, old, "a surviving replica leads");
        let out = w.outputs_of(client);
        assert_eq!(out.len(), 11, "{out:?}");
        invariants_clean(&w);
    }

    #[test]
    fn crashed_replica_rejoins_and_catches_up() {
        let mut w = QuorumWorld::new(2, 3, registry());
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_millis(200));
        let victim = (w.leader().expect("leader") + 1) % 3;
        w.crash_replica(victim);
        w.run_until(SimTime::from_secs(4));
        w.restart_replica(victim);
        w.run_until(SimTime::from_secs(10));
        assert_eq!(w.outputs_of(client).len(), 11);
        // The rejoined follower's applied log converges with the rest.
        let leader = w.leader().expect("leader");
        assert_eq!(
            w.replicas[victim].applied_log(),
            w.replicas[leader].applied_log()
        );
        invariants_clean(&w);
    }

    #[test]
    fn node_crash_recovers_via_leader_replay() {
        let mut w = QuorumWorld::new(2, 3, registry());
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_millis(120));
        w.crash_node(1);
        w.run_until(SimTime::from_secs(30));
        let out = w.outputs_of(client);
        assert_eq!(out.len(), 11, "{out:?}");
        assert!(w.recoveries_completed() >= 1, "leader drove recovery");
        invariants_clean(&w);
    }

    #[test]
    fn watchdog_runs_clean_and_report_has_consensus_sections() {
        let mut w = QuorumWorld::new(2, 3, registry());
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let _client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_secs(5));
        assert!(w.watchdog().checks() > 0, "watchdog scanned");
        assert!(w.watchdog().is_clean(), "{:?}", w.watchdog_violations());
        let report = w.obs_report();
        assert_eq!(report.quorum.len(), 3);
        let c = report.consensus.as_ref().unwrap();
        assert!(c.commits > 0, "leader measured commit latencies");
        assert!(c.commit_p50_us > 0);
        assert!(report.watchdog.as_ref().unwrap().checks > 0);
        let json = report.render_json();
        assert!(json.contains("\"quorum\":[{\"replica\":0"));
        assert!(json.contains("\"consensus\":{\"commits\":"));
        assert!(json.contains("\"watchdog\":{\"checks\":"));
        assert!(json.contains("quorum/0/consensus/commit_latency_us"));
    }

    #[test]
    fn failover_records_election_spans() {
        use publishing_obs::span::Stage;
        let mut w = QuorumWorld::new(2, 3, registry());
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_millis(300));
        let old = w.leader().expect("initial leader");
        w.crash_replica(old);
        w.run_until(SimTime::from_secs(12));
        assert_eq!(w.outputs_of(client).len(), 11);
        let elects: usize = w
            .span_logs()
            .iter()
            .map(|l| l.events().filter(|e| e.stage == Stage::Elect).count())
            .sum();
        assert!(
            elects >= 2,
            "both the initial election and the failover left tenure spans, got {elects}"
        );
        // The failover run still satisfies the online watchdog.
        assert!(w.watchdog().is_clean(), "{:?}", w.watchdog_violations());
    }

    #[test]
    fn quorum_health_probe_reflects_leadership() {
        let mut w = QuorumWorld::new(1, 3, registry());
        w.run_until(SimTime::from_secs(1));
        let health = w.quorum_health();
        assert_eq!(health.len(), 3);
        assert_eq!(health.iter().filter(|h| h.leader).count(), 1);
        let term = health.iter().find(|h| h.leader).unwrap().term;
        assert!(term >= 1);
        let reg = w.collect_metrics();
        assert!(reg.gauge_value("quorum/0/health/live").is_some());
    }
}
