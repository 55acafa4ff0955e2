//! Chaos scenarios: the workload under test and the target worlds.
//!
//! A [`Scenario`] names a topology and a [`WorkloadSource`] supplies the
//! load: a program registry plus a spawn plan. The default source is
//! independent ping/echo FIFO pairs — every client's deduplicated
//! output is pinned regardless of loss-induced interleaving — and the
//! workload engine plugs in phase-compiled publish drivers through the
//! same hook. The [`ChaosWorld`] trait is the narrow waist the driver
//! and oracle see: run-to-fault, inject, heal, and the invariant
//! probes. One generic target implements it for every tier; a tier only
//! says, through [`TierWorld`], how its stations crash and restart and
//! what convergence means for it.

use crate::schedule::Fault;
use publishing_core::cluster::{Cluster, RecorderTier, TierStation};
use publishing_core::world::{SingleTier, World, WorldBuilder};
use publishing_demos::costs::CostModel;
use publishing_demos::ids::{Channel, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_demos::transport::TransportConfig;
use publishing_net::ethernet::Ethernet;
use publishing_net::lan::{Lan, LanConfig};
use publishing_obs::registry::MetricsRegistry;
use publishing_obs::span::check_replay_prefix;
use publishing_quorum::{QuorumConfig, QuorumTier, QuorumWorld};
use publishing_shard::{ShardTier, ShardedWorld};
use publishing_sim::event::FaultClock;
use publishing_sim::fault::FaultPlan;
use publishing_sim::time::SimTime;
use publishing_stable::disk::DiskFaults;
use std::collections::BTreeMap;

/// Which recorder tier the scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One recorder node ([`World`]).
    Single,
    /// A sharded recorder tier ([`ShardedWorld`]).
    Sharded,
    /// A replicated recorder quorum ([`QuorumWorld`]).
    Quorum,
}

impl Topology {
    /// Short name (report keys, table rows).
    pub fn name(self) -> &'static str {
        match self {
            Topology::Single => "single",
            Topology::Sharded => "sharded",
            Topology::Quorum => "quorum",
        }
    }

    /// The `(shards, replicas)` the fault generator may address on this
    /// tier: [`SHARDS`] shards on the sharded tier, [`REPLICAS`]
    /// replicas on the quorum tier, neither on the single recorder.
    pub fn width(self) -> (u32, u32) {
        match self {
            Topology::Single => (0, 0),
            Topology::Sharded => (SHARDS, 0),
            Topology::Quorum => (0, REPLICAS),
        }
    }
}

/// Which broadcast medium the target world runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Medium {
    /// The idealized [`publishing_net::bus::PerfectBus`] (default).
    #[default]
    Perfect,
    /// The paper's 1983 experimental ethernet: `LanConfig::default()`'s
    /// 10 Mb/s + 1.6 ms interpacket gap, with contention.
    Ethernet,
}

/// A deterministic workload: by default `pairs` ping/echo FIFO pairs
/// exchanging `pings` round-trips, with think times derived from the
/// workload seed. [`Scenario::build_with`] accepts any other
/// [`WorkloadSource`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Target topology.
    pub topology: Topology,
    /// Seed feeding workload timing (ping think time).
    pub workload_seed: u64,
    /// Ping/echo pairs.
    pub pairs: u32,
    /// Round-trips per pair.
    pub pings: u64,
    /// Broadcast medium under the recorder tier.
    pub medium: Medium,
    /// Physical-constant knobs (costs, wire speed, transport window)
    /// the what-if profiler turns; identity by default.
    pub tuning: Tuning,
}

/// The scenario's physical constants — the knobs the what-if profiler
/// turns to apply a virtual speedup without touching protocol logic.
#[derive(Debug, Clone)]
pub struct Tuning {
    /// Node CPU cost model (zero by default, as everywhere else).
    pub costs: CostModel,
    /// Medium timing/bandwidth configuration.
    pub lan: LanConfig,
    /// Guaranteed-transport parameters (window width, retry pacing).
    pub transport: TransportConfig,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            costs: CostModel::zero(),
            lan: LanConfig::default(),
            transport: TransportConfig::default(),
        }
    }
}

/// Processing nodes in every scenario (the recorder tier sits above
/// them).
pub const NODES: u32 = 3;
/// Shards in the sharded scenario.
pub const SHARDS: u32 = 3;
/// Quorum replicas in the quorum scenario.
pub const REPLICAS: u32 = 3;

impl Scenario {
    /// A small default scenario for `topology`.
    pub fn new(topology: Topology, workload_seed: u64) -> Self {
        Scenario {
            topology,
            workload_seed,
            pairs: 2,
            pings: 8,
            medium: Medium::Perfect,
            tuning: Tuning::default(),
        }
    }

    /// The scenario on the paper's 1983 ethernet instead of the perfect
    /// bus.
    pub fn on_ethernet(mut self) -> Self {
        self.medium = Medium::Ethernet;
        self
    }

    /// The scenario with explicit physical-constant knobs.
    pub fn tuned(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// A fresh instance of the configured medium.
    fn medium_box(&self) -> Box<dyn Lan> {
        match self.medium {
            Medium::Perfect => Box::new(publishing_net::bus::PerfectBus::new(
                self.tuning.lan.clone(),
            )),
            Medium::Ethernet => Box::new(Ethernet::acknowledging(self.tuning.lan.clone())),
        }
    }

    /// The default ping/echo workload source for this scenario.
    pub fn default_source(&self) -> PingEcho {
        PingEcho {
            topology: self.topology,
            pairs: self.pairs,
            pings: self.pings,
            seed: self.workload_seed,
        }
    }

    /// Builds a fresh target world with the default ping/echo workload
    /// spawned.
    pub fn build(&self) -> Box<dyn ChaosWorld> {
        self.build_with(&self.default_source())
    }

    /// Builds a fresh target world with `source`'s workload spawned —
    /// the pluggable load-driver hook: the workload engine compiles a
    /// spec into a [`WorkloadSource`] and every topology runs it through
    /// the same spawn path the default ping/echo load uses.
    ///
    /// # Panics
    ///
    /// Panics if the plan names an unregistered program or links to a
    /// spawn at or after itself.
    pub fn build_with(&self, source: &dyn WorkloadSource) -> Box<dyn ChaosWorld> {
        let plan = source.plan();
        match self.topology {
            Topology::Single => target(
                WorldBuilder::new(NODES)
                    .registry(source.registry())
                    .medium(self.medium_box())
                    .costs(self.tuning.costs.clone())
                    .transport(self.tuning.transport.clone())
                    .build(),
                &plan,
            ),
            Topology::Sharded => target(
                ShardedWorld::with_tuning(
                    NODES,
                    SHARDS as usize,
                    source.registry(),
                    self.medium_box(),
                    self.tuning.costs.clone(),
                    self.tuning.transport.clone(),
                ),
                &plan,
            ),
            Topology::Quorum => target(
                QuorumWorld::with_config(
                    QuorumConfig {
                        nodes: NODES,
                        replicas: REPLICAS as usize,
                        seed: self.workload_seed,
                        costs: self.tuning.costs.clone(),
                        transport: self.tuning.transport.clone(),
                        ..QuorumConfig::default()
                    },
                    source.registry(),
                    self.medium_box(),
                ),
                &plan,
            ),
        }
    }
}

/// Spawns `plan` on `w` and wraps it as a chaos target.
fn target<W: TierWorld + 'static>(mut w: W, plan: &[PlanSpawn]) -> Box<dyn ChaosWorld> {
    let (procs, clients) = spawn_plan(plan, |node, prog, links| {
        w.cluster_mut().spawn(node, prog, links).expect("spawn")
    });
    Box::new(Target {
        w,
        procs,
        clients,
        injected: BTreeMap::new(),
    })
}

/// A link in a spawn plan, pointing at an earlier spawn by plan index.
/// Resolved to the spawned [`ProcessId`] at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanLink {
    /// Index into the plan of the spawn this link targets.
    pub target: usize,
    /// Channel the link sends on.
    pub channel: Channel,
    /// Link code the receiver sees.
    pub code: u32,
}

/// One process in a workload's spawn plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSpawn {
    /// Processing node (taken modulo [`NODES`]).
    pub node: u32,
    /// Registered program name.
    pub program: String,
    /// Initial links, each to an earlier spawn in the plan.
    pub links: Vec<PlanLink>,
    /// Whether this spawn's deduplicated output feeds the baseline
    /// oracle (its last line must be `"done"` for the chaos engine).
    pub client: bool,
}

/// A pluggable source of scenario load: the programs to register and
/// the processes to spawn. Implementations must be deterministic —
/// the chaos engine builds the same source several times (baseline
/// twice, then every faulted run) and demands identical behavior.
pub trait WorkloadSource {
    /// The program registry the workload needs (including everything
    /// recovery must re-instantiate by name).
    fn registry(&self) -> ProgramRegistry;
    /// The spawn plan, in spawn order.
    fn plan(&self) -> Vec<PlanSpawn>;
}

/// Spawns a plan through a world's spawn function, resolving plan links
/// to pids. Returns `(procs, clients)`.
fn spawn_plan(
    plan: &[PlanSpawn],
    mut spawn: impl FnMut(u32, &str, Vec<Link>) -> ProcessId,
) -> (Vec<ProcessId>, Vec<ProcessId>) {
    let mut pids: Vec<ProcessId> = Vec::with_capacity(plan.len());
    let mut clients = Vec::new();
    for (i, s) in plan.iter().enumerate() {
        let links: Vec<Link> = s
            .links
            .iter()
            .map(|l| {
                assert!(l.target < i, "plan link must point at an earlier spawn");
                Link::to(pids[l.target], l.channel, l.code)
            })
            .collect();
        let pid = spawn(s.node % NODES, &s.program, links);
        pids.push(pid);
        if s.client {
            clients.push(pid);
        }
    }
    (pids, clients)
}

/// The default workload: independent ping/echo FIFO pairs. Placement
/// mirrors the historical per-topology layout so existing seeds and
/// shrunk reproducer literals keep their meaning.
#[derive(Debug, Clone)]
pub struct PingEcho {
    /// Target topology (placement differs per tier).
    pub topology: Topology,
    /// Ping/echo pairs.
    pub pairs: u32,
    /// Round-trips per pair.
    pub pings: u64,
    /// Seed feeding ping think time.
    pub seed: u64,
}

impl WorkloadSource for PingEcho {
    fn registry(&self) -> ProgramRegistry {
        let mut reg = ProgramRegistry::new();
        programs::register_standard(&mut reg);
        let pings = self.pings;
        let think_ns = 1_500_000 + (self.seed % 5) * 250_000;
        reg.register("chaos-pinger", move || {
            let mut p = PingClient::new(pings);
            p.think_ns = think_ns;
            Box::new(p)
        });
        reg
    }

    fn plan(&self) -> Vec<PlanSpawn> {
        let mut plan = Vec::new();
        for i in 0..self.pairs {
            let (server_node, client_node) = match self.topology {
                Topology::Single => (1 + i % 2, 0),
                Topology::Sharded | Topology::Quorum => (2, i % 2),
            };
            plan.push(PlanSpawn {
                node: server_node,
                program: "echo".into(),
                links: vec![],
                client: false,
            });
            plan.push(PlanSpawn {
                node: client_node,
                program: "chaos-pinger".into(),
                links: vec![PlanLink {
                    target: plan.len() - 1,
                    channel: Channel::DEFAULT,
                    code: 7,
                }],
                client: true,
            });
        }
        plan
    }
}

/// The narrow interface the chaos driver and oracle need from a world.
pub trait ChaosWorld {
    /// Installs the schedule's fault clock.
    fn set_fault_clock(&mut self, clock: FaultClock);
    /// Runs until `deadline` or the next fault instant; `Some(t)` pauses
    /// for injection at `t`.
    fn run_until_or_fault(&mut self, deadline: SimTime) -> Option<SimTime>;
    /// Injects one fault now. Faults that do not apply to the topology
    /// or the current state (e.g. restarting a recorder that is up) are
    /// no-ops, so shrunk schedules stay runnable.
    fn inject(&mut self, fault: &Fault);
    /// Reapplies the medium fault plan (burst boundaries).
    fn set_medium_faults(&mut self, plan: FaultPlan);
    /// Reapplies the disk fault regime (window boundaries).
    fn set_disk_faults(&mut self, faults: DiskFaults);
    /// End-of-schedule heal: restart everything still down and clear all
    /// injected fault regimes, so convergence is demanded of recovery,
    /// not blocked on a fault the shrinker happened to keep.
    fn heal(&mut self);
    /// Deduplicated-output fingerprint (must match the fault-free
    /// baseline).
    fn output_fingerprint(&self) -> u64;
    /// Span-log fingerprint (run-level determinism oracle).
    fn obs_fingerprint(&self) -> u64;
    /// Each client's deduplicated output lines.
    fn client_outputs(&self) -> Vec<(ProcessId, Vec<String>)>;
    /// Convergence violations: recoveries still in flight, replay lag,
    /// downed or catching-up recorders.
    fn convergence_failures(&self) -> Vec<String>;
    /// Replay-prefix violations across every kernel × subject pid.
    fn replay_prefix_failures(&self) -> Vec<String>;
    /// Suppression-coverage violations: suppressions for unknown
    /// senders, or suppressions in a run that performed no recovery.
    fn suppression_failures(&self) -> Vec<String>;
    /// Completed recoveries across the tier.
    fn recoveries_completed(&self) -> u64;
    /// The target world's metrics snapshot with the chaos counters
    /// merged in: `chaos/injected/<kind>` per injected fault kind, plus
    /// the fault-consumption counters the injections drove
    /// (`chaos/disk/io_retries`, `chaos/disk/transient_errors`,
    /// `chaos/disk/torn_writes`).
    fn metrics(&self) -> MetricsRegistry;
    /// The target world's full observability report, with the chaos
    /// counters of [`ChaosWorld::metrics`] merged into its registry.
    fn obs_report(&self) -> publishing_obs::report::ObsReport;
    /// Every component's span events, one list per log, in the world's
    /// deterministic log order — the input to causal-graph construction
    /// and divergence diffing.
    fn span_events(&self) -> Vec<Vec<publishing_obs::span::SpanEvent>>;
    /// The happens-before DAG over the current span logs.
    fn causal_graph(&self) -> publishing_obs::causal::CausalGraph {
        publishing_obs::causal::CausalGraph::from_event_lists(&self.span_events())
    }
    /// The index of the current quorum leader, for targets with a
    /// consensus tier (`None` elsewhere, or while leaderless).
    fn quorum_leader(&self) -> Option<usize> {
        None
    }
}

/// What the chaos engine needs from one recorder tier beyond the shared
/// [`Cluster`]: how its stations crash and restart, the faults only it
/// understands, and its convergence and safety probes.
pub trait TierWorld {
    /// The recording tier.
    type Tier: RecorderTier;
    /// The shared cluster.
    fn cluster(&self) -> &Cluster<Self::Tier>;
    /// Mutable access to the shared cluster.
    fn cluster_mut(&mut self) -> &mut Cluster<Self::Tier>;
    /// Crashes live station `idx`, unless the tier cannot spare it.
    fn crash_station(&mut self, idx: usize);
    /// Restarts crashed station `idx`.
    fn restart_station(&mut self, idx: usize);
    /// The station a fault crashes (`true`) or restarts (`false`),
    /// before reduction modulo the tier width; `None` for other faults.
    fn station_fault(&self, fault: &Fault) -> Option<(u32, bool)> {
        recorder_fault(fault)
    }
    /// Injects a fault that addresses no station; the default ignores it.
    fn inject_other(&mut self, _fault: &Fault) {}
    /// Stations still down, catching up or lagging.
    fn station_failures(&self) -> Vec<String>;
    /// Safety-oracle violations, reported after convergence.
    fn safety_failures(&self) -> Vec<String> {
        Vec::new()
    }
    /// The index of the current consensus leader (`None` for tiers
    /// without consensus, or while leaderless).
    fn quorum_leader(&self) -> Option<usize> {
        None
    }
}

/// The station a recorder fault addresses.
fn recorder_fault(fault: &Fault) -> Option<(u32, bool)> {
    match *fault {
        Fault::CrashRecorder { shard, .. } => Some((shard, true)),
        Fault::RestartRecorder { shard, .. } => Some((shard, false)),
        _ => None,
    }
}

impl TierWorld for World {
    type Tier = SingleTier;

    fn cluster(&self) -> &World {
        self
    }

    fn cluster_mut(&mut self) -> &mut World {
        self
    }

    fn crash_station(&mut self, _idx: usize) {
        self.crash_recorder();
    }

    fn restart_station(&mut self, _idx: usize) {
        self.restart_recorder();
    }

    fn station_failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.recorder.is_up() {
            out.push("recorder still down".into());
        }
        let lag =
            publishing_core::obs::replay_lag(self.recorder.recorder(), self.recorder.manager());
        if lag != 0 {
            out.push(format!("replay lag {lag} has not drained"));
        }
        out
    }
}

impl TierWorld for ShardedWorld {
    type Tier = ShardTier;

    fn cluster(&self) -> &Cluster<ShardTier> {
        self
    }

    fn cluster_mut(&mut self) -> &mut Cluster<ShardTier> {
        self
    }

    /// Keeps at least one live shard: with every shard down the tier
    /// cannot ack anything and the run degenerates.
    fn crash_station(&mut self, idx: usize) {
        if self.shards.iter().filter(|s| s.is_up()).count() > 1 {
            self.crash_shard(idx);
        }
    }

    fn restart_station(&mut self, idx: usize) {
        self.restart_shard(idx);
    }

    fn inject_other(&mut self, fault: &Fault) {
        if let Fault::AddShard { .. } = fault {
            self.add_shard();
        }
    }

    fn station_failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for h in self.shard_health() {
            if !h.live {
                out.push(format!("shard {} still down", h.shard));
            }
            if h.catching_up {
                out.push(format!("shard {} still catching up", h.shard));
            }
            if h.recoveries_in_flight != 0 {
                out.push(format!(
                    "shard {}: {} recoveries still in flight",
                    h.shard, h.recoveries_in_flight
                ));
            }
            if h.replay_lag != 0 {
                out.push(format!(
                    "shard {}: replay lag {} has not drained",
                    h.shard, h.replay_lag
                ));
            }
        }
        out
    }
}

impl TierWorld for QuorumWorld {
    type Tier = QuorumTier;

    fn cluster(&self) -> &Cluster<QuorumTier> {
        self
    }

    fn cluster_mut(&mut self) -> &mut Cluster<QuorumTier> {
        self
    }

    /// Crashes only if a strict majority of the group stays alive. Chaos
    /// that silences the quorum entirely proves nothing — consensus only
    /// promises progress with a majority, so the injector honors that
    /// precondition and the oracle then gets to demand full convergence.
    fn crash_station(&mut self, idx: usize) {
        let live = self.live_replicas();
        if live >= 1 && (live - 1) * 2 > self.replica_count() {
            self.crash_replica(idx);
        }
    }

    fn restart_station(&mut self, idx: usize) {
        self.restart_replica(idx);
    }

    /// Replica faults address the group; so do single/sharded recorder
    /// faults — a recorder crash is a replica crash.
    fn station_fault(&self, fault: &Fault) -> Option<(u32, bool)> {
        match *fault {
            Fault::CrashReplica { idx, .. } => Some((idx, true)),
            Fault::RestartReplica { idx, .. } => Some((idx, false)),
            _ => recorder_fault(fault),
        }
    }

    fn station_failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        let health = self.quorum_health();
        for h in &health {
            if !h.live {
                out.push(format!("replica {} still down", h.replica));
            }
        }
        if self.leader().is_none() {
            out.push("quorum is leaderless".into());
        }
        for h in &health {
            if h.leader && h.replication_lag != 0 {
                out.push(format!(
                    "leader {}: replication lag {} has not drained",
                    h.replica, h.replication_lag
                ));
            }
        }
        out
    }

    /// The consensus safety oracles (election safety, state-machine
    /// safety, log matching, gap/duplicate freedom of the arrival
    /// sequence), plus everything the online watchdog flagged while the
    /// run was still in flight (arrival gaps or leaderless stalls that
    /// outlived their virtual-time deadlines, commit regressions).
    fn safety_failures(&self) -> Vec<String> {
        let mut out = self.quorum_invariant_failures();
        out.extend(self.watchdog_violations().iter().cloned());
        out
    }

    fn quorum_leader(&self) -> Option<usize> {
        self.leader()
    }
}

/// [`ChaosWorld`] over any tier's world.
struct Target<W> {
    w: W,
    procs: Vec<ProcessId>,
    clients: Vec<ProcessId>,
    injected: BTreeMap<&'static str, u64>,
}

impl<W: TierWorld> ChaosWorld for Target<W> {
    fn set_fault_clock(&mut self, clock: FaultClock) {
        self.w.cluster_mut().set_fault_clock(clock);
    }

    fn run_until_or_fault(&mut self, deadline: SimTime) -> Option<SimTime> {
        self.w.cluster_mut().run_until_or_fault(deadline)
    }

    fn inject(&mut self, fault: &Fault) {
        *self.injected.entry(fault.kind()).or_insert(0) += 1;
        match fault {
            Fault::CrashProcess { victim, .. } => {
                let pid = self.procs[*victim as usize % self.procs.len()];
                self.w.cluster_mut().crash_process(pid, "chaos");
            }
            Fault::CrashNode { node, .. } => self.w.cluster_mut().crash_node(node % NODES),
            // Faults that do not apply to the current state (restarting a
            // station that is up) are no-ops; windowed faults are driven
            // through the set_*_faults hooks.
            _ => match self.w.station_fault(fault) {
                Some((station, crash)) => {
                    let idx = station as usize % self.w.cluster().stations().len();
                    let up = self.w.cluster().stations()[idx].is_up();
                    if crash && up {
                        self.w.crash_station(idx);
                    } else if !crash && !up {
                        self.w.restart_station(idx);
                    }
                }
                None => self.w.inject_other(fault),
            },
        }
    }

    fn set_medium_faults(&mut self, plan: FaultPlan) {
        self.w.cluster_mut().lan.set_faults(plan);
    }

    fn set_disk_faults(&mut self, faults: DiskFaults) {
        for s in self.w.cluster_mut().stations_mut() {
            s.recorder_node_mut().set_disk_faults(faults.clone());
        }
    }

    fn heal(&mut self) {
        for i in 0..self.w.cluster().stations().len() {
            if !self.w.cluster().stations()[i].is_up() {
                self.w.restart_station(i);
            }
        }
        self.set_medium_faults(FaultPlan::new());
        self.set_disk_faults(DiskFaults::default());
    }

    fn output_fingerprint(&self) -> u64 {
        self.w.cluster().output_fingerprint()
    }

    fn obs_fingerprint(&self) -> u64 {
        self.w.cluster().obs_fingerprint()
    }

    fn client_outputs(&self) -> Vec<(ProcessId, Vec<String>)> {
        self.clients
            .iter()
            .map(|&c| (c, self.w.cluster().outputs_of(c)))
            .collect()
    }

    fn convergence_failures(&self) -> Vec<String> {
        let mut out = self.w.station_failures();
        for l in self.w.cluster().recovery_lags() {
            if l.recovering {
                out.push(format!("pid {} still marked recovering", l.subject));
            }
        }
        out.extend(self.w.safety_failures());
        out
    }

    fn replay_prefix_failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (node, k) in &self.w.cluster().kernels {
            for pid in &self.procs {
                if let Err(e) = check_replay_prefix(k.spans(), pid.as_u64()) {
                    out.push(format!("node {node}, subject {pid}: {e}"));
                }
            }
        }
        out
    }

    fn suppression_failures(&self) -> Vec<String> {
        suppression_check(
            self.w.cluster().kernels.values().map(|k| k.spans()),
            &self.procs,
            self.recoveries_completed(),
        )
    }

    fn recoveries_completed(&self) -> u64 {
        self.w.cluster().recoveries_completed()
    }

    /// Files the per-kind injection counters and the store/disk fault
    /// consumption counters.
    fn metrics(&self) -> MetricsRegistry {
        let c = self.w.cluster();
        let mut reg = c.collect_metrics();
        for (kind, n) in &self.injected {
            reg.counter(format!("chaos/injected/{kind}"), *n);
        }
        let (mut retries, mut transient, mut torn) = (0u64, 0u64, 0u64);
        for rec in c.recorders() {
            let store = rec.store();
            retries += store.stats().io_retries.get();
            for i in 0..store.n_disks() {
                let d = store.disk_stats(i);
                transient += d.transient_errors.get();
                torn += d.torn_writes.get();
            }
        }
        reg.counter("chaos/disk/io_retries", retries);
        reg.counter("chaos/disk/transient_errors", transient);
        reg.counter("chaos/disk/torn_writes", torn);
        reg
    }

    fn obs_report(&self) -> publishing_obs::report::ObsReport {
        let mut report = self.w.cluster().obs_report();
        report.metrics = self.metrics();
        report
    }

    fn span_events(&self) -> Vec<Vec<publishing_obs::span::SpanEvent>> {
        self.w
            .cluster()
            .span_logs()
            .iter()
            .map(|l| l.events().collect())
            .collect()
    }

    fn quorum_leader(&self) -> Option<usize> {
        self.w.quorum_leader()
    }
}

/// Suppressions exist only to cut off a recovering process's re-sends
/// (§4.7), so (a) every suppressed sender must be a process the
/// scenario spawned, and (b) a run that completed no recovery must show
/// no suppressions at all.
fn suppression_check<'a>(
    logs: impl IntoIterator<Item = &'a publishing_obs::span::SpanLog>,
    procs: &[ProcessId],
    recoveries: u64,
) -> Vec<String> {
    let by_sender = publishing_core::obs::suppressed_by_sender(logs);
    let mut out = Vec::new();
    for (&sender, &n) in &by_sender {
        if !procs.iter().any(|p| p.as_u64() == sender) {
            out.push(format!("{n} suppressions for unknown sender {sender}"));
        }
    }
    if recoveries == 0 && !by_sender.is_empty() {
        out.push(format!(
            "{} suppressions but no recovery ever completed",
            by_sender.values().sum::<u64>()
        ));
    }
    out
}
