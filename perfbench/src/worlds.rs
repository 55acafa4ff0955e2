//! The three recorder tiers behind one handle, built the way the chaos
//! scenarios build them but on a caller-supplied medium and registry, so
//! the traced run can slip its decorators in.

use publishing_chaos::scenario::{PlanSpawn, NODES, REPLICAS, SHARDS};
use publishing_core::world::{World, WorldBuilder};
use publishing_demos::ids::ProcessId;
use publishing_demos::link::Link;
use publishing_demos::registry::ProgramRegistry;
use publishing_net::bus::PerfectBus;
use publishing_net::ethernet::Ethernet;
use publishing_net::lan::{Lan, LanConfig};
use publishing_obs::probe::SchedulerProbe;
use publishing_obs::report::ObsReport;
use publishing_quorum::{QuorumConfig, QuorumWorld};
use publishing_shard::ShardedWorld;
use publishing_sim::fault::FaultPlan;
use publishing_sim::time::SimTime;

/// A recorder tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One recorder node.
    Single,
    /// A sharded recorder tier.
    Sharded,
    /// A replicated recorder quorum.
    Quorum,
}

impl Tier {
    /// All tiers, in report order.
    pub const ALL: [Tier; 3] = [Tier::Single, Tier::Sharded, Tier::Quorum];

    /// Short name used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Single => "single",
            Tier::Sharded => "sharded",
            Tier::Quorum => "quorum",
        }
    }

    /// Prefix of the tier's self-time metrics.
    pub fn layer(self) -> &'static str {
        match self {
            Tier::Single => "single",
            Tier::Sharded => "shard",
            Tier::Quorum => "quorum",
        }
    }

    /// The chaos engine's name for the tier.
    pub fn topology(self) -> publishing_chaos::Topology {
        match self {
            Tier::Single => publishing_chaos::Topology::Single,
            Tier::Sharded => publishing_chaos::Topology::Sharded,
            Tier::Quorum => publishing_chaos::Topology::Quorum,
        }
    }
}

/// Which broadcast medium a world runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediumKind {
    /// The idealized bus.
    Perfect,
    /// The acknowledging ethernet with CSMA/CD contention.
    Ethernet,
}

impl MediumKind {
    /// A fresh medium with the default 1983 constants.
    pub fn build(self) -> Box<dyn Lan> {
        match self {
            MediumKind::Perfect => Box::new(PerfectBus::new(LanConfig::default())),
            MediumKind::Ethernet => Box::new(Ethernet::acknowledging(LanConfig::default())),
        }
    }
}

/// The shape of one world: tier, size, and consensus seed.
#[derive(Debug, Clone, Copy)]
pub struct WorldShape {
    /// Recorder tier.
    pub tier: Tier,
    /// Processing nodes.
    pub nodes: u32,
    /// Shards (sharded tier) or replicas (quorum tier); unused for single.
    pub width: usize,
    /// Election-timeout seed (quorum tier only).
    pub quorum_seed: u64,
}

impl WorldShape {
    /// The shape the chaos scenarios (and so the capacity search) use.
    pub fn chaos(tier: Tier, workload_seed: u64) -> WorldShape {
        WorldShape {
            tier,
            nodes: NODES,
            width: match tier {
                Tier::Single => 1,
                Tier::Sharded => SHARDS as usize,
                Tier::Quorum => REPLICAS as usize,
            },
            quorum_seed: workload_seed,
        }
    }
}

/// One world of any tier.
// One value per world, built once and never copied: the size spread
// between variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum AnyWorld {
    /// Single recorder.
    Single(World),
    /// Sharded recorder tier.
    Sharded(ShardedWorld),
    /// Recorder quorum.
    Quorum(QuorumWorld),
}

macro_rules! each {
    ($self:expr, $w:ident => $body:expr) => {
        match $self {
            AnyWorld::Single($w) => $body,
            AnyWorld::Sharded($w) => $body,
            AnyWorld::Quorum($w) => $body,
        }
    };
}

impl AnyWorld {
    /// Builds an empty world of `shape` on `lan` with `registry`.
    pub fn build(shape: WorldShape, registry: ProgramRegistry, lan: Box<dyn Lan>) -> AnyWorld {
        match shape.tier {
            Tier::Single => AnyWorld::Single(
                WorldBuilder::new(shape.nodes)
                    .registry(registry)
                    .medium(lan)
                    .build(),
            ),
            Tier::Sharded => AnyWorld::Sharded(ShardedWorld::with_medium(
                shape.nodes,
                shape.width,
                registry,
                lan,
            )),
            Tier::Quorum => AnyWorld::Quorum(QuorumWorld::with_config(
                QuorumConfig {
                    nodes: shape.nodes,
                    replicas: shape.width,
                    seed: shape.quorum_seed,
                    ..QuorumConfig::default()
                },
                registry,
                lan,
            )),
        }
    }

    /// Spawns a plan, resolving plan links to pids as the chaos scenarios
    /// do; returns the pids of the plan's clients.
    pub fn spawn_plan(&mut self, plan: &[PlanSpawn]) -> Vec<ProcessId> {
        let mut pids: Vec<ProcessId> = Vec::with_capacity(plan.len());
        let mut clients = Vec::new();
        for s in plan {
            let links = s
                .links
                .iter()
                .map(|l| Link::to(pids[l.target], l.channel, l.code))
                .collect();
            let pid = self.spawn(s.node % NODES, &s.program, links);
            pids.push(pid);
            if s.client {
                clients.push(pid);
            }
        }
        clients
    }

    /// Spawns one process.
    pub fn spawn(&mut self, node: u32, program: &str, links: Vec<Link>) -> ProcessId {
        each!(self, w => w.spawn(node, program, links)).expect("program registered")
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        each!(self, w => w.now())
    }

    /// Runs every event due at or before `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        each!(self, w => w.run_until(deadline))
    }

    /// Clears the medium's fault plan (the chaos driver's heal).
    pub fn heal_medium(&mut self) {
        each!(self, w => w.lan.set_faults(FaultPlan::new()))
    }

    /// Deduplicated output lines of one process.
    pub fn outputs_of(&self, pid: ProcessId) -> Vec<String> {
        each!(self, w => w.outputs_of(pid))
    }

    /// Fingerprint of every process's deduplicated output.
    pub fn output_fingerprint(&self) -> u64 {
        each!(self, w => w.output_fingerprint())
    }

    /// Fingerprint of every span log.
    pub fn obs_fingerprint(&self) -> u64 {
        each!(self, w => w.obs_fingerprint())
    }

    /// Event-queue statistics.
    pub fn scheduler_probe(&self) -> SchedulerProbe {
        each!(self, w => w.scheduler_probe())
    }

    /// The full observability report.
    pub fn obs_report(&self) -> ObsReport {
        each!(self, w => w.obs_report())
    }

    /// Stops retaining span events (fingerprints still hash at record
    /// time). The single-recorder world has no such switch.
    pub fn set_span_capacity(&mut self, capacity: usize) {
        match self {
            AnyWorld::Single(_) => {}
            AnyWorld::Sharded(w) => w.set_span_capacity(capacity),
            AnyWorld::Quorum(w) => w.set_span_capacity(capacity),
        }
    }

    /// Quorum-sequenced arrivals, elections started, and invariant
    /// failures; zeros for tiers without consensus.
    pub fn quorum_counts(&self) -> (u64, u64, usize) {
        match self {
            AnyWorld::Quorum(w) => (
                w.sequenced_total(),
                w.quorum_health().iter().map(|h| h.elections).sum(),
                w.quorum_invariant_failures().len(),
            ),
            _ => (0, 0, 0),
        }
    }
}
