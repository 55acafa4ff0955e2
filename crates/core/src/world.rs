//! The single-recorder world: processing nodes and one recording node
//! on a broadcast medium — the paper's basic configuration (§3).

use crate::cluster::{Cluster, RecorderTier};
use crate::node::{RecorderConfig, RecorderNode};
use publishing_demos::costs::CostModel;
use publishing_demos::ids::{NodeId, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::registry::{ProgramRegistry, UnknownProgram};
use publishing_demos::transport::TransportConfig;
use publishing_net::bus::PerfectBus;
use publishing_net::lan::{Lan, LanConfig};
use publishing_obs::probe::RecoveryLag;
use publishing_sim::time::SimTime;
use std::collections::BTreeMap;

/// Builds a [`World`].
pub struct WorldBuilder {
    nodes: u32,
    lan: Option<Box<dyn Lan>>,
    lan_cfg: LanConfig,
    costs: CostModel,
    transport: TransportConfig,
    registry: ProgramRegistry,
    recorder_cfg: RecorderConfig,
    publishing: bool,
}

impl WorldBuilder {
    /// Starts a builder for `nodes` processing nodes (node ids 0..n-1;
    /// the recorder gets node id n).
    pub fn new(nodes: u32) -> Self {
        WorldBuilder {
            nodes,
            lan: None,
            lan_cfg: LanConfig::default(),
            costs: CostModel::zero(),
            transport: TransportConfig::default(),
            registry: ProgramRegistry::new(),
            recorder_cfg: RecorderConfig::default(),
            publishing: true,
        }
    }

    /// Uses a specific medium instead of the default [`PerfectBus`].
    /// Stations 0..=n (nodes + recorder) must not yet be attached.
    pub fn medium(mut self, lan: Box<dyn Lan>) -> Self {
        self.lan = Some(lan);
        self
    }

    /// Sets the LAN configuration for the default medium.
    pub fn lan_config(mut self, cfg: LanConfig) -> Self {
        self.lan_cfg = cfg;
        self
    }

    /// Sets the node CPU cost model (defaults to zero for protocol tests).
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Sets transport parameters for all nodes.
    pub fn transport(mut self, t: TransportConfig) -> Self {
        self.transport = t;
        self
    }

    /// Sets the program registry shared by all nodes.
    pub fn registry(mut self, r: ProgramRegistry) -> Self {
        self.registry = r;
        self
    }

    /// Sets the recorder configuration.
    pub fn recorder(mut self, cfg: RecorderConfig) -> Self {
        self.recorder_cfg = cfg;
        self
    }

    /// Disables publishing (baseline mode: no recorder gating, intranode
    /// messages stay local, no notices).
    pub fn without_publishing(mut self) -> Self {
        self.publishing = false;
        self
    }

    /// Builds the world and starts the recorder's watchdogs.
    pub fn build(self) -> World {
        let lan = self
            .lan
            .unwrap_or_else(|| Box::new(PerfectBus::new(self.lan_cfg)));
        let tier = SingleTier {
            recorder: RecorderNode::new(NodeId(self.nodes), self.recorder_cfg),
            publishing: self.publishing,
        };
        Cluster::with_tier(
            self.nodes,
            self.registry,
            self.costs,
            self.transport,
            self.publishing,
            lan,
            tier,
        )
    }
}

/// The recording tier of a [`World`]: one recorder node.
pub struct SingleTier {
    /// The recording node.
    pub recorder: RecorderNode,
    publishing: bool,
}

impl RecorderTier for SingleTier {
    type Station = RecorderNode;

    fn stations(&self) -> &[RecorderNode] {
        std::slice::from_ref(&self.recorder)
    }

    fn stations_mut(&mut self) -> &mut [RecorderNode] {
        std::slice::from_mut(&mut self.recorder)
    }

    fn gate(c: &mut World) {
        if c.publishing {
            c.require_stations([0]);
        }
    }

    fn restart_node(c: &mut World, now: SimTime, idx: usize, node: NodeId, incarnation: u32) {
        c.restart_node(now, idx, node, incarnation, false);
    }

    fn metric_prefix(_idx: usize) -> String {
        "recorder".into()
    }

    fn recovery_lags(c: &World, suppressed: &BTreeMap<u64, u64>) -> Vec<RecoveryLag> {
        crate::obs::recovery_lags(c.recorder.recorder(), c.now(), suppressed)
    }
}

/// The running world.
pub type World = Cluster<SingleTier>;

impl World {
    /// Spawns a program marked unrecoverable (§6.6.1): the recorder
    /// publishes nothing for it and a crash is final.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownProgram`] if the image is not registered.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn spawn_unrecoverable(
        &mut self,
        node: u32,
        program: &str,
        links: Vec<Link>,
    ) -> Result<ProcessId, UnknownProgram> {
        self.spawn_with(node, |k, now| k.spawn_unrecoverable(now, program, links))
    }

    /// Crashes the recorder now. All publishable traffic suspends
    /// (§3.3.4) until [`World::restart_recorder`].
    pub fn crash_recorder(&mut self) {
        self.record_crash();
        self.recorder.crash();
        let station = self.recorder.station();
        self.lan.set_station_up(station, false);
        // The station stays in the required set: traffic is suspended,
        // not silently unpublished.
    }

    /// Restarts the recorder: database rebuild plus the §3.3.4 state
    /// queries.
    pub fn restart_recorder(&mut self) {
        let now = self.now();
        let station = self.recorder.station();
        self.lan.set_station_up(station, true);
        let actions = self.recorder.restart(now);
        self.apply_tier(now, 0, actions);
    }

    /// Whether publishing is enabled.
    pub fn publishing(&self) -> bool {
        self.publishing
    }
}
