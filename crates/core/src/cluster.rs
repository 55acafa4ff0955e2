//! One driver for every recorder tier: processing nodes and a recording
//! tier on one broadcast medium, driven by one deterministic event loop
//! (Figure 3.2 in executable form).
//!
//! The shape is the same at every scale; only the recording tier
//! changes — one recorder, several (§6.3), shards, or a consensus group.
//! [`Cluster`] owns everything the tiers share: the scheduler, medium,
//! kernels, outputs, crash instants and completed recoveries, and the
//! event loop itself. A [`RecorderTier`] supplies only what differs: its
//! stations, how the medium gates on their capture, restart arbitration,
//! an after-event hook, and its own metrics and report section.
//!
//! Node ids below `nodes` are kernels; node id `nodes + i` is tier
//! station `i`, so a delivery routes by arithmetic alone.

use crate::node::{RNAction, RecorderNode};
use crate::recorder::Recorder;
use publishing_demos::costs::CostModel;
use publishing_demos::harness::OutputLine;
use publishing_demos::ids::{NodeId, ProcessId};
use publishing_demos::kernel::{Kernel, KernelAction};
use publishing_demos::link::Link;
use publishing_demos::registry::{ProgramRegistry, UnknownProgram};
use publishing_demos::transport::TransportConfig;
use publishing_net::frame::{Frame, StationId};
use publishing_net::lan::{Lan, LanAction};
use publishing_obs::probe::RecoveryLag;
use publishing_obs::registry::MetricsRegistry;
use publishing_obs::report::ObsReport;
use publishing_obs::span::SpanLog;
use publishing_sim::event::{FaultClock, Scheduler, Tick};
use publishing_sim::fnv::{fingerprint_fold, FNV_OFFSET};
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

/// Cluster events.
#[derive(Debug)]
enum Ev {
    LanTimer(u64),
    KernelTimer(u32, u64),
    TierTimer(usize, u64),
    Deliver {
        to: u32,
        frame: Frame,
        recorder_ok: bool,
    },
}

/// One station of a recorder tier: a recorder node, or a consensus
/// replica wrapping one.
pub trait TierStation {
    /// Begins operation, watching the processing nodes in `watch`.
    fn start(&mut self, now: SimTime, watch: &[NodeId]) -> Vec<RNAction>;
    /// A timer this station set has fired.
    fn on_timer(&mut self, now: SimTime, token: u64) -> Vec<RNAction>;
    /// A frame arrived at this station.
    fn on_frame(&mut self, now: SimTime, frame: &Frame, recorder_ok: bool) -> Vec<RNAction>;
    /// Whether the station is up.
    fn is_up(&self) -> bool;
    /// The recorder node doing the station's capture and recovery.
    fn recorder_node(&self) -> &RecorderNode;
    /// Mutable access to the station's recorder node.
    fn recorder_node_mut(&mut self) -> &mut RecorderNode;
}

impl TierStation for RecorderNode {
    fn start(&mut self, now: SimTime, watch: &[NodeId]) -> Vec<RNAction> {
        RecorderNode::start(self, now, watch)
    }

    fn on_timer(&mut self, now: SimTime, token: u64) -> Vec<RNAction> {
        RecorderNode::on_timer(self, now, token)
    }

    fn on_frame(&mut self, now: SimTime, frame: &Frame, recorder_ok: bool) -> Vec<RNAction> {
        RecorderNode::on_frame(self, now, frame, recorder_ok)
    }

    fn is_up(&self) -> bool {
        RecorderNode::is_up(self)
    }

    fn recorder_node(&self) -> &RecorderNode {
        self
    }

    fn recorder_node_mut(&mut self) -> &mut RecorderNode {
        self
    }
}

/// What one recording tier supplies to a [`Cluster`]. Every hook is
/// statically dispatched: the event loop is generic over the tier.
pub trait RecorderTier: Sized {
    /// The tier's station type.
    type Station: TierStation;

    /// The tier's stations; index `i` runs on node id `nodes + i`.
    fn stations(&self) -> &[Self::Station];

    /// Mutable access to the tier's stations.
    fn stations_mut(&mut self) -> &mut [Self::Station];

    /// Installs the tier's ack gating (recorder router, required set)
    /// once every station is attached to the medium.
    fn gate(c: &mut Cluster<Self>);

    /// Station `idx` asks to restart crashed processing node `node` as
    /// `incarnation`: arbitrate, then [`Cluster::restart_node`] or
    /// decline.
    fn restart_node(
        c: &mut Cluster<Self>,
        now: SimTime,
        idx: usize,
        node: NodeId,
        incarnation: u32,
    );

    /// Runs after each batch of station `idx`'s actions is applied.
    fn applied(_c: &mut Cluster<Self>, _idx: usize) {}

    /// Runs after every dispatched event.
    fn after_event(_c: &mut Cluster<Self>, _now: SimTime) {}

    /// A process was spawned.
    fn spawned(&mut self, _pid: ProcessId) {}

    /// Registry path prefix for station `idx`'s recorder metrics.
    fn metric_prefix(idx: usize) -> String;

    /// Files the tier's own metric families.
    fn tier_metrics(_c: &Cluster<Self>, _reg: &mut MetricsRegistry) {}

    /// Recovery-lag probes, one per process the tier knows.
    fn recovery_lags(c: &Cluster<Self>, suppressed: &BTreeMap<u64, u64>) -> Vec<RecoveryLag>;

    /// Fills the tier's own report sections.
    fn report(_c: &Cluster<Self>, _report: &mut ObsReport) {}
}

/// Processing nodes and a recording tier on one medium. Dereferences to
/// the tier, so the tier's fields and methods read as the cluster's.
pub struct Cluster<T: RecorderTier> {
    sched: Scheduler<Ev>,
    /// The shared medium.
    pub lan: Box<dyn Lan>,
    /// Processing-node kernels by node id.
    pub kernels: BTreeMap<u32, Kernel>,
    /// All process outputs, in emission order (including replayed
    /// duplicates; use [`Cluster::outputs_of`] for the deduplicated view).
    pub outputs: Vec<OutputLine>,
    nodes: u32,
    /// Virtual instants of injected crashes, in injection order.
    crashes: Vec<SimTime>,
    /// Packed pid → virtual instant its recovery committed.
    recovered: BTreeMap<u64, SimTime>,
    /// Authoritative node incarnations, for tiers that number restarts
    /// themselves.
    incarnations: BTreeMap<u32, u32>,
    tier: T,
}

impl<T: RecorderTier> Deref for Cluster<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.tier
    }
}

impl<T: RecorderTier> DerefMut for Cluster<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.tier
    }
}

impl<T: RecorderTier> Cluster<T> {
    /// Builds `nodes` processing nodes (node ids `0..nodes`) and `tier`
    /// (node ids from `nodes` up) on a fresh `lan`, then starts the tier.
    pub fn with_tier(
        nodes: u32,
        registry: ProgramRegistry,
        costs: CostModel,
        transport: TransportConfig,
        publishing: bool,
        mut lan: Box<dyn Lan>,
        tier: T,
    ) -> Self {
        let width = tier.stations().len() as u32;
        let mut kernels = BTreeMap::new();
        for n in 0..nodes {
            let mut k = Kernel::new(
                NodeId(n),
                registry.clone(),
                costs.clone(),
                transport.clone(),
                publishing,
            );
            for r in 0..width {
                k.add_recorder(NodeId(nodes + r));
            }
            lan.attach(k.station());
            kernels.insert(n, k);
        }
        for s in tier.stations() {
            lan.attach(s.recorder_node().station());
        }
        let mut c = Cluster {
            sched: Scheduler::new(),
            lan,
            kernels,
            outputs: Vec::new(),
            nodes,
            crashes: Vec::new(),
            recovered: BTreeMap::new(),
            incarnations: BTreeMap::new(),
            tier,
        };
        T::gate(&mut c);
        for i in 0..c.tier.stations().len() {
            c.start_station(SimTime::ZERO, i);
        }
        c
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// The number of processing nodes.
    pub fn node_count(&self) -> u32 {
        self.nodes
    }

    /// Starts tier station `idx`, watching every processing node.
    pub fn start_station(&mut self, now: SimTime, idx: usize) {
        let watch: Vec<NodeId> = (0..self.nodes).map(NodeId).collect();
        let actions = self.tier.stations_mut()[idx].start(now, &watch);
        self.apply_tier(now, idx, actions);
    }

    /// Spawns a program on a node with initial links.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownProgram`] if the image is not registered.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn spawn(
        &mut self,
        node: u32,
        program: &str,
        links: Vec<Link>,
    ) -> Result<ProcessId, UnknownProgram> {
        self.spawn_with(node, |k, now| k.spawn(now, program, links))
    }

    pub(crate) fn spawn_with(
        &mut self,
        node: u32,
        spawn: impl FnOnce(
            &mut Kernel,
            SimTime,
        ) -> Result<(ProcessId, Vec<KernelAction>), UnknownProgram>,
    ) -> Result<ProcessId, UnknownProgram> {
        let now = self.now();
        let k = self.kernels.get_mut(&node).expect("node exists");
        let (pid, actions) = spawn(k, now)?;
        self.tier.spawned(pid);
        self.apply_kernel(now, node, actions);
        Ok(pid)
    }

    fn apply_kernel(&mut self, now: SimTime, node: u32, actions: Vec<KernelAction>) {
        for a in actions {
            match a {
                KernelAction::Transmit(frame) => self.transmit(now, frame),
                KernelAction::SetTimer { at, token } => {
                    self.sched.schedule_at(at, Ev::KernelTimer(node, token));
                }
                KernelAction::Output { pid, seq, bytes } => {
                    self.outputs.push(OutputLine {
                        at: now,
                        pid,
                        seq,
                        bytes,
                    });
                }
            }
        }
    }

    /// Applies tier station `idx`'s actions; node restarts go through the
    /// tier's arbitration.
    pub fn apply_tier(&mut self, now: SimTime, idx: usize, actions: Vec<RNAction>) {
        for a in actions {
            match a {
                RNAction::Transmit(frame) => self.transmit(now, frame),
                RNAction::SetTimer { at, token } => {
                    self.sched.schedule_at(at, Ev::TierTimer(idx, token));
                }
                RNAction::RestartNode { node, incarnation } => {
                    T::restart_node(self, now, idx, node, incarnation);
                }
                RNAction::RecoveryDone { pid } => {
                    self.recovered.insert(pid.as_u64(), now);
                }
            }
        }
        T::applied(self, idx);
    }

    /// Puts a frame on the medium now.
    pub fn transmit(&mut self, now: SimTime, frame: Frame) {
        let actions = self.lan.submit(now, frame);
        self.apply_lan(actions);
    }

    fn apply_lan(&mut self, actions: Vec<LanAction>) {
        for a in actions {
            match a {
                LanAction::Deliver {
                    at,
                    to,
                    frame,
                    recorder_ok,
                } => {
                    self.sched.schedule_at(
                        at,
                        Ev::Deliver {
                            to: to.0,
                            frame,
                            recorder_ok,
                        },
                    );
                }
                LanAction::SetTimer { at, token } => {
                    self.sched.schedule_at(at, Ev::LanTimer(token));
                }
                LanAction::TxOutcome { .. } => {}
            }
        }
    }

    /// The §4.6 operator action: reboots processing node `node` as
    /// `incarnation` (or a spare assuming its identity), then confirms
    /// the restart to station `idx`, which announces it. With `fan_out`,
    /// every other live station also resets its transport toward the
    /// node and recovers the processes it is responsible for — the
    /// parallel-replay fan-out.
    pub fn restart_node(
        &mut self,
        now: SimTime,
        idx: usize,
        node: NodeId,
        incarnation: u32,
        fan_out: bool,
    ) {
        if let Some(k) = self.kernels.get_mut(&node.0) {
            k.restart_node(now, incarnation);
            self.lan.set_station_up(StationId(node.0), true);
        }
        let confirm: Vec<usize> = (0..self.tier.stations().len())
            .filter(|&j| j == idx || (fan_out && self.tier.stations()[j].is_up()))
            .collect();
        for j in confirm {
            let follow = self.tier.stations_mut()[j]
                .recorder_node_mut()
                .confirm_node_restarted_with(now, node, incarnation, j == idx);
            self.apply_tier(now, j, follow);
        }
    }

    /// The next incarnation of processing node `node`, for tiers that
    /// number restarts themselves.
    pub fn next_incarnation(&mut self, node: NodeId) -> u32 {
        let inc = self.incarnations.entry(node.0).or_insert(0);
        *inc += 1;
        *inc
    }

    /// Requires the capture of the tier stations in `live` for delivery.
    /// With none live, requires them all: publishable traffic suspends
    /// (§3.3.4) rather than going out unpublished.
    pub fn require_stations(&mut self, live: impl IntoIterator<Item = usize>) {
        let station = |s: &T::Station| s.recorder_node().station();
        let stations = self.tier.stations();
        let mut required: Vec<StationId> =
            live.into_iter().map(|i| station(&stations[i])).collect();
        if required.is_empty() {
            required = stations.iter().map(station).collect();
        }
        self.lan.set_required_recorders(required);
    }

    /// Notes an injected crash now (tier stations crash through the
    /// tier's own operations).
    pub fn record_crash(&mut self) {
        self.crashes.push(self.now());
    }

    /// Processes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((now, ev)) = self.sched.pop() else {
            return false;
        };
        self.dispatch(now, ev);
        true
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::LanTimer(token) => {
                let actions = self.lan.timer(now, token);
                self.apply_lan(actions);
            }
            Ev::KernelTimer(node, token) => {
                if let Some(k) = self.kernels.get_mut(&node) {
                    let actions = k.on_timer(now, token);
                    self.apply_kernel(now, node, actions);
                }
            }
            Ev::TierTimer(idx, token) => {
                let actions = self.tier.stations_mut()[idx].on_timer(now, token);
                self.apply_tier(now, idx, actions);
            }
            Ev::Deliver {
                to,
                frame,
                recorder_ok,
            } => {
                if to < self.nodes {
                    if let Some(k) = self.kernels.get_mut(&to) {
                        let actions = k.on_frame(now, &frame, recorder_ok);
                        self.apply_kernel(now, to, actions);
                    }
                } else {
                    let idx = (to - self.nodes) as usize;
                    if let Some(s) = self.tier.stations_mut().get_mut(idx) {
                        let actions = s.on_frame(now, &frame, recorder_ok);
                        self.apply_tier(now, idx, actions);
                    }
                }
            }
        }
        T::after_event(self, now);
    }

    /// Runs every event due at or before `deadline`, then advances the
    /// clock to `deadline` (watchdogs tick forever, so there is no
    /// quiescence in a published world).
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.sched.peek_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
        self.advance_to(deadline);
    }

    fn advance_to(&mut self, deadline: SimTime) {
        if self.sched.now() < deadline {
            self.sched.advance_to(deadline);
        }
    }

    /// Installs a fault clock: [`Cluster::run_until_or_fault`] pauses at
    /// each of its instants so a chaos driver can inject faults.
    pub fn set_fault_clock(&mut self, clock: FaultClock) {
        self.sched.set_fault_clock(clock);
    }

    /// Runs until `deadline` or the next fault-clock instant, whichever
    /// comes first. Returns `Some(t)` when paused at a fault instant (the
    /// clock is at `t`; inject, then call again), `None` once the clock
    /// reaches `deadline` with no fault due before it.
    pub fn run_until_or_fault(&mut self, deadline: SimTime) -> Option<SimTime> {
        let due = |t: Option<SimTime>| t.is_some_and(|t| t <= deadline);
        while due(self.sched.next_fault()) || due(self.sched.peek_time()) {
            match self.sched.pop_or_fault() {
                Some(Tick::Fault(t)) => return Some(t),
                Some(Tick::Event(now, ev)) => self.dispatch(now, ev),
                None => break,
            }
        }
        self.advance_to(deadline);
        None
    }

    /// Crashes one process now (a detected fault, §3.3.2). The kernel
    /// notifies the recovery manager, which recovers it transparently.
    pub fn crash_process(&mut self, pid: ProcessId, reason: &str) {
        let now = self.now();
        if let Some(k) = self.kernels.get_mut(&pid.node.0) {
            self.crashes.push(now);
            let actions = k.crash_process(now, pid.local, reason);
            self.apply_kernel(now, pid.node.0, actions);
        }
    }

    /// Crashes a whole node now; a watchdog will notice and the tier
    /// will restart and re-populate it.
    pub fn crash_node(&mut self, node: u32) {
        if let Some(k) = self.kernels.get_mut(&node) {
            self.crashes.push(self.sched.now());
            k.crash_node();
            self.lan.set_station_up(StationId(node), false);
        }
    }

    /// The deduplicated output lines of one process: exactly-once by
    /// output sequence number, in sequence order — what a §6.4-style
    /// idempotent console would print.
    pub fn outputs_of(&self, pid: ProcessId) -> Vec<String> {
        let mut by_seq: BTreeMap<u64, &OutputLine> = BTreeMap::new();
        for o in self.outputs.iter().filter(|o| o.pid == pid) {
            by_seq.entry(o.seq).or_insert(o);
        }
        by_seq
            .values()
            .map(|o| String::from_utf8_lossy(&o.bytes).into_owned())
            .collect()
    }

    /// The raw (possibly duplicated) output lines of one process.
    pub fn raw_outputs_of(&self, pid: ProcessId) -> Vec<String> {
        self.outputs
            .iter()
            .filter(|o| o.pid == pid)
            .map(|o| String::from_utf8_lossy(&o.bytes).into_owned())
            .collect()
    }

    /// A fingerprint of every process's deduplicated output, for
    /// equivalence oracles.
    pub fn output_fingerprint(&self) -> u64 {
        let mut per_pid: BTreeMap<ProcessId, BTreeMap<u64, &[u8]>> = BTreeMap::new();
        for o in &self.outputs {
            per_pid
                .entry(o.pid)
                .or_default()
                .entry(o.seq)
                .or_insert(&o.bytes);
        }
        let mut h = FNV_OFFSET;
        for (pid, lines) in per_pid {
            for (seq, bytes) in lines {
                h = fingerprint_fold(h, &pid.as_u64().to_le_bytes());
                h = fingerprint_fold(h, &seq.to_le_bytes());
                h = fingerprint_fold(h, bytes);
            }
        }
        h
    }

    /// The tier's recorders, by station index.
    pub fn recorders(&self) -> impl Iterator<Item = &Recorder> {
        self.tier
            .stations()
            .iter()
            .map(|s| s.recorder_node().recorder())
    }

    /// Every span log, in deterministic order: kernels by node id, then
    /// tier stations by index.
    pub fn span_logs(&self) -> Vec<&SpanLog> {
        let mut logs: Vec<_> = self.kernels.values().map(|k| k.spans()).collect();
        logs.extend(self.recorders().map(|r| r.spans()));
        logs
    }

    /// Order-sensitive fingerprint over every span log — the run-level
    /// determinism oracle for the lifecycle trace.
    pub fn obs_fingerprint(&self) -> u64 {
        publishing_obs::span::combined_fingerprint(self.span_logs())
    }

    /// Assembles per-message lifecycle spans from every component's log.
    pub fn spans(
        &self,
    ) -> BTreeMap<publishing_obs::span::MsgKey, publishing_obs::span::MessageSpan> {
        publishing_obs::span::assemble(self.span_logs())
    }

    /// The happens-before DAG over every component's span log.
    pub fn causal_graph(&self) -> publishing_obs::causal::CausalGraph {
        publishing_obs::causal::CausalGraph::build(self.span_logs())
    }

    /// Virtual instants of every injected crash, in injection order.
    pub fn crash_times(&self) -> &[SimTime] {
        &self.crashes
    }

    /// Completed recoveries: packed pid → instant the manager committed.
    pub fn recoveries_done(&self) -> &BTreeMap<u64, SimTime> {
        &self.recovered
    }

    /// The measured crash→convergence window: first injected crash to
    /// the last committed recovery. `None` until a recovery completes.
    pub fn recovery_window(&self) -> Option<(SimTime, SimTime)> {
        let crash = *self.crashes.first()?;
        let converged = *self.recovered.values().max()?;
        (converged >= crash).then_some((crash, converged))
    }

    /// Total recoveries completed across the tier.
    pub fn recoveries_completed(&self) -> u64 {
        self.tier
            .stations()
            .iter()
            .map(|s| s.recorder_node().manager().stats().completed.get())
            .sum()
    }

    /// Caps every component span log (kernels and tier recorders) at
    /// `capacity` retained events. `0` keeps fingerprints and totals
    /// but retains nothing — the spans-disabled configuration of the
    /// overhead benchmark.
    pub fn set_span_capacity(&mut self, capacity: usize) {
        for k in self.kernels.values_mut() {
            k.set_span_capacity(capacity);
        }
        for s in self.tier.stations_mut() {
            s.recorder_node_mut().set_span_capacity(capacity);
        }
    }

    /// Event-queue statistics of the cluster's scheduler.
    pub fn scheduler_probe(&self) -> publishing_obs::probe::SchedulerProbe {
        publishing_obs::probe::SchedulerProbe {
            delivered: self.sched.delivered(),
            scheduled: self.sched.scheduled(),
            pending: self.sched.pending() as u64,
            peak_pending: self.sched.peak_pending() as u64,
        }
    }

    /// Pending-buffer depth distribution merged across every tier
    /// recorder (all share the same binning).
    pub fn queue_depths(&self) -> Option<publishing_sim::stats::LinearHistogram> {
        let mut merged: Option<publishing_sim::stats::LinearHistogram> = None;
        for r in self.recorders() {
            let h = &r.stats().depth_hist;
            match &mut merged {
                Some(m) => m.merge(h),
                None => merged = Some(h.clone()),
            }
        }
        merged
    }

    /// Recovery-lag probes, one per process the tier knows.
    pub fn recovery_lags(&self) -> Vec<RecoveryLag> {
        let suppressed = crate::obs::suppressed_by_sender(self.kernels.values().map(|k| k.spans()));
        T::recovery_lags(self, &suppressed)
    }

    /// Snapshots every component's instruments into one registry.
    pub fn collect_metrics(&self) -> MetricsRegistry {
        let now = self.now();
        let mut reg = MetricsRegistry::new();
        for k in self.kernels.values() {
            crate::obs::kernel_metrics(&mut reg, k);
        }
        for (i, s) in self.tier.stations().iter().enumerate() {
            crate::obs::recorder_node_metrics(
                &mut reg,
                &T::metric_prefix(i),
                s.recorder_node(),
                now,
            );
        }
        T::tier_metrics(self, &mut reg);
        publishing_obs::probe::MediumHealth::from_lan(self.lan.stats(), now)
            .into_registry(&mut reg);
        reg
    }

    /// Builds the full observability report for the run so far.
    pub fn obs_report(&self) -> ObsReport {
        let now = self.now();
        let horizon = now.saturating_since(SimTime::ZERO);
        let mut profile = publishing_obs::profile::TimeProfile::new();
        let mut kernel_cpu = SimDuration::ZERO;
        for k in self.kernels.values() {
            kernel_cpu += k.stats().cpu_used;
        }
        profile.charge("kernel_cpu", kernel_cpu);
        let mut publish_cpu = SimDuration::ZERO;
        let mut disk_busy = SimDuration::ZERO;
        for rec in self.recorders() {
            publish_cpu += rec.stats().cpu_used;
            let store = rec.store();
            for i in 0..store.n_disks() {
                disk_busy += store.disk_stats(i).busy.busy_time(now);
            }
        }
        profile.charge("publish_cpu", publish_cpu);
        profile.charge("stable_store_io", disk_busy);
        profile.charge("medium_busy", self.lan.stats().busy.busy_time(now));

        let mut metrics = self.collect_metrics();
        let mut recovery = self.recovery_lags();
        let graph = (!self.recovered.is_empty()).then(|| self.causal_graph());
        if let Some(g) = &graph {
            for lag in &mut recovery {
                let Some(&done) = self.recovered.get(&lag.subject) else {
                    continue;
                };
                let Some(&crash) = self.crashes.iter().filter(|&&c| c <= done).max() else {
                    continue;
                };
                lag.recovery_ms = done.saturating_since(crash).as_millis_f64();
                lag.critical_path_ms = g
                    .critical_path(crash, done, Some(lag.subject))
                    .map(|p| p.total().as_millis_f64())
                    .unwrap_or(lag.recovery_ms);
            }
        }
        let critical_path = self
            .recovery_window()
            .and_then(|(crash, converged)| graph.as_ref()?.critical_path(crash, converged, None));
        if let Some(cp) = &critical_path {
            cp.into_registry(&mut metrics);
        }

        let spans = self.spans();
        let logs = self.span_logs();
        let mut report = ObsReport {
            schema: publishing_obs::report::REPORT_SCHEMA_VERSION,
            at_ms: now.as_millis_f64(),
            metrics,
            recovery,
            shards: Vec::new(),
            medium: Some(publishing_obs::probe::MediumHealth::from_lan(
                self.lan.stats(),
                now,
            )),
            profile,
            horizon,
            latencies: publishing_obs::profile::stage_latencies(&spans),
            sched: self.scheduler_probe(),
            queue_depths: self.queue_depths(),
            spans_total: logs.iter().map(|l| l.total()).sum(),
            span_fingerprint: self.obs_fingerprint(),
            critical_path,
            quorum: Vec::new(),
            consensus: None,
            watchdog: None,
            workload: None,
            utilization: Some(crate::obs::utilization_report(
                self.kernels.values(),
                (0u32..).zip(self.recorders()),
                self.lan.as_ref(),
                now,
            )),
            whatif: None,
            forensics: None,
        };
        T::report(self, &mut report);
        report
    }
}
