//! One world run from construction to its report, plain or metered.
//!
//! A [`WorldJob`] describes a fault-free run the way the chaos driver
//! performs it: build, spawn the plan, run to the injection horizon,
//! heal the medium, run through the end instant, build the report. It
//! runs each deadline in short virtual chunks; chunking only splits
//! `run_until` calls, which dispatch the same events in the same order.
//! Undecorated runs let the calibration pass ([`crate::calib`]) run
//! between chunks. The metered variant wraps the medium and every
//! program in the [`crate::meter`] decorators and times each chunk.

use crate::calib;
use crate::meter::{self, Meter, TimedLan};
use crate::worlds::{AnyWorld, MediumKind, WorldShape};
use publishing_chaos::scenario::PlanSpawn;
use publishing_demos::registry::ProgramRegistry;
use publishing_obs::probe::SchedulerProbe;
use publishing_obs::report::ObsReport;
use publishing_sim::time::{SimDuration, SimTime};
use std::time::Instant;

/// Virtual chunk length of a run.
const CHUNK: SimDuration = SimDuration::from_millis(10);

/// A fault-free world run.
#[derive(Clone)]
pub struct WorldJob {
    /// Tier and size.
    pub shape: WorldShape,
    /// Broadcast medium.
    pub medium: MediumKind,
    /// Program images.
    pub registry: ProgramRegistry,
    /// Processes to spawn, in order.
    pub plan: Vec<PlanSpawn>,
    /// Injection horizon: the medium is healed here.
    pub horizon: SimTime,
    /// Last virtual instant run.
    pub end: SimTime,
}

/// How a job is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Undecorated; calibration passes may run between chunks.
    Plain,
    /// Undecorated with span retention off.
    NoSpans,
    /// Decorated and chunked.
    Metered,
}

/// Everything a finished job yields.
pub struct JobResult {
    /// The finished world.
    pub world: AnyWorld,
    /// Pids of the plan's clients.
    pub clients: Vec<publishing_demos::ids::ProcessId>,
    /// Its report.
    pub report: ObsReport,
    /// Host ns spent building and spawning.
    pub build_ns: u64,
    /// Host ns spent running, calibration work excluded.
    pub run_ns: u64,
    /// Host ns spent in `obs_report()`.
    pub report_ns: u64,
    /// Allocations made while running.
    pub run_allocs: u64,
    /// Per-chunk (host ns, events delivered) of a metered run.
    pub chunks: Vec<(u64, u64)>,
    /// Decorator readings of a metered run.
    pub meter: Meter,
}

impl JobResult {
    /// Events the world delivered.
    pub fn events(&self) -> u64 {
        self.report.sched.delivered
    }

    /// Output and span fingerprints plus queue counts: what a metered
    /// run must reproduce exactly.
    pub fn virtual_key(&self) -> (u64, u64, SchedulerProbe) {
        (
            self.world.output_fingerprint(),
            self.world.obs_fingerprint(),
            self.report.sched,
        )
    }
}

impl WorldJob {
    /// Builds the world and spawns the plan.
    pub fn build(&self, metered: bool) -> (AnyWorld, Vec<publishing_demos::ids::ProcessId>) {
        let (registry, lan) = if metered {
            (
                meter::timed_registry(&self.registry),
                Box::new(TimedLan(self.medium.build())) as Box<dyn publishing_net::lan::Lan>,
            )
        } else {
            (self.registry.clone(), self.medium.build())
        };
        let mut w = AnyWorld::build(self.shape, registry, lan);
        let clients = w.spawn_plan(&self.plan);
        (w, clients)
    }

    /// Runs the job.
    pub fn run(&self, mode: Mode) -> JobResult {
        let metered = mode == Mode::Metered;
        let t0 = Instant::now();
        let (mut world, clients) = self.build(metered);
        if mode == Mode::NoSpans {
            world.set_span_capacity(0);
        }
        let build_ns = t0.elapsed().as_nanos() as u64;
        meter::take();
        let m = calib::mark();
        let mut chunks = Vec::new();
        if metered {
            advance_chunked(&mut world, self.horizon, &mut chunks);
            world.heal_medium();
            advance_chunked(&mut world, self.end, &mut chunks);
        } else {
            advance_paced(&mut world, self.horizon);
            world.heal_medium();
            advance_paced(&mut world, self.end);
        }
        let run_ns = (m.elapsed_s() * 1e9) as u64;
        let run_allocs = m.allocs().allocs;
        let meter = meter::take();
        let t2 = Instant::now();
        let report = world.obs_report();
        let report_ns = t2.elapsed().as_nanos() as u64;
        JobResult {
            world,
            clients,
            report,
            build_ns,
            run_ns,
            report_ns,
            run_allocs,
            chunks,
            meter,
        }
    }
}

/// Runs `world` to `target` in [`CHUNK`]-long `run_until` calls (at
/// least one), handing each call's host time to [`calib::worked`].
fn advance_paced(world: &mut AnyWorld, target: SimTime) {
    let mut t = world.now();
    loop {
        t = t.saturating_add(CHUNK).min(target);
        let c0 = Instant::now();
        world.run_until(t);
        calib::worked(c0.elapsed().as_secs_f64());
        if t >= target {
            break;
        }
    }
}

/// Runs `world` to `target` in [`CHUNK`]-long `run_until` calls (at
/// least one), recording each call's host ns and events delivered.
fn advance_chunked(world: &mut AnyWorld, target: SimTime, chunks: &mut Vec<(u64, u64)>) {
    let mut t = world.now();
    loop {
        t = t.saturating_add(CHUNK).min(target);
        let before = world.scheduler_probe().delivered;
        let c0 = Instant::now();
        world.run_until(t);
        let ns = c0.elapsed().as_nanos() as u64;
        chunks.push((ns, world.scheduler_probe().delivered - before));
        if t >= target {
            break;
        }
    }
}
