//! The four workloads, each generated from the workload seed.
//!
//! One *sample* is one complete experiment: build the worlds, run them,
//! produce the reports, and check the results. The untraced run repeats
//! samples; the traced run takes one sample as its reference and then
//! replays the workload's fault-free worlds ([`traced_jobs`]) plain,
//! without span retention, and under the layer meters.

use crate::calib;
use crate::jobs::{JobResult, Mode, WorldJob};
use crate::worlds::{MediumKind, Tier, WorldShape};
use publishing_chaos::driver::{run_schedule, GRACE_MS};
use publishing_chaos::oracle::{self, Baseline, OracleOptions};
use publishing_chaos::scenario::{PlanLink, PlanSpawn, Scenario, WorkloadSource, REPLICAS, SHARDS};
use publishing_chaos::schedule::{self, ChaosConfig, FaultSchedule};
use publishing_demos::ids::Channel;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_obs::probe::SchedulerProbe;
use publishing_obs::slo::SloSpec;
use publishing_sim::rng::DetRng;
use publishing_sim::time::SimTime;
use publishing_workload::{
    canonical_shapes, find_knee, CompiledWorkload, Knee, SearchParams, WorkloadSpec,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Virtual results of one sample, by name: what the pins compare.
pub type Virtual = BTreeMap<String, String>;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One long fault-free sharded run.
    SteadySharded,
    /// One fault-free Raft-quorum run.
    QuorumSteady,
    /// Generated fault schedules on all three tiers.
    ChaosSoak,
    /// The capacity knee sweep on the acknowledging ethernet.
    KneeEthernet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SteadySharded,
        Workload::QuorumSteady,
        Workload::ChaosSoak,
        Workload::KneeEthernet,
    ];

    /// The workload's name on the command line and in the pins.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadySharded => "steady_sharded",
            Workload::QuorumSteady => "quorum_steady",
            Workload::ChaosSoak => "chaos_soak",
            Workload::KneeEthernet => "knee_ethernet",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One experiment's host readings and virtual results.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Host seconds from the first construction to the last report,
    /// calibration work excluded.
    pub wall_s: f64,
    /// Host seconds constructing worlds and spawning their processes.
    pub setup_s: f64,
    /// Host seconds the worlds spent running.
    pub sim_s: f64,
    /// Simulator events delivered.
    pub events: u64,
    /// Heap allocations made during the experiment.
    pub allocs: u64,
    /// Heap bytes requested during the experiment.
    pub alloc_bytes: u64,
    /// Host ms of each independent run in the experiment.
    pub run_ms: Vec<f64>,
    /// Runs whose own check failed (recorded in the virtual results).
    pub failed: u64,
    /// What those checks found, for people.
    pub findings: Vec<String>,
    /// Virtual results.
    pub virt: Virtual,
    /// Per-layer readings the untraced experiment already yields.
    pub layers: Vec<(String, f64)>,
}

fn since_s(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// Scheduler counts summed over worlds (peak: the largest).
fn sched_layers(probes: &[SchedulerProbe]) -> Vec<(String, f64)> {
    let delivered: u64 = probes.iter().map(|p| p.delivered).sum();
    let scheduled: u64 = probes.iter().map(|p| p.scheduled).sum();
    let pending: u64 = probes.iter().map(|p| p.pending).sum();
    let peak = probes.iter().map(|p| p.peak_pending).max().unwrap_or(0);
    let cancelled = scheduled.saturating_sub(delivered + pending);
    vec![
        ("sim.events_delivered".into(), delivered as f64),
        ("sim.events_scheduled".into(), scheduled as f64),
        (
            "sim.cancel_ratio".into(),
            cancelled as f64 / scheduled.max(1) as f64,
        ),
        ("sim.peak_pending".into(), peak as f64),
    ]
}

// ---------------------------------------------------------------------
// steady_sharded / quorum_steady: one long ping/echo world.

/// Sizing of a ping/echo world.
struct PingSize {
    tier: Tier,
    /// Recorder shards or quorum replicas.
    width: usize,
    pairs: u32,
    pings: u64,
    horizon_s: u64,
}

const STEADY_SHARDED: PingSize = PingSize {
    tier: Tier::Sharded,
    width: 4,
    pairs: 16,
    pings: 2_000,
    horizon_s: 60,
};

const QUORUM_STEADY: PingSize = PingSize {
    tier: Tier::Quorum,
    width: 3,
    pairs: 4,
    pings: 100,
    horizon_s: 60,
};

/// Echo servers on node 2, pingers alternating over nodes 0 and 1. The
/// seed draws each pinger's think time in 2 ms ± 5% and the quorum's
/// election-timeout seed.
fn ping_job(size: &PingSize, seed: u64) -> WorldJob {
    let mut rng = DetRng::new(seed ^ 0x0BE4_C4A1_5EED_0001);
    let mut registry = ProgramRegistry::new();
    programs::register_standard(&mut registry);
    let mut plan = Vec::new();
    for i in 0..size.pairs {
        let think_ns = 1_900_000 + rng.below(200_001);
        let pings = size.pings;
        let image = format!("pinger-{i}");
        registry.register(image.clone(), move || {
            let mut c = PingClient::new(pings);
            c.think_ns = think_ns;
            Box::new(c)
        });
        plan.push(PlanSpawn {
            node: 2,
            program: "echo".into(),
            links: vec![],
            client: false,
        });
        plan.push(PlanSpawn {
            node: i % 2,
            program: image,
            links: vec![PlanLink {
                target: plan.len() - 1,
                channel: Channel::DEFAULT,
                code: 7,
            }],
            client: true,
        });
    }
    let horizon = SimTime::from_secs(size.horizon_s);
    WorldJob {
        shape: WorldShape {
            tier: size.tier,
            nodes: 3,
            width: size.width,
            quorum_seed: seed,
        },
        medium: MediumKind::Perfect,
        registry,
        plan,
        horizon,
        end: horizon,
    }
}

fn ping_size(w: Workload) -> &'static PingSize {
    match w {
        Workload::QuorumSteady => &QUORUM_STEADY,
        _ => &STEADY_SHARDED,
    }
}

/// Runs the ping world once and checks that every pinger printed
/// exactly `pong 1..N` then `done`, and that the quorum kept its
/// invariants.
fn ping_sample(w: Workload, seed: u64) -> (Sample, JobResult) {
    let size = ping_size(w);
    let job = ping_job(size, seed);
    let m = calib::mark();
    let r = job.run(Mode::Plain);
    let wall_s = m.elapsed_s();
    let grew = m.allocs();

    let mut want: Vec<String> = (1..=size.pings).map(|k| format!("pong {k}")).collect();
    want.push("done".into());
    let wrong_clients = r
        .clients
        .iter()
        .filter(|&&c| r.world.outputs_of(c) != want)
        .count();
    let (sequenced, elections, invariant_failures) = r.world.quorum_counts();

    let mut virt = Virtual::new();
    virt.insert("output_fp".into(), hex(r.world.output_fingerprint()));
    virt.insert("span_fp".into(), hex(r.world.obs_fingerprint()));
    virt.insert(
        "events_delivered".into(),
        r.report.sched.delivered.to_string(),
    );
    virt.insert(
        "events_scheduled".into(),
        r.report.sched.scheduled.to_string(),
    );
    virt.insert("clients_wrong".into(), wrong_clients.to_string());
    if size.tier == Tier::Quorum {
        virt.insert("sequenced".into(), sequenced.to_string());
        virt.insert("elections".into(), elections.to_string());
        virt.insert(
            "quorum_invariant_failures".into(),
            invariant_failures.to_string(),
        );
    }

    let mut layers = sched_layers(std::slice::from_ref(&r.report.sched));
    layers.push(("obs.report_ms".into(), r.report_ns as f64 / 1e6));
    let sample = Sample {
        wall_s,
        setup_s: r.build_ns as f64 / 1e9,
        sim_s: r.run_ns as f64 / 1e9,
        events: r.events(),
        allocs: grew.allocs,
        alloc_bytes: grew.bytes,
        run_ms: vec![wall_s * 1e3],
        failed: u64::from(wrong_clients > 0 || invariant_failures > 0),
        findings: [
            (wrong_clients > 0).then(|| format!("{wrong_clients} pingers printed wrong output")),
            (invariant_failures > 0)
                .then(|| format!("{invariant_failures} quorum invariant failures")),
        ]
        .into_iter()
        .flatten()
        .collect(),
        virt,
        layers,
    };
    (sample, r)
}

// ---------------------------------------------------------------------
// chaos_soak: generated fault schedules on every tier.

/// Faulted runs per tier; with three tiers the soak runs 210 worlds
/// plus three fault-free baselines.
const CHAOS_RUNS_PER_TIER: u64 = 70;

/// The schedule the `chaos` bin generates for `--seed seed`, run `k`.
fn chaos_schedule(tier: Tier, seed: u64, k: u64) -> FaultSchedule {
    schedule::generate(&ChaosConfig {
        seed: seed.wrapping_mul(1000).wrapping_add(k),
        nodes: publishing_chaos::NODES,
        shards: if tier == Tier::Sharded { SHARDS } else { 0 },
        replicas: if tier == Tier::Quorum { REPLICAS } else { 0 },
        procs: 4,
        horizon_ms: 1500,
        max_faults: 7,
    })
}

fn empty_schedule(workload_seed: u64, horizon_ms: u64) -> FaultSchedule {
    FaultSchedule {
        workload_seed,
        horizon_ms,
        faults: Vec::new(),
    }
}

/// A 64-bit FNV-1a fold of `words` into `h`.
fn fold(h: u64, words: &[u64]) -> u64 {
    let mut h = h;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Per-tier phase times of the soak, summed over runs.
#[derive(Default)]
struct Phases {
    build: f64,
    run: f64,
    oracle: f64,
    runs: u64,
}

fn chaos_sample(seed: u64) -> Sample {
    let m = calib::mark();
    let mut s = Sample::default();
    let mut probes = Vec::new();
    let (mut faults, mut recoveries, mut report_s) = (0u64, 0u64, 0.0f64);
    for tier in Tier::ALL {
        let scenario = Scenario::new(tier.topology(), seed);
        let mut phases = Phases::default();
        let mut digest = FNV_OFFSET;
        let mut rejected = Vec::new();

        let b0 = Instant::now();
        let mut base = scenario.build();
        s.setup_s += since_s(b0);
        let r0 = Instant::now();
        run_schedule(base.as_mut(), &empty_schedule(seed, 0));
        let run = since_s(r0);
        s.sim_s += run;
        calib::worked(run);
        let baseline = Baseline {
            output_fp: base.output_fingerprint(),
            obs_fp: base.obs_fingerprint(),
            client_outputs: base.client_outputs(),
            span_events: base.span_events(),
        };
        let p0 = Instant::now();
        probes.push(base.obs_report().sched);
        report_s += since_s(p0);
        let complete = baseline
            .client_outputs
            .iter()
            .all(|(_, lines)| lines.last().map(String::as_str) == Some("done"));
        drop(base);

        for k in 0..CHAOS_RUNS_PER_TIER {
            let sched = chaos_schedule(tier, seed, k);
            let b0 = Instant::now();
            let mut t = scenario.build();
            let build = since_s(b0);
            let r0 = Instant::now();
            run_schedule(t.as_mut(), &sched);
            let run = since_s(r0);
            let o0 = Instant::now();
            let failures = oracle::check(t.as_ref(), &baseline, &OracleOptions::default());
            let check = since_s(o0);
            let p0 = Instant::now();
            let report = t.obs_report();
            let rep = since_s(p0);
            calib::worked(build + run + check + rep);

            phases.build += build;
            phases.run += run;
            phases.oracle += check;
            phases.runs += 1;
            s.setup_s += build;
            s.sim_s += run;
            report_s += rep;
            s.run_ms.push((build + run + check + rep) * 1e3);
            if !failures.is_empty() || !complete {
                s.failed += 1;
                rejected.push(k.to_string());
                s.findings.push(format!(
                    "oracle rejects {} schedule {k} (`chaos --seed {seed} --schedules {}`): {}",
                    tier.name(),
                    k + 1,
                    failures
                        .first()
                        .map_or("baseline incomplete", String::as_str)
                ));
            }
            faults += sched.faults.len() as u64;
            recoveries += t.recoveries_completed();
            digest = fold(
                digest,
                &[
                    t.output_fingerprint(),
                    t.obs_fingerprint(),
                    t.recoveries_completed(),
                    sched.faults.len() as u64,
                    failures.len() as u64,
                ],
            );
            probes.push(report.sched);
        }
        let name = tier.name();
        s.virt.insert(
            format!("{name}.baseline_output_fp"),
            hex(baseline.output_fp),
        );
        s.virt
            .insert(format!("{name}.baseline_span_fp"), hex(baseline.obs_fp));
        s.virt.insert(format!("{name}.runs_digest"), hex(digest));
        // The oracle's verdicts, as the indices of the rejected schedules.
        s.virt
            .insert(format!("{name}.rejected"), rejected.join(","));
        let per_run = |x: f64| x * 1e3 / phases.runs.max(1) as f64;
        s.layers
            .push((format!("chaos.{name}.build_ms"), per_run(phases.build)));
        s.layers
            .push((format!("chaos.{name}.run_ms"), per_run(phases.run)));
        s.layers
            .push((format!("chaos.{name}.oracle_ms"), per_run(phases.oracle)));
    }
    s.wall_s = m.elapsed_s();
    let grew = m.allocs();
    s.allocs = grew.allocs;
    s.alloc_bytes = grew.bytes;
    s.events = probes.iter().map(|p| p.delivered).sum();
    let runs = s.run_ms.len() as f64;
    s.virt.insert("runs".into(), s.run_ms.len().to_string());
    s.virt
        .insert("oracle_failures".into(), s.failed.to_string());
    s.virt.insert("faults".into(), faults.to_string());
    s.virt.insert("recoveries".into(), recoveries.to_string());
    s.virt
        .insert("events_delivered".into(), s.events.to_string());
    s.layers.extend(sched_layers(&probes));
    s.layers
        .push(("chaos.faults_per_run".into(), faults as f64 / runs));
    s.layers
        .push(("chaos.recoveries_per_run".into(), recoveries as f64 / runs));
    s.layers
        .push(("obs.report_ms".into(), report_s * 1e3 / probes.len() as f64));
    s
}

// ---------------------------------------------------------------------
// knee_ethernet: the capacity bin's default sweep, several seeds.

/// Sweeps per sample. Knees, and so the work of a sweep, differ from seed
/// to seed; summing several sweeps keeps a sample's size steady across
/// workload seeds.
const KNEE_SWEEPS: u64 = 8;

/// One searched knee with the shape it searched.
struct SearchedKnee {
    tier: Tier,
    base: WorkloadSpec,
    knee: Knee,
}

/// Construction cannot be timed inside the search, so this builds (and
/// drops) the fault-free world of every trial the search ran, as
/// `run_trial` builds it, and returns the host seconds spent building.
fn build_trials(k: &SearchedKnee) -> f64 {
    let mut total = 0.0;
    for t in &k.knee.trials {
        let spec = k.base.clone().with_users(t.users);
        let mut scenario = Scenario::new(k.tier.topology(), spec.seed);
        scenario.medium = publishing_chaos::Medium::Ethernet;
        let source = CompiledWorkload::new(spec);
        let b0 = Instant::now();
        drop(scenario.build_with(&source));
        total += since_s(b0);
    }
    total
}

/// Runs `find_knee` over the canonical shapes × the three tiers with the
/// default search (chaos validation on, acknowledging ethernet), as
/// `capacity --seed s` does, for the [`KNEE_SWEEPS`] seeds
/// `s = seed × KNEE_SWEEPS + i`.
fn knee_sample(seed: u64) -> (Sample, Vec<SearchedKnee>) {
    let params = SearchParams::default();
    let slo = SloSpec::default();
    let mut s = Sample::default();
    let mut knees = Vec::new();
    let mut tier_ms = [0.0f64; 3];
    let m = calib::mark();
    for sweep in 0..KNEE_SWEEPS {
        let sweep_seed = seed.wrapping_mul(KNEE_SWEEPS).wrapping_add(sweep);
        for (shape, base) in canonical_shapes(sweep_seed) {
            for (i, tier) in Tier::ALL.into_iter().enumerate() {
                let k0 = Instant::now();
                let knee = find_knee(shape, tier.topology(), &base, &slo, &params);
                let ms = since_s(k0) * 1e3;
                calib::worked(ms / 1e3);
                tier_ms[i] += ms;
                s.run_ms.push(ms);
                let k = SearchedKnee {
                    tier,
                    base: base.clone(),
                    knee,
                };
                s.setup_s += calib::aside(|| build_trials(&k));
                knees.push(k);
            }
        }
    }
    s.wall_s = m.elapsed_s();
    s.sim_s = s.wall_s;
    let grew = m.allocs();
    s.allocs = grew.allocs;
    s.alloc_bytes = grew.bytes;


    let trials: Vec<_> = knees.iter().flat_map(|k| &k.knee.trials).collect();
    let delivered: u64 = trials.iter().map(|t| t.delivered).sum();
    s.events = trials.iter().map(|t| t.report.sched.delivered).sum();
    for k in &knees {
        s.virt.insert(
            format!("{}.{}.{}", k.base.seed, k.knee.shape, k.tier.name()),
            format!(
                "users={} trials={} binding={}",
                k.knee.knee_users,
                k.knee.trials.len(),
                k.knee.binding.as_deref().unwrap_or("-")
            ),
        );
    }
    s.virt.insert(
        "trials_digest".into(),
        hex(trials.iter().fold(FNV_OFFSET, |h, t| {
            fold(
                h,
                &[
                    u64::from(t.users),
                    t.offered,
                    t.delivered,
                    t.report.sched.delivered,
                    u64::from(t.pass),
                ],
            )
        })),
    );
    let probes: Vec<SchedulerProbe> = trials.iter().map(|t| t.report.sched).collect();
    s.layers.extend(sched_layers(&probes));
    s.layers
        .push(("workload.trials".into(), trials.len() as f64));
    for (i, tier) in Tier::ALL.into_iter().enumerate() {
        s.layers
            .push((format!("workload.{}.find_knee_ms", tier.name()), tier_ms[i]));
    }
    s.layers.push((
        "workload.allocs_per_trial".into(),
        s.allocs as f64 / trials.len().max(1) as f64,
    ));
    s.layers.push((
        "workload.host_ms_per_delivered".into(),
        s.wall_s * 1e3 / delivered.max(1) as f64,
    ));
    (s, knees)
}

// ---------------------------------------------------------------------

/// Runs one sample of `w`.
pub fn sample(w: Workload, seed: u64) -> Sample {
    match w {
        Workload::SteadySharded | Workload::QuorumSteady => ping_sample(w, seed).0,
        Workload::ChaosSoak => chaos_sample(seed),
        Workload::KneeEthernet => knee_sample(seed).0,
    }
}

/// Host seconds to construct the single world of `w` and spawn its
/// processes, or `None` for workloads of many worlds (their samples
/// already construct hundreds). The untraced run calls it after every
/// calibration pass, so that a single-world workload's constructions
/// spread over the run.
pub fn setup_once(w: Workload, seed: u64) -> Option<f64> {
    match w {
        Workload::SteadySharded | Workload::QuorumSteady => {
            let job = ping_job(ping_size(w), seed);
            let t0 = Instant::now();
            let world = job.build(false);
            let s = since_s(t0);
            drop(world);
            Some(s)
        }
        _ => None,
    }
}

/// A traced world and what its plain run must reproduce.
pub struct TracedJob {
    /// The job.
    pub job: WorldJob,
    /// Expected (output fp, span fp), when the reference sample knows it.
    pub expect_fps: Option<(u64, u64)>,
    /// Expected scheduler counts, when the reference sample knows them.
    pub expect_sched: Option<SchedulerProbe>,
    /// Expected ("sent", "got") totals over the clients' outputs.
    pub expect_load: Option<(u64, u64)>,
}

/// The reference sample of a traced run, with the fault-free worlds to
/// replay under the meters. For the single-world workloads the
/// reference sample's own run is the plain replay.
pub fn traced_jobs(w: Workload, seed: u64) -> (Sample, Vec<TracedJob>, Option<JobResult>) {
    match w {
        Workload::SteadySharded | Workload::QuorumSteady => {
            let (s, r) = ping_sample(w, seed);
            let job = TracedJob {
                job: ping_job(ping_size(w), seed),
                expect_fps: Some((r.world.output_fingerprint(), r.world.obs_fingerprint())),
                expect_sched: Some(r.report.sched),
                expect_load: None,
            };
            (s, vec![job], Some(r))
        }
        Workload::ChaosSoak => {
            let s = chaos_sample(seed);
            let jobs = Tier::ALL
                .into_iter()
                .map(|tier| {
                    let source = Scenario::new(tier.topology(), seed).default_source();
                    let fp = |k: &str| {
                        let v = &s.virt[&format!("{}.baseline_{k}", tier.name())];
                        u64::from_str_radix(v.trim_start_matches("0x"), 16).expect("hex")
                    };
                    TracedJob {
                        job: WorldJob {
                            shape: WorldShape::chaos(tier, seed),
                            medium: MediumKind::Perfect,
                            registry: source.registry(),
                            plan: source.plan(),
                            horizon: SimTime::ZERO,
                            end: SimTime::from_millis(GRACE_MS),
                        },
                        expect_fps: Some((fp("output_fp"), fp("span_fp"))),
                        expect_sched: None,
                        expect_load: None,
                    }
                })
                .collect();
            (s, jobs, None)
        }
        Workload::KneeEthernet => {
            let (s, knees) = knee_sample(seed);
            let mut jobs = Vec::new();
            for k in &knees {
                for t in &k.knee.trials {
                    let spec = k.base.clone().with_users(t.users);
                    let source = CompiledWorkload::new(spec.clone());
                    jobs.push(TracedJob {
                        job: WorldJob {
                            shape: WorldShape::chaos(k.tier, spec.seed),
                            medium: MediumKind::Ethernet,
                            registry: source.registry(),
                            plan: source.plan(),
                            horizon: SimTime::from_millis(spec.horizon_ms),
                            end: SimTime::from_millis(spec.horizon_ms + GRACE_MS),
                        },
                        expect_fps: None,
                        expect_sched: Some(t.report.sched),
                        expect_load: Some((t.offered, t.delivered)),
                    });
                }
            }
            (s, jobs, None)
        }
    }
}

/// Sums the `prefix N` lines of the clients' outputs, as the capacity
/// search counts offered and delivered publishes.
pub fn load_totals(r: &JobResult) -> (u64, u64) {
    let sum = |prefix: &str| -> u64 {
        r.clients
            .iter()
            .flat_map(|&c| r.world.outputs_of(c))
            .filter_map(|l| {
                l.strip_prefix(prefix)
                    .and_then(|n| n.trim().parse::<u64>().ok())
            })
            .sum()
    };
    (sum("sent "), sum("got "))
}
