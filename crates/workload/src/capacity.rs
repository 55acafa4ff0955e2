//! Closed-loop capacity search: the paper's Fig 5.5 knee, generalized.
//!
//! §5.3 loads the published medium with simulated users until delivery
//! degrades, finding ≈115 sustainable users on the 1983 ethernet. This
//! module reproduces that experiment as a closed loop over any
//! [`WorkloadSpec`] shape and any recorder topology: a *trial* runs the
//! compiled workload fault-free on the paper medium and judges it
//! against an [`SloSpec`] (plus, optionally, a seeded fault schedule
//! judged by the chaos recovery oracle against the trial's own
//! baseline); the *search* brackets the highest passing user count by
//! doubling, then binary-searches the bracket. The result — the
//! "capacity knee" — is the largest user count the tier sustains within
//! its objectives, every searched point a fully validated run.

use crate::compile::CompiledWorkload;
use crate::spec::WorkloadSpec;
use publishing_chaos::driver::run_schedule;
use publishing_chaos::oracle::{self, Baseline, OracleOptions};
use publishing_chaos::{FaultSchedule, Medium, Scenario, Topology, Tuning};
use publishing_obs::report::{ObsReport, WorkloadStats};
use publishing_obs::slo::SloSpec;

/// Search knobs.
#[derive(Debug, Clone)]
pub struct SearchParams {
    /// Upper bound on the searched user count.
    pub max_users: u32,
    /// Validate every searched point under a seeded fault schedule via
    /// the chaos recovery oracle (in addition to the fault-free SLO
    /// check).
    pub chaos: bool,
    /// Broadcast medium for the trials. The knee only exists on a
    /// finite medium; [`Medium::Ethernet`] is the paper's.
    pub medium: Medium,
    /// Physical-constant knobs (costs, wire speed, transport window)
    /// applied to every trial — identity by default; the what-if
    /// profiler re-searches under a turned knob.
    pub tuning: Tuning,
    /// Emit a knee-search log line per probed point on stderr, naming
    /// the SLO clause that rejected it.
    pub verbose: bool,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            max_users: 256,
            chaos: true,
            medium: Medium::Ethernet,
            tuning: Tuning::default(),
            verbose: false,
        }
    }
}

/// Classifies an SLO-violation string into the clause that produced
/// it, so knee-search logs and reports say *which objective* rejected
/// a point, not just that one did.
pub fn slo_clause(violation: &str) -> &'static str {
    if violation.contains("deliver p99") || violation.contains("sequence p99") {
        "latency"
    } else if violation.contains("recovered in") {
        "recovery"
    } else if violation.contains("did not finish") {
        "goodput"
    } else if violation.contains("gating stalls") {
        "gating"
    } else if violation.contains("watchdog") {
        "watchdog"
    } else {
        "other"
    }
}

/// The distinct SLO clauses behind a violation list, in first-seen
/// order (deterministic: violation order is fixed by [`SloSpec`]).
pub fn rejecting_clauses(violations: &[String]) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for v in violations {
        let c = slo_clause(v);
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// One searched operating point, fully judged.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// User count of this trial.
    pub users: u32,
    /// Messages the generators published (Σ `sent N`).
    pub offered: u64,
    /// Messages the sinks drained (Σ `got N`).
    pub delivered: u64,
    /// SLO violations from the fault-free run (empty = met).
    pub violations: Vec<String>,
    /// Chaos-oracle failures from the faulted run, when one ran.
    pub chaos_failures: Vec<String>,
    /// Whether the point is sustained: every driver finished, SLOs met,
    /// chaos oracle clean.
    pub pass: bool,
    /// The binding resource the utilization ledger named for this
    /// trial (`None` when nothing saturated).
    pub binding: Option<String>,
    /// The fault-free run's observability report, with
    /// [`WorkloadStats`] attached for rendering.
    pub report: Box<ObsReport>,
}

impl TrialOutcome {
    /// The distinct SLO clauses that rejected this point (empty for a
    /// passing trial): fault-free violations first, then chaos.
    pub fn rejected_by(&self) -> Vec<&'static str> {
        let mut out = rejecting_clauses(&self.violations);
        for c in rejecting_clauses(&self.chaos_failures) {
            let c = if c == "other" { "chaos" } else { c };
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }
}

/// A (shape × topology) search result.
#[derive(Debug, Clone)]
pub struct Knee {
    /// Workload-shape name.
    pub shape: String,
    /// Searched topology.
    pub topology: Topology,
    /// Max sustainable users (0 = even one user missed the SLOs).
    pub knee_users: u32,
    /// The binding resource at the knee: what the utilization ledger
    /// named on the first failing point past the knee (where the
    /// saturation actually shows), falling back to the knee trial.
    /// `None` when the search never failed or nothing saturated.
    pub binding: Option<String>,
    /// Every searched point, in search order.
    pub trials: Vec<TrialOutcome>,
}

impl Knee {
    /// The passing trial at the knee, if the knee is nonzero.
    pub fn knee_trial(&self) -> Option<&TrialOutcome> {
        self.trials
            .iter()
            .filter(|t| t.pass)
            .max_by_key(|t| t.users)
    }

    /// The lowest failing trial — the first point past the knee.
    pub fn failing_trial(&self) -> Option<&TrialOutcome> {
        self.trials
            .iter()
            .filter(|t| !t.pass)
            .min_by_key(|t| t.users)
    }
}

fn scenario(topology: Topology, spec: &WorkloadSpec, medium: Medium, tuning: &Tuning) -> Scenario {
    let mut s = Scenario::new(topology, spec.seed);
    s.medium = medium;
    s.tuning = tuning.clone();
    s
}

/// A schedule with no faults: drive to the workload horizon, heal
/// (a no-op), and run the grace period so the drivers finish.
fn empty_schedule(spec: &WorkloadSpec) -> FaultSchedule {
    FaultSchedule {
        workload_seed: spec.seed,
        horizon_ms: spec.horizon_ms,
        faults: Vec::new(),
    }
}

/// Parses `prefix N` totals out of client outputs.
fn sum_outputs(outputs: &[(publishing_demos::ids::ProcessId, Vec<String>)], prefix: &str) -> u64 {
    outputs
        .iter()
        .flat_map(|(_, lines)| lines)
        .filter_map(|l| l.strip_prefix(prefix))
        .filter_map(|n| n.trim().parse::<u64>().ok())
        .sum()
}

/// Clients whose last output line is not `done` — drivers the run
/// failed to bring to completion inside horizon + grace.
fn unfinished(outputs: &[(publishing_demos::ids::ProcessId, Vec<String>)]) -> Vec<String> {
    outputs
        .iter()
        .filter(|(_, lines)| lines.last().map(String::as_str) != Some("done"))
        .map(|(pid, _)| format!("client {pid} did not finish"))
        .collect()
}

/// Runs one operating point: the fault-free SLO trial, plus a faulted
/// trial through the chaos recovery oracle when `schedule` is given.
pub fn run_trial(
    topology: Topology,
    spec: &WorkloadSpec,
    slo: &SloSpec,
    medium: Medium,
    schedule: Option<&FaultSchedule>,
) -> TrialOutcome {
    run_trial_tuned(topology, spec, slo, medium, schedule, &Tuning::default())
}

/// [`run_trial`] with explicit physical-constant knobs — the what-if
/// profiler's entry point for re-searching under a virtual speedup.
pub fn run_trial_tuned(
    topology: Topology,
    spec: &WorkloadSpec,
    slo: &SloSpec,
    medium: Medium,
    schedule: Option<&FaultSchedule>,
    tuning: &Tuning,
) -> TrialOutcome {
    let compiled = CompiledWorkload::new(spec.clone());
    let scen = scenario(topology, spec, medium, tuning);

    // Fault-free run: offered/delivered accounting + SLO verdict.
    let mut world = scen.build_with(&compiled);
    run_schedule(world.as_mut(), &empty_schedule(spec));
    let outputs = world.client_outputs();
    let delivered = sum_outputs(&outputs, "got ");
    let offered = sum_outputs(&outputs, "sent ");
    let mut report = world.obs_report();
    let mut violations = unfinished(&outputs);
    violations.extend(slo.violations(&report));
    report.workload = Some(WorkloadStats {
        offered,
        delivered,
        offered_per_sec: offered as f64 * 1000.0 / spec.horizon_ms as f64,
        slo_violations: violations.clone(),
    });

    // Faulted run: same workload under a seeded schedule, judged by the
    // recovery oracle against its own fault-free baseline plus the
    // recovery-time/watchdog SLOs (latency objectives don't apply while
    // faults are being injected). Both runs of the pair use the perfect
    // bus: the recovery guarantee is specified over a reliable medium,
    // and a CSMA/CD frame abandoned after max collisions has no
    // retransmission story yet, so validating on the contended medium
    // would conflate MAC-layer loss with recovery defects.
    let mut chaos_failures = Vec::new();
    if let Some(sched) = schedule {
        let oracle_scen = scenario(topology, spec, Medium::Perfect, tuning);
        let baseline = if medium == Medium::Perfect {
            // The SLO run already is the fault-free perfect-bus run.
            Baseline {
                output_fp: world.output_fingerprint(),
                obs_fp: world.obs_fingerprint(),
                client_outputs: outputs,
                span_events: world.span_events(),
            }
        } else {
            let mut clean = oracle_scen.build_with(&compiled);
            run_schedule(clean.as_mut(), &empty_schedule(spec));
            Baseline {
                output_fp: clean.output_fingerprint(),
                obs_fp: clean.obs_fingerprint(),
                client_outputs: clean.client_outputs(),
                span_events: clean.span_events(),
            }
        };
        let mut faulted = oracle_scen.build_with(&compiled);
        run_schedule(faulted.as_mut(), sched);
        chaos_failures = oracle::check(faulted.as_ref(), &baseline, &OracleOptions::default());
        let recovery_slo = SloSpec {
            deliver_p99_us: u64::MAX,
            sequence_p99_us: u64::MAX,
            max_gating_stalls: u64::MAX,
            ..*slo
        };
        chaos_failures.extend(recovery_slo.violations(&faulted.obs_report()));
    }

    TrialOutcome {
        users: spec.users,
        offered,
        delivered,
        pass: violations.is_empty() && chaos_failures.is_empty(),
        binding: report
            .utilization
            .as_ref()
            .and_then(|u| u.binding())
            .map(|r| r.name.clone()),
        violations,
        chaos_failures,
        report: Box::new(report),
    }
}

/// The seeded fault schedule validating the point at `users`.
fn point_schedule(topology: Topology, spec: &WorkloadSpec) -> FaultSchedule {
    let (shards, replicas) = topology.width();
    publishing_chaos::schedule::generate(&publishing_chaos::ChaosConfig {
        seed: spec.seed.wrapping_add(spec.users as u64),
        nodes: publishing_chaos::NODES,
        shards,
        replicas,
        procs: spec.generators() + spec.subjects,
        horizon_ms: spec.horizon_ms,
        max_faults: 3,
    })
}

/// Binary-searches the capacity knee of `shape` on `topology`.
///
/// Doubles the user count from 1 until a point fails (or `max_users`
/// passes), then binary-searches the failing bracket. Every searched
/// point is a complete validated trial.
pub fn find_knee(
    shape: &str,
    topology: Topology,
    base: &WorkloadSpec,
    slo: &SloSpec,
    params: &SearchParams,
) -> Knee {
    let mut trials = Vec::new();
    let probe = |users: u32, trials: &mut Vec<TrialOutcome>| -> bool {
        let spec = base.clone().with_users(users);
        let sched = params.chaos.then(|| point_schedule(topology, &spec));
        let t = run_trial_tuned(
            topology,
            &spec,
            slo,
            params.medium,
            sched.as_ref(),
            &params.tuning,
        );
        let pass = t.pass;
        if params.verbose {
            if pass {
                eprintln!("knee[{shape}/{}] users={users}: PASS", topology.name());
            } else {
                // Name the clause that rejected the point — "the SLO
                // failed" hides whether latency, recovery, or goodput
                // was the wall — plus the first concrete violation and
                // the resource the ledger blames.
                eprintln!(
                    "knee[{shape}/{}] users={users}: FAIL clause={} binding={} ({})",
                    topology.name(),
                    t.rejected_by().join("+"),
                    t.binding.as_deref().unwrap_or("none"),
                    t.violations
                        .first()
                        .or_else(|| t.chaos_failures.first())
                        .map(String::as_str)
                        .unwrap_or("unspecified"),
                );
            }
        }
        trials.push(t);
        pass
    };

    // Exponential bracket.
    let (mut lo, mut hi) = (0u32, None::<u32>);
    let mut u = 1u32;
    loop {
        if probe(u, &mut trials) {
            lo = u;
            if u >= params.max_users {
                break;
            }
            u = (u * 2).min(params.max_users);
        } else {
            hi = Some(u);
            break;
        }
    }
    // Binary search inside (lo, hi).
    if let Some(mut hi) = hi {
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if probe(mid, &mut trials) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    // Attribute the knee: the first failing point past it carries the
    // ledger's binding-resource verdict; fall back to the knee trial
    // itself when nothing failed (search capped out while passing).
    let binding = trials
        .iter()
        .filter(|t| !t.pass)
        .min_by_key(|t| t.users)
        .and_then(|t| t.binding.clone())
        .or_else(|| {
            trials
                .iter()
                .filter(|t| t.pass)
                .max_by_key(|t| t.users)
                .and_then(|t| t.binding.clone())
        });

    Knee {
        shape: shape.to_string(),
        topology,
        knee_users: lo,
        binding,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_user_trial_passes_on_perfect_bus() {
        let spec = WorkloadSpec {
            users: 1,
            subjects: 1,
            rate_per_sec: 50,
            horizon_ms: 200,
            ..WorkloadSpec::default()
        };
        let t = run_trial(
            Topology::Single,
            &spec,
            &SloSpec::default(),
            Medium::Perfect,
            None,
        );
        assert!(t.pass, "violations: {:?}", t.violations);
        assert_eq!(t.offered, t.delivered);
        assert_eq!(t.offered, 10, "1 user × 50/s × 0.2 s");
        let w = t.report.workload.as_ref().unwrap();
        assert_eq!(w.offered, t.offered);
        assert!((w.goodput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn impossible_slo_yields_zero_knee() {
        let spec = WorkloadSpec {
            subjects: 1,
            horizon_ms: 100,
            ..WorkloadSpec::default()
        };
        let slo = SloSpec {
            deliver_p99_us: 0,
            ..SloSpec::default()
        };
        let knee = find_knee(
            "test",
            Topology::Single,
            &spec,
            &slo,
            &SearchParams {
                max_users: 4,
                chaos: false,
                medium: Medium::Perfect,
                ..SearchParams::default()
            },
        );
        assert_eq!(knee.knee_users, 0);
        assert_eq!(knee.trials.len(), 1, "u=1 fails, search stops");
        assert!(knee.knee_trial().is_none());
    }

    #[test]
    fn generous_slo_saturates_the_search_cap() {
        let spec = WorkloadSpec {
            subjects: 1,
            rate_per_sec: 5,
            horizon_ms: 100,
            ..WorkloadSpec::default()
        };
        let knee = find_knee(
            "test",
            Topology::Single,
            &spec,
            &SloSpec::default(),
            &SearchParams {
                max_users: 4,
                chaos: false,
                medium: Medium::Perfect,
                ..SearchParams::default()
            },
        );
        assert_eq!(knee.knee_users, 4, "perfect bus never degrades");
        assert_eq!(knee.knee_trial().unwrap().users, 4);
    }
}
