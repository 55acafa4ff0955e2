//! Workload engine: a scenario DSL and a closed-loop capacity search
//! over the recorder topologies.
//!
//! The paper's capacity experiment (§5.3, Fig 5.5) drives the published
//! ethernet with simulated users until message delivery degrades,
//! concluding the 1983 medium sustains ≈115 users. This crate
//! generalizes that experiment along both axes the rest of the
//! workspace opened up — *what load* and *which recorder tier*:
//!
//! - [`spec`]: the workload DSL. A [`WorkloadSpec`] is a compact,
//!   round-trippable literal (same idiom as
//!   [`publishing_chaos::FaultSchedule`]) describing offered load as a
//!   base operating point plus composable phases: diurnal rate curves,
//!   flash crowds, Zipf hotspot skew over subjects, stalled receivers,
//!   and checkpoint storms, over a message-size mix generalizing the
//!   paper's 128 B / 1024 B split.
//! - [`drivers`]: the compiled per-node publish drivers — deterministic
//!   [`publishing_demos::program::Program`]s (self-paced generators and
//!   counting sinks) that run identically on the single, sharded, and
//!   quorum worlds, and survive crash/recovery like any other process.
//! - [`compile`]: [`WorkloadSpec`] → [`CompiledWorkload`], a
//!   [`publishing_chaos::WorkloadSource`] any chaos scenario can spawn.
//! - [`capacity`]: the closed loop. [`find_knee`] binary-searches the
//!   user count against [`publishing_obs::slo::SloSpec`] verdicts (and,
//!   optionally, seeded fault schedules judged by the chaos recovery
//!   oracle), emitting the "capacity knee" — the modern analogue of the
//!   paper's 115-user result — per workload shape × topology.

#![warn(missing_docs)]

pub mod capacity;
pub mod compile;
pub mod drivers;
pub mod spec;
pub mod whatif;

pub use capacity::{
    find_knee, rejecting_clauses, run_trial, run_trial_tuned, slo_clause, Knee, SearchParams,
    TrialOutcome,
};
pub use compile::CompiledWorkload;
pub use drivers::{LoadGen, SubjectSink};
pub use spec::{canonical_shapes, Phase, WorkloadSpec};
pub use whatif::{knob_for_kind, predict_knee, run_whatif, standard_knobs, WhatIfKnob};
