//! Unified observability layer for the PUBLISHING reproduction.
//!
//! The paper's claims are claims about *message lifecycles* (publish →
//! recorder-ack → deliver, and on a crash, replay and resend-suppression)
//! and *subsystem load* (recorder service time, medium utilization, disk
//! busy time). This crate gives every other crate one deterministic way to
//! observe both:
//!
//! - [`span`]: structured lifecycle events keyed by message id, recorded
//!   into bounded per-component logs whose running fingerprint is a
//!   determinism oracle over typed lifecycle events;
//! - [`causal`]: the happens-before DAG assembled from the span logs,
//!   with three query surfaces (explain a message's causal chain,
//!   attribute a recovery's critical path, pinpoint the first divergent
//!   event between two runs) and deterministic DOT export;
//! - [`forensics`]: the differential-diagnosis types (ranked suspects
//!   per finding) that regression forensics attaches to a report;
//! - [`registry`]: a hierarchical, path-keyed metrics registry with
//!   snapshot/delta semantics and JSON-lines export, populated from the
//!   existing `Counter`/`Summary`/`LogHistogram`/`Utilization`
//!   instruments so benches and `paper_tables` share one source of truth;
//! - [`probe`]: derived health probes — recovery lag, shard-tier health,
//!   quorum-replica health, and medium utilization;
//! - [`profile`]: virtual-time attribution per event category and
//!   per-lifecycle-stage latency histograms;
//! - [`report`]: the `obs_report` run artifact, rendered as text or JSON;
//! - [`util`]: the capacity-lens sections — the typed resource
//!   utilization ledger with binding-resource ranking, queueing-model
//!   cross-validation rows, and what-if (virtual speedup) results;
//! - [`store`]: the columnar (struct-of-arrays, delta-encoded, interned)
//!   storage engine behind [`span::SpanLog`], plus the row-oriented
//!   reference log it is verified against;
//! - [`watchdog`]: the always-on invariant watchdog — online safety and
//!   liveness oracles (arrival-seq gap freedom, commit-index
//!   monotonicity, leaderless-stall deadlines) any world can feed.
//!
//! Dependency discipline: this crate sits *below* demos/core/shard (which
//! all record into it), so it speaks only in packed `u64` process ids and
//! `(sender, seq)` message keys — never in `publishing_demos` types.
//! Everything here is deterministic: no wall clocks, no global state, no
//! interior mutability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod forensics;
pub mod probe;
pub mod profile;
pub mod registry;
pub mod report;
pub mod slo;
pub mod span;
pub mod store;
pub mod util;
pub mod watchdog;

pub use causal::{
    align_paths, divergence_diff, AlignedHop, CausalGraph, CriticalPath, Divergence, EdgeKind,
    Explanation, HopStatus, PathAlignment,
};
pub use forensics::{Finding, ForensicsReport, Suspect, SuspectKind};
pub use probe::{MediumHealth, QuorumHealth, RecoveryLag, ShardHealth};
pub use profile::{StageLatencies, TimeProfile};
pub use registry::{MetricValue, MetricsRegistry};
pub use report::{ConsensusStats, ObsReport, WatchdogSummary, WorkloadStats};
pub use slo::SloSpec;
pub use span::{MessageSpan, MsgKey, SpanEvent, SpanLog, Stage, DEFAULT_SPAN_CAPACITY};
pub use store::{Interner, RowSpanLog, SampleSpec};
pub use util::{UtilizationReport, WhatIfReport, WhatIfRow, XvalRow};
pub use watchdog::{Watchdog, WatchdogConfig};
