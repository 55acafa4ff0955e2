//! Deterministic discrete-event simulation substrate for the PUBLISHING
//! reproduction.
//!
//! This crate provides the virtual-time machinery every other crate in the
//! workspace builds on:
//!
//! - [`time`]: integer-nanosecond virtual instants and durations;
//! - [`event`]: a totally ordered, cancellable event queue with a clock;
//! - [`rng`]: self-contained deterministic PRNG and the distributions the
//!   evaluation workloads need;
//! - [`codec`]: an explicit binary codec for checkpoints and wire messages;
//! - [`stats`]: counters, summaries, histograms, and the time-weighted
//!   utilization integrator behind Figure 5.5;
//! - [`ledger`]: typed-resource busy timelines, queue-occupancy gauges,
//!   and the binding-resource ranking behind the capacity lens;
//! - [`fnv`]: the one FNV-1a hash behind every fingerprint and the
//!   stable cell's record checksum;
//! - [`fault`]: crash schedules and message-fault probabilities.
//!
//! Nothing here knows about networks, kernels, or recorders; those live in
//! `publishing-net`, `publishing-demos`, and `publishing-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod event;
pub mod fault;
pub mod fnv;
pub mod ledger;
pub mod rng;
pub mod stats;
pub mod time;

pub use codec::{CodecError, Decode, Decoder, Encode, Encoder};
pub use event::{EventId, Scheduler};
pub use fault::{Crash, CrashTarget, FaultPlan};
pub use ledger::{LevelGauge, ResourceKind, ResourceUsage, Timeline};
pub use rng::DetRng;
pub use stats::{Counter, LinearHistogram, LogHistogram, Summary, Utilization};
pub use time::{SimDuration, SimTime};
