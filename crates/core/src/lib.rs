//! Published communications (Presotto, 1983): transparent recovery for
//! message-based distributed systems via a passive broadcast recorder.
//!
//! The model (§3.1): a reliable recorder publishes every message sent to
//! every process, plus per-process checkpoints. A crashed process is
//! recovered by restarting it at a checkpoint, replaying its published
//! messages in original order, and suppressing the messages it re-sends.
//! Determinism does the rest.
//!
//! - [`recorder`]: the passive capture pipeline and process database;
//! - [`manager`]: watchdog crash detection and the recovery jobs;
//! - [`node`]: the recording node tying recorder, manager, transport and
//!   checkpoint policy together;
//! - [`checkpoint`]: checkpoint policies (periodic, storage-balancing,
//!   Young's optimum, bounded recovery time);
//! - [`recovery_time`]: the §3.2.3 t_max bound (Figure 3.1);
//! - [`cluster`]: the one simulation driver — nodes, a recording tier
//!   and a LAN in one event loop, generic over the tier;
//! - [`world`]: the single-recorder tier (nodes + recorder + LAN);
//! - [`multi`]: multiple recorders with §6.3 priority-vector failover;
//! - [`live`]: the same state machines on real threads and wall-clock
//!   time (crossbeam channels as the medium);
//! - [`debugger`]: §6.5 time-travel debugging over published history;
//! - [`transactions`]: §6.4 two-phase commit with the recorder as the
//!   only stable store;
//! - [`node_recovery`]: §6.6.2 node-as-unit recovery with the
//!   deterministic scheduler and instruction-count synchronization;
//! - [`baseline`]: Chapter 2 comparators (recovery lines with the domino
//!   effect, shadow processes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod checkpoint;
pub mod cluster;
pub mod debugger;
pub mod live;
pub mod manager;
pub mod multi;
pub mod node;
pub mod node_recovery;
pub mod obs;
pub mod recorder;
pub mod recovery_time;
pub mod transactions;
pub mod world;

pub use checkpoint::{young_interval, young_overhead, CheckpointPolicy};
pub use cluster::{Cluster, RecorderTier, TierStation};
pub use debugger::ReplayDebugger;
pub use live::{LiveBuilder, LiveSystem};
pub use manager::{ManagerConfig, MgrCmd, RecoveryManager};
pub use multi::{MultiTier, MultiWorld, PriorityVectors};
pub use node::{RNAction, RecorderConfig, RecorderNode};
pub use recorder::{ProcessEntry, PublishCost, Recorder, RecorderStats};
pub use recovery_time::{LoadParams, RecoveryEstimator};
pub use world::{SingleTier, World, WorldBuilder};
