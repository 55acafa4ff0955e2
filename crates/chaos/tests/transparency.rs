//! Cross-tier transparency: recovery is transparent only if application
//! outputs depend on programs and inputs alone, never on which recorder
//! tier captured the traffic. One spawn plan runs fault-free and with
//! one fixed node crash on every tier; every run must print the same
//! deduplicated output.

use publishing_chaos::scenario::{PingEcho, PlanSpawn, Topology, WorkloadSource, NODES};
use publishing_core::multi::MultiWorld;
use publishing_core::world::WorldBuilder;
use publishing_demos::ids::ProcessId;
use publishing_demos::link::Link;
use publishing_quorum::QuorumWorld;
use publishing_shard::ShardedWorld;
use publishing_sim::time::SimTime;

/// Long enough for every tier, quorum included, to finish recovering.
const HORIZON: SimTime = SimTime::from_secs(30);
/// The fixed fault: the node hosting every echo server, mid-run.
const CRASH: (SimTime, u32) = (SimTime::from_millis(40), 2);

fn source() -> PingEcho {
    PingEcho {
        topology: Topology::Sharded,
        pairs: 2,
        pings: 8,
        seed: 3,
    }
}

/// Spawns `plan` in order, resolving plan links to pids; returns the
/// clients' pids.
fn spawn_plan(
    plan: &[PlanSpawn],
    mut spawn: impl FnMut(u32, &str, Vec<Link>) -> ProcessId,
) -> Vec<ProcessId> {
    let mut pids: Vec<ProcessId> = Vec::new();
    let mut clients = Vec::new();
    for s in plan {
        let links = s
            .links
            .iter()
            .map(|l| Link::to(pids[l.target], l.channel, l.code))
            .collect();
        let pid = spawn(s.node % NODES, &s.program, links);
        pids.push(pid);
        if s.client {
            clients.push(pid);
        }
    }
    clients
}

/// Runs the plan on a freshly built world, optionally crashing
/// [`CRASH`], and returns `(fingerprint, clients all printed "done")`.
macro_rules! run {
    ($world:expr, $crash:expr) => {{
        let plan = source().plan();
        let mut w = $world;
        let clients = spawn_plan(&plan, |n, p, l| w.spawn(n, p, l).expect("spawn"));
        if $crash {
            w.run_until(CRASH.0);
            w.crash_node(CRASH.1);
        }
        w.run_until(HORIZON);
        let done = clients
            .iter()
            .all(|&c| w.outputs_of(c).last().map(String::as_str) == Some("done"));
        (w.output_fingerprint(), done)
    }};
}

fn every_tier(crash: bool) -> Vec<(&'static str, (u64, bool))> {
    let reg = || source().registry();
    vec![
        (
            "single",
            run!(WorldBuilder::new(NODES).registry(reg()).build(), crash),
        ),
        ("multi/2", run!(MultiWorld::new(NODES, 2, reg()), crash)),
        ("sharded/1", run!(ShardedWorld::new(NODES, 1, reg()), crash)),
        ("sharded/3", run!(ShardedWorld::new(NODES, 3, reg()), crash)),
        ("quorum/1", run!(QuorumWorld::new(NODES, 1, reg()), crash)),
        ("quorum/3", run!(QuorumWorld::new(NODES, 3, reg()), crash)),
    ]
}

#[test]
fn outputs_are_identical_on_every_tier_with_and_without_a_node_crash() {
    let clean = every_tier(false);
    let crashed = every_tier(true);
    let reference = clean[0].1 .0;
    for (name, (fp, done)) in clean.iter().chain(&crashed) {
        assert!(done, "{name}: a client did not finish");
        assert_eq!(
            *fp, reference,
            "{name}: output fingerprint {fp:#x} differs from the single-recorder fault-free run {reference:#x}"
        );
    }
}
