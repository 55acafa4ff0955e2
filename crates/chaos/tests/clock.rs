//! One clock rule on every tier: running to a deadline leaves the clock
//! at the deadline, whether or not an event falls exactly on it.

use publishing_chaos::scenario::{PingEcho, Topology, WorkloadSource, NODES};
use publishing_core::multi::MultiWorld;
use publishing_core::world::WorldBuilder;
use publishing_quorum::QuorumWorld;
use publishing_shard::ShardedWorld;
use publishing_sim::event::FaultClock;
use publishing_sim::time::SimTime;

/// Deadlines off every timer grid, so no event lands on them.
const FIRST: SimTime = SimTime::from_nanos(1_234_567_891);
const FAULT: SimTime = SimTime::from_nanos(1_700_000_003);
const SECOND: SimTime = SimTime::from_nanos(2_345_678_901);

fn registry() -> publishing_demos::registry::ProgramRegistry {
    PingEcho {
        topology: Topology::Sharded,
        pairs: 1,
        pings: 4,
        seed: 1,
    }
    .registry()
}

/// Checks `run_until` and a `run_until_or_fault` that first pauses at a
/// fault instant and then returns `None`.
macro_rules! check {
    ($name:expr, $world:expr) => {{
        let mut w = $world;
        w.run_until(FIRST);
        assert_eq!(w.now(), FIRST, "{}: run_until", $name);
        w.set_fault_clock(FaultClock::new(vec![FAULT]));
        assert_eq!(w.run_until_or_fault(SECOND), Some(FAULT), "{}", $name);
        assert_eq!(w.now(), FAULT, "{}: paused at the fault", $name);
        assert_eq!(w.run_until_or_fault(SECOND), None, "{}", $name);
        assert_eq!(w.now(), SECOND, "{}: run_until_or_fault", $name);
    }};
}

#[test]
fn every_tier_advances_its_clock_to_the_deadline() {
    check!(
        "single",
        WorldBuilder::new(NODES).registry(registry()).build()
    );
    check!("multi", MultiWorld::new(NODES, 2, registry()));
    check!("sharded", ShardedWorld::new(NODES, 3, registry()));
    check!("quorum", QuorumWorld::new(NODES, 3, registry()));
}
