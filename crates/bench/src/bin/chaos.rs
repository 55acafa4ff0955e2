//! Chaos gate: seeded fault schedules against the single, sharded, and
//! quorum recorder topologies, with automatic shrinking of any failure
//! to a replayable minimal reproducer.
//!
//! Usage: `chaos [--seed N] [--schedules K] [--smoke] [--schedule S]`
//!
//! - `--seed N` — base seed for schedule generation (default 1);
//! - `--schedules K` — schedules per topology (default 25);
//! - `--smoke` — small CI run (5 schedules per topology);
//! - `--schedule S` — replay one schedule literal (as printed for a
//!   minimized reproducer) instead of generating; runs on the single
//!   world unless the literal contains sharded or replica faults.
//!
//! Exit status is non-zero if any schedule fails its oracle; the
//! failing schedule is shrunk first and the minimal reproducer printed
//! as a `--schedule` literal.

use publishing_chaos::driver::Engine;
use publishing_chaos::oracle::OracleOptions;
use publishing_chaos::scenario::{Scenario, Topology, NODES};
use publishing_chaos::schedule::{self, ChaosConfig, Fault, FaultSchedule};

fn usage() -> ! {
    eprintln!("usage: chaos [--seed N] [--schedules K] [--smoke] [--schedule S]");
    std::process::exit(2);
}

fn run_suite(topology: Topology, seed: u64, schedules: u64) -> Result<(), String> {
    let name = topology.name();
    let (shards, replicas) = topology.width();
    let eng = Engine::new(Scenario::new(topology, seed), OracleOptions::default())
        .map_err(|e| format!("[{name}] baseline: {e}"))?;
    for k in 0..schedules {
        let sched = schedule::generate(&ChaosConfig {
            seed: seed.wrapping_mul(1000).wrapping_add(k),
            nodes: NODES,
            shards,
            replicas,
            procs: 4,
            horizon_ms: 1500,
            max_faults: 7,
        });
        let failures = eng.run(&sched);
        if failures.is_empty() {
            println!("[{name}] schedule {k}: ok ({} faults)", sched.faults.len());
            continue;
        }
        println!("[{name}] schedule {k}: FAILED");
        for f in &failures {
            println!("  - {f}");
        }
        println!("[{name}] shrinking...");
        let min = eng.shrink(&sched);
        return Err(format!(
            "[{name}] minimal reproducer ({} faults), replay with:\n  \
             chaos --schedule '{min}'",
            min.faults.len()
        ));
    }
    println!("[{name}] {schedules} schedules passed");
    Ok(())
}

fn replay(lit: &str) -> Result<(), String> {
    let sched: FaultSchedule = lit.parse()?;
    let quorum = sched
        .faults
        .iter()
        .any(|f| matches!(f, Fault::CrashReplica { .. } | Fault::RestartReplica { .. }));
    let sharded = sched.faults.iter().any(|f| {
        matches!(f, Fault::AddShard { .. })
            || matches!(f, Fault::CrashRecorder { shard, .. } | Fault::RestartRecorder { shard, .. } if *shard > 0)
    });
    let topology = if quorum {
        Topology::Quorum
    } else if sharded {
        Topology::Sharded
    } else {
        Topology::Single
    };
    let eng = Engine::new(
        Scenario::new(topology, sched.workload_seed),
        OracleOptions::default(),
    )
    .map_err(|e| format!("baseline: {e}"))?;
    let failures = eng.run(&sched);
    if failures.is_empty() {
        println!("schedule passed: {sched}");
        Ok(())
    } else {
        println!("schedule FAILED: {sched}");
        for f in &failures {
            println!("  - {f}");
        }
        Err("schedule failed its oracle".into())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 1u64;
    let mut schedules = 25u64;
    let mut literal = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().map(|v| v.parse()) {
                Some(Ok(v)) => seed = v,
                _ => usage(),
            },
            "--schedules" => match it.next().map(|v| v.parse()) {
                Some(Ok(v)) => schedules = v,
                _ => usage(),
            },
            "--smoke" => schedules = 5,
            "--schedule" => match it.next() {
                Some(v) => literal = Some(v.clone()),
                None => usage(),
            },
            _ => usage(),
        }
    }

    let result = if let Some(lit) = literal {
        replay(&lit)
    } else {
        run_suite(Topology::Single, seed, schedules)
            .and_then(|()| run_suite(Topology::Sharded, seed, schedules))
            .and_then(|()| run_suite(Topology::Quorum, seed, schedules))
    };
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
