//! Causal explorer over the published log: happens-before chains,
//! recovery critical path, and replay-divergence diffing.
//!
//! Drives the same deterministic crash/recovery scenario as
//! `obs_report` — echo servers on one node, ping clients elsewhere, the
//! server node crashed mid-run and recovered in parallel by the
//! responsible shards — builds the happens-before DAG from every
//! component's span log, and answers three questions:
//!
//! 1. **explain** — for a message key, the full causal chain from its
//!    publish back through program order, capture, sequencing, and
//!    delivery, with the virtual-time slack spent on every hop;
//! 2. **critical path** — the longest weighted chain from the crash to
//!    convergence, each segment attributed to a recovery stage
//!    (checkpoint load, replay, suppression, re-sequencing, delivery);
//! 3. **divergence diff** — align this run's span stream against the
//!    fault-free baseline of the same workload and pinpoint the first
//!    event where they part ways, with its causal ancestors.
//!
//! Usage: `explain [--smoke] [--key NODE.LOCAL#SEQ] [--dot PATH]
//! [--flow PATH] [--diff] [--quorum]`
//!
//! - `--key K` explains message `K` (default: the latest suppressed or
//!   delivered message of the run);
//! - `--dot PATH` writes the DAG as Graphviz DOT;
//! - `--flow PATH` writes the Chrome-trace timeline with flow arrows
//!   (send→deliver, replay→suppress) for Perfetto;
//! - `--diff` prints the first causal divergence against the fault-free
//!   baseline (expected: the crash's first replay);
//! - `--smoke` runs the CI gate: the critical path must be non-empty
//!   and its attribution must sum to the measured recovery lag, the
//!   explain chain must be non-empty, and the DOT and flow exports must
//!   be byte-identical across two runs;
//! - `--quorum` switches to the replicated-recorder world and the
//!   committed leader-crash schedule (leader replica dies at 250ms, the
//!   server node at 400ms): the crash→convergence critical path must
//!   then cross an election-gate edge, attributing part of the recovery
//!   window to the leader failover itself.

use publishing_demos::ids::Channel;
use publishing_demos::link::Link;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_obs::causal::{CausalGraph, EdgeKind};
use publishing_obs::span::{MsgKey, Stage};
use publishing_perf::trace;
use publishing_quorum::QuorumWorld;
use publishing_shard::ShardedWorld;
use publishing_sim::time::SimTime;

fn registry(pings: u64) -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("pinger", move || {
        let mut p = PingClient::new(pings);
        p.think_ns = 2_000_000;
        Box::new(p)
    });
    reg
}

/// Runs the canonical crash/recovery scenario (crash omitted for the
/// fault-free baseline used by `--diff`).
fn run_scenario(pings: u64, pairs: u32, horizon: SimTime, crash: bool) -> ShardedWorld {
    let mut w = ShardedWorld::new(3, 4, registry(pings));
    for i in 0..pairs {
        let server = w.spawn(2, "echo", vec![]).expect("echo registered");
        w.spawn(i % 2, "pinger", vec![Link::to(server, Channel::DEFAULT, 7)])
            .expect("pinger registered");
    }
    if crash {
        w.run_until(SimTime::from_millis(50));
        w.crash_node(2);
    }
    w.run_until(horizon);
    w
}

/// The Chrome-trace export of a world's span logs, in the same
/// component order as `Cluster::span_logs()`.
fn flow_trace(w: &ShardedWorld) -> trace::ChromeTrace {
    let mut components = Vec::new();
    for (n, k) in &w.kernels {
        components.push((format!("node {n} kernel"), k.spans()));
    }
    for (i, rn) in w.shards.iter().enumerate() {
        components.push((format!("shard {i} recorder"), rn.recorder().spans()));
    }
    trace::from_spans(&components)
}

/// Picks the most interesting default key: the latest suppressed
/// message if the run recovered anything, else the latest delivery.
fn default_key(g: &CausalGraph) -> Option<MsgKey> {
    for want in [Stage::Suppress, Stage::Deliver, Stage::Publish] {
        if let Some(e) = g.events().iter().rev().find(|e| e.stage == want) {
            return Some(e.key);
        }
    }
    None
}

fn fail(msg: &str) -> ! {
    eprintln!("explain: {msg}");
    std::process::exit(1);
}

/// The committed leader-crash schedule of the `quorum` gate: traffic
/// starts, the leader replica dies at 250ms (forcing an election), the
/// server node dies at 400ms (forcing a replay under the new leader).
fn run_quorum_scenario(horizon: SimTime) -> QuorumWorld {
    let mut w = QuorumWorld::new(2, 3, registry(10));
    let server = w.spawn(1, "echo", vec![]).expect("echo registered");
    w.spawn(0, "pinger", vec![Link::to(server, Channel::DEFAULT, 7)])
        .expect("pinger registered");
    w.run_until(SimTime::from_millis(250));
    if let Some(leader) = w.leader() {
        w.crash_replica(leader);
    }
    w.run_until(SimTime::from_millis(400));
    w.crash_node(1);
    w.run_until(horizon);
    w
}

/// Explains the leader-failover recovery of the quorum world: builds
/// the happens-before DAG (including election-gate edges), attributes
/// the crash→convergence critical path, and — under `--smoke` — gates
/// on the election hop actually appearing in the attribution.
fn run_quorum_mode(smoke: bool, dot_path: Option<&str>) {
    let horizon = SimTime::from_secs(12);
    let w = run_quorum_scenario(horizon);
    let g = w.causal_graph();
    if let Err(e) = g.validate() {
        fail(&format!("quorum causal graph failed validation: {e}"));
    }
    let elect_gates = g
        .edges()
        .iter()
        .filter(|e| e.kind == EdgeKind::ElectGate)
        .count();
    println!(
        "causal graph: {} events, {} edges ({} election gates) over {} logs",
        g.len(),
        g.edges().len(),
        elect_gates,
        w.span_logs().len()
    );
    if smoke && elect_gates == 0 {
        fail("failover run built no election-gate edges");
    }

    let Some((crash, conv)) = w.recovery_window() else {
        fail("quorum run produced no recovery window");
    };
    let Some(cp) = g.critical_path(crash, conv, None) else {
        fail("quorum run produced no critical path");
    };
    println!("\n{}", cp.render());
    let measured = conv.saturating_since(crash);
    if cp.total() != measured {
        fail(&format!(
            "critical-path attribution {:.3}ms does not sum to measured recovery lag {:.3}ms",
            cp.total().as_millis_f64(),
            measured.as_millis_f64()
        ));
    }
    let election = cp
        .by_stage()
        .into_iter()
        .find(|e| e.0 == "election")
        .map(|e| e.1);
    match election {
        Some(d) => println!(
            "election hop: {:.3}ms of the {:.3}ms crash→convergence window went to leader failover",
            d.as_millis_f64(),
            measured.as_millis_f64()
        ),
        None if smoke => fail("critical path did not attribute an election hop"),
        None => println!("no election hop on the critical path"),
    }

    if let Some(path) = dot_path {
        if let Err(e) = std::fs::write(path, g.to_dot()) {
            fail(&format!("cannot write {path}: {e}"));
        }
        eprintln!("dot: {} nodes -> {path}", g.len());
    }

    if smoke {
        let again = run_quorum_scenario(horizon);
        if g.to_dot() != again.causal_graph().to_dot() {
            fail("quorum DOT export is not byte-stable across two runs");
        }
        if w.recoveries_done().is_empty() {
            fail("quorum smoke run completed no recoveries");
        }
        eprintln!(
            "explain quorum smoke: all gates green ({} recoveries, election hop attributed)",
            w.recoveries_done().len()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: explain [--smoke] [--key NODE.LOCAL#SEQ] [--dot PATH] [--flow PATH] \
                 [--diff] [--quorum]";
    let mut smoke = false;
    let mut diff = false;
    let mut quorum = false;
    let mut key: Option<MsgKey> = None;
    let mut dot_path: Option<String> = None;
    let mut flow_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--diff" => diff = true,
            "--quorum" => quorum = true,
            "--key" | "--dot" | "--flow" => {
                let flag = args[i].clone();
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("{flag} needs a value; {usage}");
                    std::process::exit(2);
                };
                match flag.as_str() {
                    "--key" => match v.parse::<MsgKey>() {
                        Ok(k) => key = Some(k),
                        Err(e) => {
                            eprintln!("bad --key {v:?}: {e}");
                            std::process::exit(2);
                        }
                    },
                    "--dot" => dot_path = Some(v.clone()),
                    _ => flow_path = Some(v.clone()),
                }
            }
            bad => {
                eprintln!("unknown argument {bad:?}; {usage}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if quorum {
        run_quorum_mode(smoke, dot_path.as_deref());
        return;
    }

    let (pings, pairs, horizon) = if smoke {
        (10u64, 2u32, SimTime::from_secs(20))
    } else {
        (25u64, 4u32, SimTime::from_secs(40))
    };

    let w = run_scenario(pings, pairs, horizon, true);
    let g = w.causal_graph();
    if let Err(e) = g.validate() {
        fail(&format!("causal graph failed validation: {e}"));
    }
    println!(
        "causal graph: {} events, {} edges over {} logs",
        g.len(),
        g.edges().len(),
        w.span_logs().len()
    );

    // 1. Explain: the requested (or most interesting) message's chain.
    let key = key.or_else(|| default_key(&g));
    let explanation = key.and_then(|k| g.explain(k));
    match (&key, &explanation) {
        (Some(k), Some(ex)) => {
            println!("\n{}", ex.render());
            if smoke && ex.chain.is_empty() {
                fail(&format!("explain {k} produced an empty causal chain"));
            }
        }
        (Some(k), None) => {
            if smoke {
                fail(&format!("no events recorded for key {k}"));
            }
            println!("\nno events recorded for key {k}");
        }
        (None, _) => fail("run recorded no span events at all"),
    }

    // 2. Critical path: crash → convergence, attributed per stage.
    let window = w.recovery_window();
    let cp = window.and_then(|(crash, conv)| g.critical_path(crash, conv, None));
    match (&window, &cp) {
        (Some((crash, conv)), Some(cp)) => {
            println!("\n{}", cp.render());
            let measured = conv.saturating_since(*crash);
            if cp.total() != measured {
                fail(&format!(
                    "critical-path attribution {:.3}ms does not sum to measured recovery lag {:.3}ms",
                    cp.total().as_millis_f64(),
                    measured.as_millis_f64()
                ));
            }
            println!(
                "attribution check: {} segments sum to {:.3}ms == measured crash→convergence window",
                cp.segments.len(),
                measured.as_millis_f64()
            );
        }
        _ if smoke => fail("smoke run produced no recovery window / critical path"),
        _ => println!("\nno completed recovery; no critical path to attribute"),
    }

    // 3. Divergence diff against the fault-free baseline.
    if diff || smoke {
        let baseline = run_scenario(pings, pairs, horizon, false);
        let bg = baseline.causal_graph();
        match publishing_obs::divergence_diff(&bg, &g) {
            Some(d) => {
                println!("\nfirst divergence vs fault-free baseline:\n{}", d.render());
            }
            None => {
                // A crashed run must diverge from its fault-free twin.
                if smoke {
                    fail("crashed run's span stream is identical to the fault-free baseline");
                }
                println!("\nno divergence vs fault-free baseline");
            }
        }
    }

    if let Some(path) = &dot_path {
        if let Err(e) = std::fs::write(path, g.to_dot()) {
            fail(&format!("cannot write {path}: {e}"));
        }
        eprintln!("dot: {} nodes -> {path}", g.len());
    }
    if let Some(path) = &flow_path {
        let t = flow_trace(&w);
        if let Err(e) = std::fs::write(path, t.to_json()) {
            fail(&format!("cannot write {path}: {e}"));
        }
        eprintln!(
            "flow trace: {} events ({} flow endpoints) -> {path}",
            t.events.len(),
            t.count_phase('s') + t.count_phase('f')
        );
    }

    // Smoke gate: DOT and Chrome-trace flow exports must be
    // byte-identical across two fresh runs of the same seed.
    if smoke {
        let again = run_scenario(pings, pairs, horizon, true);
        let g2 = again.causal_graph();
        if g.to_dot() != g2.to_dot() {
            fail("DOT export is not byte-stable across two runs");
        }
        if flow_trace(&w).to_json() != flow_trace(&again).to_json() {
            fail("Chrome-trace flow export is not byte-stable across two runs");
        }
        // Per-process attribution must telescope too.
        for lag in w.recovery_lags() {
            if lag.recovery_ms > 0.0 && (lag.critical_path_ms - lag.recovery_ms).abs() > 1e-6 {
                fail(&format!(
                    "pid {}: critical_path_ms {} != recovery_ms {}",
                    lag.subject, lag.critical_path_ms, lag.recovery_ms
                ));
            }
        }
        let recovered = w.recoveries_done().len();
        if recovered == 0 {
            fail("smoke run completed no recoveries");
        }
        eprintln!("explain smoke: all gates green ({recovered} recoveries attributed)");
    }
}
