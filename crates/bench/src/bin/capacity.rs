//! Capacity-knee explorer: the paper's Fig 5.5 experiment, generalized
//! across workload shapes and recorder topologies.
//!
//! Usage: `capacity [--seed N] [--smoke] [--medium M] [--max-users U]
//!                  [--spec S] [--topology T] [--no-chaos] [--json]`
//!
//! - `--seed N` — base seed for the canonical shapes (default 1);
//! - `--smoke` — quick run: two shapes, `--max-users 32`;
//! - `--medium M` — `ethernet` (the paper's, default) or `perfect`;
//! - `--max-users U` — search ceiling (default 256);
//! - `--no-chaos` — skip the per-point fault-schedule validation;
//! - `--json` — emit the sweep as one JSON object (shape × topology ×
//!   knee × the binding resource the utilization ledger named);
//! - `--spec S` — run a single trial of one workload literal instead of
//!   the shape sweep, print its verdict and report, and exit non-zero
//!   if the point is not sustained;
//! - `--topology T` — with `--spec`: `single` (default), `sharded`, or
//!   `quorum`.
//!
//! The default mode sweeps the canonical DSL shapes (diurnal, hotspot,
//! flash crowd, stalled receiver) over all three topologies and prints
//! one knee table: the largest user count each tier sustains within the
//! default SLOs, every searched point also validated by the chaos
//! recovery oracle. Knees are deterministic — the same build prints the
//! same table — and the perf matrix gates them via `bench_compare`.

use publishing_chaos::{Medium, Topology};
use publishing_obs::slo::SloSpec;
use publishing_workload::{canonical_shapes, find_knee, run_trial, SearchParams, WorkloadSpec};

fn usage() -> ! {
    eprintln!(
        "usage: capacity [--seed N] [--smoke] [--medium ethernet|perfect] \
         [--max-users U] [--no-chaos] [--json] [--spec S] \
         [--topology single|sharded|quorum]"
    );
    std::process::exit(2);
}

/// Runs one literal at face value on one topology: the single fully
/// judged operating point, verdict and workload accounting printed.
fn run_spec(literal: &str, topology: Topology, params: &SearchParams) -> Result<(), String> {
    let spec: WorkloadSpec = literal.parse()?;
    println!("spec: {spec}");
    let sched = params.chaos.then(|| {
        publishing_chaos::schedule::generate(&publishing_chaos::ChaosConfig {
            seed: spec.seed.wrapping_add(u64::from(spec.users)),
            nodes: publishing_chaos::NODES,
            shards: topology.width().0,
            replicas: topology.width().1,
            procs: spec.generators() + spec.subjects,
            horizon_ms: spec.horizon_ms,
            max_faults: 3,
        })
    });
    let t = run_trial(
        topology,
        &spec,
        &SloSpec::default(),
        params.medium,
        sched.as_ref(),
    );
    let w = t.report.workload.as_ref().expect("trial attaches stats");
    println!(
        "[{}] users={} offered={} delivered={} goodput={:.3} offered/s={:.1}",
        topology.name(),
        t.users,
        t.offered,
        t.delivered,
        w.goodput(),
        w.offered_per_sec
    );
    for v in &t.violations {
        println!("  slo: {v}");
    }
    for f in &t.chaos_failures {
        println!("  chaos: {f}");
    }
    if t.pass {
        println!("sustained");
        Ok(())
    } else {
        Err("operating point not sustained".into())
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sweeps `shapes` × the three topologies, emitting one JSON object:
/// shape × topology × knee × the binding resource the utilization
/// ledger named for it.
fn sweep_json(shapes: &[(&'static str, WorkloadSpec)], params: &SearchParams) {
    let mut rows = Vec::new();
    for (name, spec) in shapes {
        for topo in [Topology::Single, Topology::Sharded, Topology::Quorum] {
            let knee = find_knee(name, topo, spec, &SloSpec::default(), params);
            let clauses = knee
                .failing_trial()
                .map(|t| {
                    t.rejected_by()
                        .iter()
                        .map(|c| json_str(c))
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .unwrap_or_default();
            rows.push(format!(
                "{{\"shape\":{},\"topology\":{},\"knee_users\":{},\"binding\":{},\"rejected_by\":[{}],\"trials\":{}}}",
                json_str(name),
                json_str(topo.name()),
                knee.knee_users,
                knee.binding
                    .as_deref()
                    .map(json_str)
                    .unwrap_or_else(|| "null".into()),
                clauses,
                knee.trials.len(),
            ));
        }
    }
    println!(
        "{{\"medium\":{},\"max_users\":{},\"chaos\":{},\"knees\":[{}]}}",
        json_str(match params.medium {
            Medium::Perfect => "perfect",
            Medium::Ethernet => "ethernet",
        }),
        params.max_users,
        params.chaos,
        rows.join(",")
    );
}

/// Sweeps `shapes` × the three topologies and prints the knee table.
fn sweep(shapes: &[(&'static str, WorkloadSpec)], params: &SearchParams) {
    println!(
        "capacity knees (medium={}, max_users={}, chaos={})",
        match params.medium {
            Medium::Perfect => "perfect",
            Medium::Ethernet => "ethernet",
        },
        params.max_users,
        if params.chaos { "on" } else { "off" }
    );
    println!(
        "{:<18} {:<8} {:>5} {:>7} {:>9} {:>10} {:>8} {:<14}",
        "shape", "topology", "knee", "trials", "offered", "delivered", "goodput", "binding"
    );
    for (name, spec) in shapes {
        for topo in [Topology::Single, Topology::Sharded, Topology::Quorum] {
            let knee = find_knee(name, topo, spec, &SloSpec::default(), params);
            let (offered, delivered, goodput) = knee
                .knee_trial()
                .map(|t| {
                    let g = if t.offered == 0 {
                        0.0
                    } else {
                        t.delivered as f64 / t.offered as f64
                    };
                    (t.offered, t.delivered, g)
                })
                .unwrap_or((0, 0, 0.0));
            println!(
                "{:<18} {:<8} {:>5} {:>7} {:>9} {:>10} {:>8.3} {:<14}",
                name,
                topo.name(),
                knee.knee_users,
                knee.trials.len(),
                offered,
                delivered,
                goodput,
                knee.binding.as_deref().unwrap_or("-")
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 1u64;
    let mut smoke = false;
    let mut json = false;
    let mut literal = None;
    let mut topology = Topology::Single;
    let mut params = SearchParams::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().map(|v| v.parse()) {
                Some(Ok(v)) => seed = v,
                _ => usage(),
            },
            "--smoke" => smoke = true,
            "--medium" => match it.next().map(String::as_str) {
                Some("ethernet") => params.medium = Medium::Ethernet,
                Some("perfect") => params.medium = Medium::Perfect,
                _ => usage(),
            },
            "--max-users" => match it.next().map(|v| v.parse()) {
                Some(Ok(v)) => params.max_users = v,
                _ => usage(),
            },
            "--no-chaos" => params.chaos = false,
            "--json" => json = true,
            "--spec" => match it.next() {
                Some(v) => literal = Some(v.clone()),
                None => usage(),
            },
            "--topology" => match it.next().map(String::as_str) {
                Some("single") => topology = Topology::Single,
                Some("sharded") => topology = Topology::Sharded,
                Some("quorum") => topology = Topology::Quorum,
                _ => usage(),
            },
            _ => usage(),
        }
    }

    if let Some(lit) = literal {
        if let Err(e) = run_spec(&lit, topology, &params) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }

    let mut shapes = canonical_shapes(seed);
    if smoke {
        params.max_users = params.max_users.min(32);
        shapes.truncate(2);
    }
    if json {
        sweep_json(&shapes, &params);
    } else {
        sweep(&shapes, &params);
    }
}
