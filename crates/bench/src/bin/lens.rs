//! Capacity lens: where did the knee come from, and what would move it?
//!
//! Usage: `lens [--medium ethernet|perfect|both] [--topology T]
//!              [--spec S] [--max-users U] [--chaos] [--confirm]
//!              [--json] [--smoke] [--verbose]`
//!
//! For each selected medium the lens runs the closed-loop capacity
//! search, then answers the two questions a knee table leaves open:
//!
//! 1. **Attribution** — the resource-utilization ledger of the first
//!    failing point past the knee, ranked, with the binding resource
//!    named (sink receive budget on the perfect bus, medium contention
//!    on the ethernet) and the queueing cross-validation shown.
//! 2. **Sensitivity** — the causal what-if matrix: wire ×2, sink
//!    receive ×0.5, protocol CPU ×0.5, each with a knee predicted from
//!    the ledger alone and (with `--confirm`) the exact re-searched
//!    knee beside it.
//!
//! - `--medium` — which media to profile (default `both`);
//! - `--topology` — `single` (default), `sharded`, or `quorum`;
//! - `--spec S` — workload literal (default: a loaded single-recorder
//!   point that knees inside `--max-users` on both media);
//! - `--max-users U` — search ceiling (default 256);
//! - `--chaos` — also validate each searched point under faults;
//! - `--confirm` — re-search the knee under every turned knob so each
//!   what-if row carries its exact prediction error;
//! - `--json` — one NDJSON row per medium (schema-v5 report embedded);
//! - `--smoke` — CI mode: tiny spec, `--confirm` implied, seconds not
//!   minutes. Output is deterministic: run it twice, diff it;
//! - `--verbose` — stream per-point knee-search verdicts (the SLO
//!   clause that rejected each probe) to stderr.

use publishing_chaos::{Medium, Topology};
use publishing_obs::slo::SloSpec;
use publishing_workload::{find_knee, run_whatif, SearchParams, WorkloadSpec};

fn usage() -> ! {
    eprintln!(
        "usage: lens [--medium ethernet|perfect|both] \
         [--topology single|sharded|quorum] [--spec S] [--max-users U] \
         [--chaos] [--confirm] [--json] [--smoke] [--verbose]"
    );
    std::process::exit(2);
}

fn medium_name(m: Medium) -> &'static str {
    match m {
        Medium::Perfect => "perfect",
        Medium::Ethernet => "ethernet",
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Profiles one medium: search, attribute, run the what-if matrix.
fn profile(
    medium: Medium,
    topology: Topology,
    spec: &WorkloadSpec,
    params: &SearchParams,
    confirm: bool,
    json: bool,
) {
    let params = SearchParams {
        medium,
        ..params.clone()
    };
    let slo = SloSpec::default();
    let knee = find_knee("lens", topology, spec, &slo, &params);
    let whatif = run_whatif("lens", topology, spec, &slo, &params, &knee, confirm);

    // The report shown is the first failing point past the knee — where
    // the saturation actually shows — falling back to the knee trial
    // when the search capped out while passing.
    let sat = knee.failing_trial().or_else(|| knee.knee_trial());
    let clauses = sat.map(|t| t.rejected_by().join("+")).unwrap_or_default();
    let mut report = match sat {
        Some(t) => t.report.clone(),
        None => {
            println!("[{}] no trials ran (max_users=0?)", medium_name(medium));
            return;
        }
    };
    report.whatif = Some(whatif);

    if json {
        println!(
            "{{\"medium\":{},\"topology\":{},\"knee\":{},\"binding\":{},\"clauses\":{},\"report\":{}}}",
            json_str(medium_name(medium)),
            json_str(topology.name()),
            knee.knee_users,
            knee.binding
                .as_deref()
                .map(json_str)
                .unwrap_or_else(|| "null".into()),
            json_str(&clauses),
            report.render_json(),
        );
    } else {
        println!(
            "== lens: medium={} topology={} knee={} binding={}{}",
            medium_name(medium),
            topology.name(),
            knee.knee_users,
            knee.binding.as_deref().unwrap_or("none"),
            if clauses.is_empty() {
                String::new()
            } else {
                format!(" rejected_by={clauses}")
            }
        );
        if let Some(u) = &report.utilization {
            println!("\nresource utilization (first point past the knee):");
            println!("{}", u.render());
        }
        if let Some(w) = &report.whatif {
            println!("what-if profiler:");
            println!("{}", w.render());
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut media = vec![Medium::Perfect, Medium::Ethernet];
    let mut topology = Topology::Single;
    let mut literal = None;
    let mut confirm = false;
    let mut json = false;
    let mut smoke = false;
    let mut params = SearchParams {
        chaos: false,
        ..SearchParams::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--medium" => match it.next().map(String::as_str) {
                Some("ethernet") => media = vec![Medium::Ethernet],
                Some("perfect") => media = vec![Medium::Perfect],
                Some("both") => {}
                _ => usage(),
            },
            "--topology" => match it.next().map(String::as_str) {
                Some("single") => topology = Topology::Single,
                Some("sharded") => topology = Topology::Sharded,
                Some("quorum") => topology = Topology::Quorum,
                _ => usage(),
            },
            "--spec" => match it.next() {
                Some(v) => literal = Some(v.clone()),
                None => usage(),
            },
            "--max-users" => match it.next().map(|v| v.parse()) {
                Some(Ok(v)) => params.max_users = v,
                _ => usage(),
            },
            "--chaos" => params.chaos = true,
            "--confirm" => confirm = true,
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--verbose" => params.verbose = true,
            _ => usage(),
        }
    }

    let spec: WorkloadSpec = match literal {
        Some(lit) => match lit.parse() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("--spec: {e}");
                std::process::exit(2);
            }
        },
        // Heavy enough that the knee sits *inside* the smoke cap on
        // both media — a capped bracket is not a knee and would poison
        // the what-if predictions.
        None if smoke => WorkloadSpec {
            subjects: 2,
            rate_per_sec: 100,
            horizon_ms: 400,
            ..WorkloadSpec::default()
        },
        // The canonical operating point: the same default shape the
        // capacity sweep searches, so the lens profile explains the
        // knee table's numbers — the walkthrough in EXPERIMENTS.md
        // re-derives this run.
        None => WorkloadSpec::default(),
    };
    if smoke {
        params.max_users = params.max_users.min(12);
        confirm = true;
    }

    for m in media {
        profile(m, topology, &spec, &params, confirm, json);
    }
}
