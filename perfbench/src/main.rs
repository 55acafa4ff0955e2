//! Host-speed benchmark of the publishing simulator.
//!
//! Usage: `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --pins FILE` or `perfbench --virtual-only --workload NAME --seed N`.
//!
//! With `--trace 0` it repeats the workload's experiment for `S`
//! seconds, untraced, and reports the end-to-end metrics, host times
//! scaled to a nominal host speed (see `calib`). With
//! `--trace 1` it runs one untraced reference experiment, replays the
//! workload's fault-free worlds plain, without span retention, and under
//! the layer meters, and reports the per-layer metrics. Either way it
//! checks every experiment's virtual results: against each other,
//! against the pins in `FILE` when the seed is pinned there, and in the
//! traced run, metered worlds against plain ones. The last line of
//! standard output is one JSON object. `--virtual-only` prints one
//! experiment's virtual results as JSON, for writing pins.

mod calib;
mod jobs;
mod meter;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;
mod worlds;

use jobs::{JobResult, Mode};
use publishing_perf::alloc::CountingAlloc;
use publishing_perf::json::{self, Json};
use stats::{median, percentile, Report};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};
use workloads::{Sample, Virtual, Workload};
use worlds::Tier;

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("allocs_per_event", "count"),
    ("alloc_bytes_per_event", "B"),
    ("peak_rss_mb", "MB"),
    ("run_ms_p50", "ms"),
    ("run_ms_p95", "ms"),
];

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    pins: Option<String>,
    virtual_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut pins) = (None, None, None, None);
    let mut virtual_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--pins" => pins = Some(value()?),
            "--virtual-only" => virtual_only = true,
            _ => return Err(format!("unknown argument {a:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: if virtual_only {
            0
        } else {
            seconds.ok_or("missing --seconds")?
        },
        trace: if virtual_only {
            false
        } else {
            trace.ok_or("missing --trace")?
        },
        pins,
        virtual_only,
    })
}

fn virtual_json(v: &Virtual) -> Json {
    Json::Obj(
        v.iter()
            .map(|(k, s)| (k.clone(), Json::Str(s.clone())))
            .collect(),
    )
}

/// The pinned virtual results for `(workload, seed)`, if the pin file
/// has them.
fn load_pin(path: &str, w: Workload, seed: u64) -> Result<Option<Virtual>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(entry) = doc.get(w.name()).and_then(|m| m.get(&seed.to_string())) else {
        return Ok(None);
    };
    let pairs = entry.as_obj().ok_or(format!(
        "{path}: pin for {} seed {seed} is not an object",
        w.name()
    ))?;
    pairs
        .iter()
        .map(|(k, v)| {
            v.as_str()
                .map(|s| (k.clone(), s.to_string()))
                .ok_or(format!("{path}: pin value {k} is not a string"))
        })
        .collect::<Result<Virtual, String>>()
        .map(Some)
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counts the runs whose virtual results are wrong: every run of a
/// sample that differs from the pin, or for an unpinned seed from the
/// run's first sample. The outcome of each run's own check (oracle
/// verdict, pinger output, quorum invariants) is part of the virtual
/// results, so a known defect reproduced exactly is reported, not
/// counted, and any change to it is counted.
fn judge(samples: &[Sample], pin: Option<&Virtual>, report: &mut Report) -> (u64, u64) {
    let reference = pin.unwrap_or(&samples[0].virt);
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, s) in samples.iter().enumerate() {
        let runs = s.run_ms.len() as u64;
        attempted += runs;
        if s.virt != *reference {
            report.note(format!(
                "sample {i}: virtual results differ from the {}",
                if pin.is_some() { "pin" } else { "first sample" }
            ));
            for (k, v) in &s.virt {
                if reference.get(k) != Some(v) {
                    report.note(format!(
                        "  {k}: got {v}, want {}",
                        reference.get(k).map_or("(absent)", String::as_str)
                    ));
                }
            }
            failed += runs;
        }
    }
    if let Some(s) = samples.first().filter(|s| s.failed > 0) {
        report.note(format!(
            "{} of {} runs per sample fail their own check:",
            s.failed,
            s.run_ms.len()
        ));
        for f in &s.findings {
            report.note(format!("  {f}"));
        }
    }
    (attempted, failed)
}

fn untraced(args: &Args, pin: Option<&Virtual>) -> Report {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // Stop before a sample that would overrun the budget, judging by the
    // last one, so a run lasts about `--seconds` whatever the sample size.
    // A sample's host times are scaled by the calibration passes run
    // during it. A single-world workload builds its world once more
    // after every pass.
    let built: Rc<RefCell<Vec<f64>>> = Rc::default();
    let seed = args.seed;
    calib::set_interlude(Some(Box::new({
        let built = built.clone();
        move || built.borrow_mut().extend(workloads::setup_once(w, seed))
    })));
    let mut samples = Vec::new();
    let (mut scales, mut passes) = (Vec::new(), 0);
    let (mut setup, mut run_ms) = (Vec::new(), Vec::new());
    let mut last = Duration::ZERO;
    while samples.is_empty() || start.elapsed() + last <= budget {
        let t = Instant::now();
        let s = workloads::sample(w, args.seed);
        let (scale, n) = calib::take();
        let mut setups = vec![s.setup_s];
        setups.append(&mut built.borrow_mut());
        passes += n;
        setup.extend(setups.iter().map(|x| x * scale));
        run_ms.extend(s.run_ms.iter().map(|x| x * scale));
        scales.push(scale);
        samples.push(s);
        last = t.elapsed();
    }
    calib::set_interlude(None);
    let mut r = Report::new(w.name(), args.seed, false);
    let (attempted, failed) = judge(&samples, pin, &mut r);
    r.attempted = attempted;
    r.failed = failed;

    let per = |f: &dyn Fn(&Sample, f64) -> f64| {
        median(samples.iter().zip(&scales).map(|(s, &k)| f(s, k)).collect())
    };
    let tail = tail_percentile(run_ms.len());
    r.note(format!(
        "samples={} runs={} pinned={} run_ms: {} runs, run_ms_p95 is p{tail:.1}",
        samples.len(),
        attempted,
        pin.is_some(),
        run_ms.len(),
    ));
    let list = |v: &mut dyn Iterator<Item = f64>| {
        v.map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ")
    };
    r.note(format!(
        "sample wall_s unscaled: {}",
        list(&mut samples.iter().map(|s| s.wall_s))
    ));
    r.note(format!(
        "host speed (reference pass {} ms / mean measured, {passes} passes): {}",
        calib::NOMINAL_S * 1e3,
        list(&mut scales.iter().copied())
    ));
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("events_per_s", per(&|s, k| s.events as f64 / (s.sim_s * k))),
        ("wall_s", per(&|s, k| s.wall_s * k)),
        ("setup_s", median(setup)),
        (
            "allocs_per_event",
            per(&|s, _| s.allocs as f64 / s.events as f64),
        ),
        (
            "alloc_bytes_per_event",
            per(&|s, _| s.alloc_bytes as f64 / s.events as f64),
        ),
        ("peak_rss_mb", peak_rss_mb()),
        ("run_ms_p50", percentile(&run_ms, 50.0)),
        ("run_ms_p95", percentile(&run_ms, tail)),
    ]);
    for (name, unit) in END_TO_END {
        r.metric(name, unit, values[name]);
    }
    r
}

/// The percentile reported as `run_ms_p95` over `n` runs: 95 when at
/// least ten runs lie beyond it, otherwise the highest percentile that
/// has ten beyond, but never below the median.
fn tail_percentile(n: usize) -> f64 {
    (100.0 * (1.0 - 10.0 / n.max(1) as f64)).clamp(50.0, 95.0)
}

/// Per-layer sums over a set of metered worlds.
#[derive(Default, Clone, Copy)]
struct Split {
    events: u64,
    step_ns: u64,
    allocs: u64,
    meter: meter::Meter,
}

impl Split {
    fn add(&mut self, r: &JobResult) {
        self.events += r.events();
        self.step_ns += r.run_ns;
        self.allocs += r.run_allocs;
        self.meter.net = self.meter.net.add(r.meter.net);
        self.meter.programs = self.meter.programs.add(r.meter.programs);
        self.meter.deliveries += r.meter.deliveries;
        self.meter.delivered_payload_bytes += r.meter.delivered_payload_bytes;
    }

    fn self_ns(&self) -> u64 {
        self.step_ns
            .saturating_sub(self.meter.net.ns + self.meter.programs.ns)
    }

    fn self_allocs(&self) -> u64 {
        self.allocs
            .saturating_sub(self.meter.net.allocs + self.meter.programs.allocs)
    }
}

/// Host ns per event over the first and the last tenth of the events,
/// from the chunk readings in run order.
fn decile_costs(chunks: &[(u64, u64)]) -> (f64, f64) {
    let total: u64 = chunks.iter().map(|c| c.1).sum();
    let tenth = (total / 10).max(1);
    let cost = |it: &mut dyn Iterator<Item = &(u64, u64)>| {
        let (mut ns, mut ev) = (0u64, 0u64);
        for &(n, e) in it {
            if ev >= tenth {
                break;
            }
            ns += n;
            ev += e;
        }
        ns as f64 / ev.max(1) as f64
    };
    (cost(&mut chunks.iter()), cost(&mut chunks.iter().rev()))
}

fn traced(args: &Args, pin: Option<&Virtual>) -> Report {
    let w = args.workload;
    let (reference, tjobs, own_plain) = workloads::traced_jobs(w, args.seed);
    let mut r = Report::new(w.name(), args.seed, true);
    let (mut attempted, mut failed) = judge(std::slice::from_ref(&reference), pin, &mut r);

    // Each world's three replays run back to back, so that slow and fast
    // spells of the host fall on all three alike.
    let mut own_plain = own_plain;
    let (mut plain_ns, mut nospan_ns, mut metered_ns) = (0u64, 0u64, 0u64);
    let mut report_ns = 0u64;
    let mut all = Split::default();
    let mut by_tier: BTreeMap<&'static str, Split> = BTreeMap::new();
    let mut chunks = Vec::new();
    let (mut sequenced, mut elections, mut quorum_events) = (0u64, 0u64, 0u64);
    for (i, t) in tjobs.iter().enumerate() {
        attempted += 1;
        let p = &own_plain.take().unwrap_or_else(|| t.job.run(Mode::Plain));
        let nospan = t.job.run(Mode::NoSpans);
        let m = t.job.run(Mode::Metered);
        let mut wrong = Vec::new();
        if m.virtual_key() != p.virtual_key() {
            wrong.push("metered run differs from plain run");
        }
        if (
            nospan.world.output_fingerprint(),
            nospan.world.obs_fingerprint(),
        ) != (p.world.output_fingerprint(), p.world.obs_fingerprint())
        {
            wrong.push("span-less run differs from plain run");
        }
        if t.expect_fps
            .is_some_and(|fp| fp != (p.world.output_fingerprint(), p.world.obs_fingerprint()))
        {
            wrong.push("replay fingerprints differ from the experiment's");
        }
        if t.expect_sched
            .as_ref()
            .is_some_and(|s| *s != p.report.sched)
        {
            wrong.push("replay event counts differ from the experiment's");
        }
        if t.expect_load
            .is_some_and(|l| l != workloads::load_totals(p))
        {
            wrong.push("replay offered/delivered differ from the experiment's");
        }
        if !wrong.is_empty() {
            failed += 1;
            r.note(format!("world {i}: {}", wrong.join("; ")));
        }
        plain_ns += p.run_ns;
        report_ns += p.report_ns;
        nospan_ns += nospan.run_ns;
        metered_ns += m.run_ns;
        all.add(&m);
        by_tier.entry(t.job.shape.tier.layer()).or_default().add(&m);
        chunks.extend_from_slice(&m.chunks);
        if t.job.shape.tier == Tier::Quorum {
            let (s, e, _) = p.world.quorum_counts();
            sequenced += s;
            elections += e;
            quorum_events += p.events();
        }
    }
    r.attempted = attempted;
    r.failed = failed;
    r.note(format!(
        "traced worlds={} events={} pinned={}",
        tjobs.len(),
        all.events,
        pin.is_some()
    ));

    let mut layers: BTreeMap<String, f64> = reference.layers.iter().cloned().collect();
    layers
        .entry("obs.report_ms".into())
        .or_insert(report_ns as f64 / 1e6 / tjobs.len().max(1) as f64);
    let ev = all.events.max(1) as f64;
    let (first, last) = decile_costs(&chunks);
    layers.insert("sim.ns_per_event_first_decile".into(), first);
    layers.insert("sim.ns_per_event_last_decile".into(), last);
    let net = all.meter.net;
    layers.insert("net.ns_per_event".into(), net.ns as f64 / ev);
    layers.insert(
        "net.share".into(),
        net.ns as f64 / all.step_ns.max(1) as f64,
    );
    layers.insert("net.calls_per_event".into(), net.calls as f64 / ev);
    layers.insert(
        "net.deliveries_per_call".into(),
        all.meter.deliveries as f64 / net.calls.max(1) as f64,
    );
    layers.insert(
        "net.delivered_payload_bytes_per_event".into(),
        all.meter.delivered_payload_bytes as f64 / ev,
    );
    layers.insert("net.allocs_per_event".into(), net.allocs as f64 / ev);
    let prog = all.meter.programs;
    layers.insert("demos.program_ns_per_event".into(), prog.ns as f64 / ev);
    layers.insert(
        "demos.program_share".into(),
        prog.ns as f64 / all.step_ns.max(1) as f64,
    );
    for (tier, s) in &by_tier {
        let e = s.events.max(1) as f64;
        layers.insert(format!("{tier}.self_ns_per_event"), s.self_ns() as f64 / e);
        layers.insert(
            format!("{tier}.self_allocs_per_event"),
            s.self_allocs() as f64 / e,
        );
    }
    layers.insert("quorum.sequenced".into(), sequenced as f64);
    layers.insert("quorum.elections".into(), elections as f64);
    layers.insert(
        "quorum.events_per_sequenced".into(),
        if sequenced == 0 {
            0.0
        } else {
            quorum_events as f64 / sequenced as f64
        },
    );
    layers.insert(
        "obs.span_tax".into(),
        plain_ns as f64 / nospan_ns.max(1) as f64,
    );
    layers.insert(
        "trace.overhead".into(),
        1.0 - plain_ns as f64 / metered_ns.max(1) as f64,
    );
    for (name, unit) in stats::PER_LAYER {
        let v = layers.get(*name).copied();
        if v.is_none() {
            r.note(format!("{name}: not exercised by this workload"));
        }
        r.metric(name, unit, v.unwrap_or(0.0));
    }
    r
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.virtual_only {
        let s = workloads::sample(args.workload, args.seed);
        println!("{}", virtual_json(&s.virt).write());
        return;
    }
    let pin = match args
        .pins
        .as_deref()
        .map(|p| load_pin(p, args.workload, args.seed))
    {
        Some(Ok(p)) => p,
        Some(Err(e)) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        None => None,
    };
    let report = if args.trace {
        traced(&args, pin.as_ref())
    } else {
        untraced(&args, pin.as_ref())
    };
    report.print();
}
