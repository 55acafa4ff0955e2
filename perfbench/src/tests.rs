//! The benchmark's own checks: decorators are transparent, a wrong pin
//! fails every run, calibration passes stay out of measured windows, and
//! the metric lists agree with `BENCHMARK.json`.

use crate::calib;
use crate::jobs::{Mode, WorldJob};
use crate::stats::{Report, PER_LAYER};
use crate::workloads::{Sample, Virtual};
use crate::worlds::{MediumKind, Tier, WorldShape};
use publishing_chaos::scenario::{PlanLink, PlanSpawn, WorkloadSource};
use publishing_demos::ids::Channel;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_perf::json;
use publishing_sim::time::SimTime;
use publishing_workload::{CompiledWorkload, WorkloadSpec};

/// A few ping/echo pairs on `tier`, small enough for a unit test.
fn small_ping_job(tier: Tier, medium: MediumKind) -> WorldJob {
    let mut registry = ProgramRegistry::new();
    programs::register_standard(&mut registry);
    registry.register("pinger", || {
        let mut c = PingClient::new(12);
        c.think_ns = 2_000_000;
        Box::new(c)
    });
    let mut plan = Vec::new();
    for i in 0..3 {
        plan.push(PlanSpawn {
            node: 2,
            program: "echo".into(),
            links: vec![],
            client: false,
        });
        plan.push(PlanSpawn {
            node: i % 2,
            program: "pinger".into(),
            links: vec![PlanLink {
                target: plan.len() - 1,
                channel: Channel::DEFAULT,
                code: 7,
            }],
            client: true,
        });
    }
    WorldJob {
        shape: WorldShape::chaos(tier, 5),
        medium,
        registry,
        plan,
        horizon: SimTime::from_millis(500),
        end: SimTime::from_secs(3),
    }
}

/// A capacity-search trial world: the workload drivers on ethernet.
fn small_trial_job(tier: Tier) -> WorldJob {
    let spec = WorkloadSpec::default().with_users(3);
    let source = CompiledWorkload::new(spec.clone());
    WorldJob {
        shape: WorldShape::chaos(tier, spec.seed),
        medium: MediumKind::Ethernet,
        registry: source.registry(),
        plan: source.plan(),
        horizon: SimTime::from_millis(spec.horizon_ms),
        end: SimTime::from_millis(spec.horizon_ms + 2_000),
    }
}

#[test]
fn metered_worlds_reproduce_plain_worlds_exactly() {
    let mut jobs: Vec<WorldJob> = Tier::ALL
        .into_iter()
        .map(|t| small_ping_job(t, MediumKind::Perfect))
        .collect();
    jobs.extend(Tier::ALL.into_iter().map(small_trial_job));
    for job in &jobs {
        let plain = job.run(Mode::Plain);
        let metered = job.run(Mode::Metered);
        let nospan = job.run(Mode::NoSpans);
        assert!(
            plain.events() > 500,
            "the job does real work: {}",
            plain.events()
        );
        assert_eq!(metered.virtual_key(), plain.virtual_key());
        assert_eq!(
            nospan.world.output_fingerprint(),
            plain.world.output_fingerprint()
        );
        assert!(metered.meter.net.calls > 0 && metered.meter.programs.calls > 0);
        assert!(metered.chunks.len() > 1);
        assert_eq!(
            metered.chunks.iter().map(|c| c.1).sum::<u64>(),
            metered.events()
        );
    }
}

fn sample_of(job: &WorldJob) -> Sample {
    let r = job.run(Mode::Plain);
    let mut virt = Virtual::new();
    virt.insert(
        "output_fp".into(),
        format!("{:#x}", r.world.output_fingerprint()),
    );
    virt.insert("events".into(), r.events().to_string());
    Sample {
        run_ms: vec![1.0, 2.0],
        virt,
        ..Sample::default()
    }
}

#[test]
fn a_wrong_pin_fails_every_run() {
    let job = small_ping_job(Tier::Sharded, MediumKind::Perfect);
    let samples = vec![sample_of(&job), sample_of(&job)];
    let mut report = Report::new("test", 0, false);

    let right = samples[0].virt.clone();
    assert_eq!(crate::judge(&samples, Some(&right), &mut report), (4, 0));
    assert_eq!(crate::judge(&samples, None, &mut report), (4, 0));

    let mut wrong = right.clone();
    wrong.insert("output_fp".into(), "0x0".into());
    assert_eq!(crate::judge(&samples, Some(&wrong), &mut report), (4, 4));

    // Only a change counts: a sample that differs from the first one
    // fails all its runs even without a pin.
    let mut drifted = samples.clone();
    drifted[1].virt.insert("events".into(), "1".into());
    assert_eq!(crate::judge(&drifted, None, &mut report), (4, 2));
}

#[test]
fn calibration_passes_are_taken_out_of_a_window() {
    let m = calib::mark();
    calib::worked(calib::SLICE_S);
    let net_s = m.elapsed_s();
    let (scale, passes) = calib::take();
    assert_eq!(passes, 1);
    // The window held one pass and nothing else.
    let pass_s = calib::NOMINAL_S / scale;
    assert!(net_s < pass_s / 2.0, "{net_s} s left of a {pass_s} s pass");
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let per_layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), per_layer);
    let end_to_end: Vec<(String, String)> = crate::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), end_to_end);
}
