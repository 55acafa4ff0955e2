//! Order statistics and the result printer.

use publishing_perf::json::Json;

/// The per-layer metrics, in `BENCHMARK.json` order, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events_delivered", "count"),
    ("sim.events_scheduled", "count"),
    ("sim.cancel_ratio", "ratio"),
    ("sim.peak_pending", "count"),
    ("sim.ns_per_event_first_decile", "ns"),
    ("sim.ns_per_event_last_decile", "ns"),
    ("net.ns_per_event", "ns"),
    ("net.share", "ratio"),
    ("net.calls_per_event", "count"),
    ("net.deliveries_per_call", "count"),
    ("net.delivered_payload_bytes_per_event", "B"),
    ("net.allocs_per_event", "count"),
    ("demos.program_ns_per_event", "ns"),
    ("demos.program_share", "ratio"),
    ("single.self_ns_per_event", "ns"),
    ("single.self_allocs_per_event", "count"),
    ("shard.self_ns_per_event", "ns"),
    ("shard.self_allocs_per_event", "count"),
    ("quorum.self_ns_per_event", "ns"),
    ("quorum.self_allocs_per_event", "count"),
    ("quorum.sequenced", "count"),
    ("quorum.events_per_sequenced", "count"),
    ("quorum.elections", "count"),
    ("chaos.single.build_ms", "ms"),
    ("chaos.single.run_ms", "ms"),
    ("chaos.single.oracle_ms", "ms"),
    ("chaos.sharded.build_ms", "ms"),
    ("chaos.sharded.run_ms", "ms"),
    ("chaos.sharded.oracle_ms", "ms"),
    ("chaos.quorum.build_ms", "ms"),
    ("chaos.quorum.run_ms", "ms"),
    ("chaos.quorum.oracle_ms", "ms"),
    ("chaos.faults_per_run", "count"),
    ("chaos.recoveries_per_run", "count"),
    ("obs.report_ms", "ms"),
    ("obs.span_tax", "ratio"),
    ("workload.trials", "count"),
    ("workload.single.find_knee_ms", "ms"),
    ("workload.sharded.find_knee_ms", "ms"),
    ("workload.quorum.find_knee_ms", "ms"),
    ("workload.allocs_per_trial", "count"),
    ("workload.host_ms_per_delivered", "ms"),
    ("trace.overhead", "ratio"),
];

/// The median of `v` (the mean of the middle two for even lengths).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p`th percentile of `v`, interpolating linearly between ranks.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        }
    }
}

/// One run's result: notes for people, then the JSON line.
pub struct Report {
    workload: &'static str,
    seed: u64,
    traced: bool,
    notes: Vec<String>,
    metrics: Vec<(String, String, f64)>,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs whose virtual results were wrong.
    pub failed: u64,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Report {
        Report {
            workload,
            seed,
            traced,
            notes: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Adds a line for people.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.push((name.into(), unit.into(), value));
    }

    /// Prints the notes, a metric table, and the result line. A metric
    /// that came out non-finite fails the run.
    pub fn print(mut self) {
        if self.metrics.iter().any(|m| !m.2.is_finite()) {
            self.note("a metric is not a finite number".into());
            self.failed = self.failed.max(1);
        }
        println!(
            "perfbench workload={} seed={} trace={}",
            self.workload,
            self.seed,
            u8::from(self.traced)
        );
        for n in &self.notes {
            println!("  {n}");
        }
        println!(
            "  failed_ratio={} ({} of {} runs)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for (name, unit, v) in &self.metrics {
            println!("  {name:<40} {v:>16.6} {unit}");
        }
        // Written by hand: `attempted` and `failed` must print as
        // integers, and every value with all its digits.
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                let value = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    Json::Str(name.clone()).write(),
                    Json::Str(unit.clone()).write()
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
