//! Criterion benches over the paper's experiments: one group per table or
//! figure, timing the simulation that regenerates it (wall-clock cost of
//! the reproduction itself), plus substrate micro-benchmarks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use publishing_bench::scenarios;
use publishing_core::node_recovery::{run_workload, NodeUnit};
use publishing_demos::driver::{LONG_BYTES, SHORT_BYTES};
use publishing_queueing::{figure_5_5, max_users, ShardedTier, SystemConfig};
use publishing_sim::rng::DetRng;
use publishing_sim::time::SimTime;
use std::hint::black_box;

fn bench_fig5_7_per_message(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_7_per_message");
    g.sample_size(10);
    for &publishing in &[true, false] {
        g.bench_with_input(
            BenchmarkId::new("selfping128", publishing),
            &publishing,
            |b, &publishing| {
                b.iter(|| black_box(scenarios::per_message_costs(publishing, 128)));
            },
        );
    }
    g.finish();
}

fn bench_fig5_8_per_process(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_8_per_process");
    g.sample_size(10);
    for &publishing in &[true, false] {
        g.bench_with_input(
            BenchmarkId::new("create_destroy10", publishing),
            &publishing,
            |b, &publishing| {
                b.iter(|| black_box(scenarios::per_process_costs(publishing, 10)));
            },
        );
    }
    g.finish();
}

fn bench_fig5_5_queueing_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_5_queueing");
    g.bench_function("utilization_sweep", |b| {
        b.iter(|| black_box(figure_5_5(true)));
    });
    g.bench_function("capacity_115_users", |b| {
        b.iter(|| black_box(max_users(&SystemConfig::default())));
    });
    g.finish();
}

fn bench_fig6_2_ethernet(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_2_ethernet");
    g.sample_size(10);
    let horizon = SimTime::from_secs(2);
    for &(label, ack) in &[("standard", false), ("acknowledging", true)] {
        g.bench_function(label, |b| {
            b.iter(|| black_box(scenarios::ethernet_run(ack, 8, 40.0, horizon, 9)));
        });
    }
    g.finish();
}

fn bench_fig6_4_token_ring(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_4_token_ring");
    for &recorder in &[1u32, 7] {
        g.bench_with_input(
            BenchmarkId::new("recorder_at", recorder),
            &recorder,
            |b, &recorder| {
                b.iter(|| black_box(scenarios::token_ring_run(8, recorder, 64)));
            },
        );
    }
    g.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery");
    g.sample_size(10);
    for &interval in &[0u64, 50] {
        g.bench_with_input(
            BenchmarkId::new("checkpoint_ms", interval),
            &interval,
            |b, &interval| {
                b.iter(|| black_box(scenarios::measured_recovery_ms(interval, 300)));
            },
        );
    }
    g.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("ch2_baselines");
    g.bench_function("recovery_lines_vs_publishing", |b| {
        b.iter(|| black_box(scenarios::baseline_comparison(20, 3)));
    });
    g.finish();
}

fn bench_node_unit(c: &mut Criterion) {
    let mut g = c.benchmark_group("sec6_6_node_unit");
    g.bench_function("run_and_replay", |b| {
        b.iter(|| {
            let mut rng = DetRng::new(4);
            let (live, log) = run_workload(6, 3, 100, &mut rng);
            let recovered = NodeUnit::replay(6, 3, &log);
            black_box((live.state_digest(), recovered.state_digest()))
        });
    });
    g.finish();
}

fn bench_substrate(c: &mut Criterion) {
    use publishing_net::crc::crc32;
    use publishing_sim::codec::{Decode, Encode};
    let mut g = c.benchmark_group("substrate");
    let data = vec![0xA5u8; LONG_BYTES];
    g.bench_function("crc32_1k", |b| b.iter(|| black_box(crc32(&data))));
    // Late-run echo checkpoint deposits on the sharded tier are about
    // this size, and every station that hears one checks it.
    let deposit = vec![0xA5u8; 24 * 1024];
    g.bench_function("crc32_24k", |b| {
        b.iter(|| black_box(crc32(black_box(&deposit))))
    });
    let msg = publishing_demos::message::Message {
        header: publishing_demos::message::MessageHeader {
            id: publishing_demos::ids::MessageId {
                sender: publishing_demos::ids::ProcessId::new(1, 2),
                seq: 7,
            },
            to: publishing_demos::ids::ProcessId::new(2, 3),
            code: 0,
            channel: publishing_demos::ids::Channel(0),
            deliver_to_kernel: false,
        },
        passed_link: None,
        body: vec![0; SHORT_BYTES],
    };
    g.bench_function("message_encode_decode", |b| {
        b.iter(|| {
            let buf = msg.encode_to_vec();
            black_box(publishing_demos::message::Message::decode_all(&buf).unwrap())
        })
    });
    g.finish();
}

/// Sweeps the sharded recorder tier from 1 to 8 shards: the queueing-
/// model capacity probe and a full `ShardedWorld` ping workload (router,
/// capture sets, and ack gating all on the hot path).
fn bench_shard_sweep(c: &mut Criterion) {
    use publishing_demos::ids::Channel;
    use publishing_demos::link::Link;
    use publishing_demos::programs::{self, PingClient};
    use publishing_demos::registry::ProgramRegistry;
    use publishing_shard::ShardedWorld;

    let mut g = c.benchmark_group("shard_sweep");
    g.sample_size(10);
    for shards in 1..=8u32 {
        g.bench_with_input(
            BenchmarkId::new("tier_capacity", shards),
            &shards,
            |b, &n| {
                b.iter(|| black_box(publishing_queueing::tier_max_users(&ShardedTier::new(n, 2))));
            },
        );
        g.bench_with_input(
            BenchmarkId::new("sharded_world_ping", shards),
            &shards,
            |b, &n| {
                b.iter(|| {
                    let mut reg = ProgramRegistry::new();
                    programs::register_standard(&mut reg);
                    reg.register("ping25", || Box::new(PingClient::new(25)));
                    let mut w = ShardedWorld::new(2, n as usize, reg);
                    let server = w.spawn(1, "echo", vec![]).unwrap();
                    let client = w
                        .spawn(0, "ping25", vec![Link::to(server, Channel::DEFAULT, 7)])
                        .unwrap();
                    w.run_until(SimTime::from_secs(5));
                    black_box(w.outputs_of(client).len())
                });
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fig5_7_per_message,
    bench_fig5_8_per_process,
    bench_fig5_5_queueing_sweep,
    bench_fig6_2_ethernet,
    bench_fig6_4_token_ring,
    bench_recovery,
    bench_baselines,
    bench_node_unit,
    bench_substrate,
    bench_shard_sweep,
);
criterion_main!(benches);
