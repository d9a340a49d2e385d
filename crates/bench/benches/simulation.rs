//! Criterion bench: end-to-end service simulation throughput — a small
//! GRNET day per iteration — and the fluid-flow reallocation kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_net::topologies::grnet::Grnet;
use vod_sim::flow::FlowNetwork;
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_storage::cluster::ClusterSize;
use vod_storage::video::Megabytes;
use vod_workload::arrivals::HourlyShape;
use vod_workload::library::{LibraryConfig, LibraryGenerator};
use vod_workload::scenario::Scenario;
use vod_workload::trace::TraceConfig;

fn small_scenario(seed: u64) -> Scenario {
    let grnet = Grnet::new();
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 20,
        min_size_mb: 50.0,
        max_size_mb: 100.0,
        bitrate_mbps: 1.5,
    })
    .generate(seed);
    let trace = TraceConfig {
        start: SimTime::from_secs(8 * 3600),
        duration: SimDuration::from_secs(1800),
        rate_per_sec: 0.02,
        shape: HourlyShape::flat(),
        zipf_skew: 0.9,
        client_weights: None,
    }
    .generate(grnet.topology(), &library, seed);
    Scenario::new(
        "bench",
        grnet.topology().clone(),
        library,
        trace,
        BackgroundModel::grnet_table2(&grnet),
        seed,
    )
}

fn bench_service(c: &mut Criterion) {
    let scenario = small_scenario(42);
    let config = ServiceConfig {
        cluster: ClusterSize::new(Megabytes::new(25.0)),
        ..ServiceConfig::default()
    };
    let mut group = c.benchmark_group("simulation");
    // A whole service day per iteration: keep the sample count low.
    group.sample_size(10);
    group.bench_function("grnet_half_hour", |b| {
        b.iter(|| {
            let service = VodService::new(
                black_box(&scenario),
                Box::new(Vra::default()),
                config.clone(),
            );
            black_box(service.run())
        })
    });
    group.finish();
}

fn bench_reallocation(c: &mut Criterion) {
    let grnet = Grnet::new();
    let mut group = c.benchmark_group("simulation/fair_share_reallocate");
    for &flows in &[10usize, 100, 500] {
        group.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, &n| {
            let mut net = FlowNetwork::new(grnet.topology().clone());
            let links: Vec<_> = grnet.topology().link_ids().collect();
            for i in 0..n {
                let route = vec![links[i % links.len()], links[(i + 1) % links.len()]];
                net.add_flow(route, 1e12).unwrap();
            }
            // Each changed background costs one reallocation over n flows
            // when the network next settles.
            let mut toggle = false;
            b.iter(|| {
                toggle = !toggle;
                let load = if toggle { 0.5 } else { 0.25 };
                net.set_background(links[0], vod_net::Mbps::new(load));
                net.settle();
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_service, bench_reallocation);
criterion_main!(benches);
