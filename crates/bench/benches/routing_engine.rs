//! Criterion bench: the epoch-cached [`RoutingEngine`] against the slow
//! reference pipeline — cold vs warm cache, incremental vs full LVN
//! rebuild, and warm re-selection plus tree repair on a 200-node random
//! topology.
//!
//! Run with `CRITERION_JSON=BENCH_routing.json cargo bench --bench
//! routing_engine` to regenerate the committed results file.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use vod_net::dijkstra::dijkstra_with_trace;
use vod_net::engine::RoutingEngine;
use vod_net::lvn::{LvnComputer, LvnParams};
use vod_net::topologies::grnet::{Grnet, GrnetNode, TimeOfDay};
use vod_net::topologies::random::connected_gnp;
use vod_net::{NodeId, Topology, TrafficSnapshot};

/// Per-request GRNET selection: the warm engine path (the service's
/// steady state), the cold path (cache rebuilt every request), and the
/// trace-producing reference pipeline the engine replaces.
fn bench_grnet_select(c: &mut Criterion) {
    let grnet = Grnet::new();
    let snapshot = grnet.snapshot(TimeOfDay::T1000);
    let home = grnet.node(GrnetNode::Patra);
    let candidates = [
        grnet.node(GrnetNode::Athens),
        grnet.node(GrnetNode::Thessaloniki),
    ];
    let params = LvnParams::default();

    let mut group = c.benchmark_group("engine/grnet_select");
    let mut engine = RoutingEngine::new(params);
    group.bench_function("warm", |b| {
        b.iter(|| {
            engine
                .select(
                    black_box(grnet.topology()),
                    black_box(&snapshot),
                    home,
                    &candidates,
                )
                .unwrap()
        })
    });
    group.bench_function("cold", |b| {
        b.iter(|| {
            engine.clear_cache();
            engine
                .select(
                    black_box(grnet.topology()),
                    black_box(&snapshot),
                    home,
                    &candidates,
                )
                .unwrap()
        })
    });
    group.bench_function("reference_slow_path", |b| {
        b.iter(|| {
            let weights =
                LvnComputer::new(black_box(grnet.topology()), black_box(&snapshot), params)
                    .weights();
            dijkstra_with_trace(grnet.topology(), &weights, home).unwrap()
        })
    });
    group.finish();
}

/// Weight-table maintenance: a full rebuild (cold cache) against the
/// journal-driven incremental patch after a single link reading changes.
fn bench_lvn_rebuild(c: &mut Criterion) {
    let grnet = Grnet::new();
    let mut snapshot = grnet.snapshot(TimeOfDay::T1000);
    let params = LvnParams::default();
    let link = grnet.topology().link_ids().next().unwrap();
    let capacity = grnet.topology().link(link).capacity();

    let mut group = c.benchmark_group("engine/lvn_rebuild");
    let mut engine = RoutingEngine::new(params);
    group.bench_function("full", |b| {
        b.iter(|| {
            engine.clear_cache();
            engine
                .weights(black_box(grnet.topology()), black_box(&snapshot))
                .unwrap()
                .weight(link)
        })
    });
    let mut flip = false;
    group.bench_function("incremental_1_link", |b| {
        b.iter(|| {
            flip = !flip;
            snapshot.set_used(link, capacity * if flip { 0.31 } else { 0.62 });
            engine
                .weights(black_box(grnet.topology()), black_box(&snapshot))
                .unwrap()
                .weight(link)
        })
    });
    group.finish();
}

fn gnp200() -> (Topology, TrafficSnapshot) {
    let topology = connected_gnp(200, 0.05, 42);
    let mut snapshot = TrafficSnapshot::zero(&topology);
    for link in topology.link_ids() {
        let capacity = topology.link(link).capacity();
        snapshot.set_used(link, capacity * (0.1 + (link.index() % 7) as f64 * 0.1));
    }
    (topology, snapshot)
}

/// The service's steady state at scale: every home's tree cached, one
/// link's SNMP reading drifting per poll, then one `select` per home —
/// dynamic SSSP repairs the 200 trees in place and every request answers
/// from cache.
fn bench_warm_all_homes(c: &mut Criterion) {
    let (topology, mut snapshot) = gnp200();
    let candidates = [NodeId::new(0), NodeId::new(1)];
    let mut engine = RoutingEngine::new(LvnParams::default());
    for home in topology.node_ids() {
        engine.paths_from(&topology, &snapshot, home).unwrap();
    }
    let link = topology.link_ids().next().unwrap();
    let capacity = topology.link(link).capacity();
    let mut flip = false;
    c.bench_function("engine/select/gnp200/warm_all_homes", |b| {
        b.iter(|| {
            flip = !flip;
            snapshot.set_used(link, capacity * if flip { 0.31 } else { 0.62 });
            for home in topology.node_ids() {
                black_box(
                    engine
                        .select(
                            black_box(&topology),
                            black_box(&snapshot),
                            home,
                            &candidates,
                        )
                        .unwrap(),
                );
            }
        })
    });
}

/// Dynamic SSSP repair throughput: with all 200 trees cached, mutate k
/// links per iteration and measure `prepare` alone — journal drain,
/// incremental LVN patch, and in-place repair of every cached tree.
fn bench_sssp_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/sssp_repair");
    for &k in &[1usize, 8, 64] {
        let (topology, mut snapshot) = gnp200();
        let mut engine = RoutingEngine::new(LvnParams::default());
        for home in topology.node_ids() {
            engine.paths_from(&topology, &snapshot, home).unwrap();
        }
        // k links spread across the id space, re-read every iteration.
        let step = (topology.link_count() / k).max(1);
        let links: Vec<_> = topology.link_ids().step_by(step).take(k).collect();
        let mut flip = false;
        group.bench_function(BenchmarkId::from_parameter(format!("{k}_dirty")), |b| {
            b.iter(|| {
                flip = !flip;
                for &link in &links {
                    let capacity = topology.link(link).capacity();
                    snapshot.set_used(link, capacity * if flip { 0.33 } else { 0.44 });
                }
                engine
                    .prepare(black_box(&topology), black_box(&snapshot))
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_grnet_select,
    bench_lvn_rebuild,
    bench_warm_all_homes,
    bench_sssp_repair
);
criterion_main!(benches);
