//! Criterion bench: the epoch-cached [`RoutingEngine`] against the slow
//! reference pipeline — cold vs warm cache, the full LVN rebuild, and
//! re-selection for every home of a 200-node random topology after an
//! SNMP poll.
//!
//! `CRITERION_JSON=out.json cargo bench --bench routing_engine` writes
//! the fresh rows `ci.sh` holds against the committed
//! `BENCH_routing.json`; a re-recorded row keeps its `limit`.

use criterion::{criterion_group, criterion_main, Criterion};
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

/// Weight-table maintenance: the full rebuild every new epoch pays.
fn bench_lvn_rebuild(c: &mut Criterion) {
    let grnet = Grnet::new();
    let snapshot = grnet.snapshot(TimeOfDay::T1000);
    let link = grnet.topology().link_ids().next().unwrap();
    let mut engine = RoutingEngine::new(LvnParams::default());
    c.bench_function("engine/lvn_rebuild/full", |b| {
        b.iter(|| {
            engine.clear_cache();
            engine
                .weights(black_box(grnet.topology()), black_box(&snapshot))
                .unwrap()
                .weight(link)
        })
    });
}

/// A new snapshot instance of gnp200 with every link read at `drift`
/// above its base level — what an SNMP poll hands the selector.
fn polled_snapshot(topology: &Topology, drift: f64) -> TrafficSnapshot {
    let mut snapshot = TrafficSnapshot::zero(topology);
    for link in topology.link_ids() {
        let capacity = topology.link(link).capacity();
        let level = 0.1 + (link.index() % 7) as f64 * 0.1;
        snapshot.set_used(link, capacity * (level + drift));
    }
    snapshot
}

/// What the service does after each poll at scale (86 times in the
/// `gnp200_remote` workload): the selector receives a new snapshot
/// instance in which every reading moved, the engine rebuilds its weight
/// table, and each home's first request re-runs Dijkstra.
fn bench_after_poll_all_homes(c: &mut Criterion) {
    let topology = connected_gnp(200, 0.05, 42);
    let candidates = [NodeId::new(0), NodeId::new(1)];
    let mut engine = RoutingEngine::new(LvnParams::default());
    let mut flip = false;
    c.bench_function("engine/select/gnp200/after_poll_all_homes", |b| {
        b.iter(|| {
            flip = !flip;
            let snapshot = polled_snapshot(&topology, if flip { 0.01 } else { 0.02 });
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

criterion_group!(
    benches,
    bench_grnet_select,
    bench_lvn_rebuild,
    bench_after_poll_all_homes
);
criterion_main!(benches);
