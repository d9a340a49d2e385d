//! Criterion bench: the event-driven flow kernel at a population of
//! 10 000 live network flows — the per-event primitives the service run
//! is made of: `advance` with nothing finishing and `next_completion` —
//! the max-min reallocation a
//! backbone arrival and departure pay under contention
//! (`sim_kernel/reallocate/*`: many flows on GRNET's few routes, and
//! as many routes as flows on a 200-node random graph), and what a
//! cluster boundary pays on that graph (`sim_kernel/boundary/*`: a
//! transfer replaced at one instant, along its route or along another),
//! and a simulated day of the periodic path — background refreshes and
//! SNMP polls — over an idle GRNET backbone (`sim_kernel/tick/*`), and
//! the scheduler under the hold model at the depth of a quiet day and of
//! 400 000 live sessions, and at that depth with every entry
//! rescheduled at one of three fixed delays, the shape a service run's
//! sessions give it (`sim_kernel/queue/*`), the queue every playout tick
//! and every local serve's timer goes through.
//!
//! `CRITERION_JSON=out.json cargo bench --bench sim_kernel` writes the
//! fresh rows `ci.sh` holds against the committed `BENCH_kernel.json`,
//! every row to the `limit` recorded next to it; the committed
//! `BENCH_sim.json` end-to-end numbers come from `--bin scale` instead.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use vod_db::Database;
use vod_net::lvn::LvnParams;
use vod_net::topologies::grnet::Grnet;
use vod_net::topologies::random::connected_gnp;
use vod_net::{LinkId, NodeId, RoutingEngine, Topology, TrafficSnapshot};
use vod_sim::flow::FlowNetwork;
use vod_sim::scheduler::Scheduler;
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_snmp::SnmpSystem;
use vod_storage::video::VideoLibrary;

const FLOWS: usize = 10_000;

/// A settled GRNET network holding `FLOWS` long-lived flows spread
/// round-robin over its city-to-city routes, far from completion, so
/// `advance` never collects any of them.
fn populated() -> FlowNetwork {
    let grnet = Grnet::new();
    let routes = engine_routes(grnet.topology(), usize::MAX);
    let mut net = FlowNetwork::new(grnet.topology().clone());
    for i in 0..FLOWS {
        net.add_flow(&routes[i % routes.len()], 1e9).unwrap();
    }
    net.settle();
    net
}

/// `advance` with no completions due — the cost every single service
/// event pays before its handler runs.
fn bench_advance(c: &mut Criterion) {
    let mut net = populated();
    let mut done = Vec::new();
    c.bench_function("sim_kernel/advance_idle_10k", |b| {
        b.iter(|| {
            net.advance_into(black_box(SimDuration::from_millis(1)), &mut done);
            assert!(done.is_empty());
        })
    });
}

/// `next_completion` — the scheduler asks this after every event.
fn bench_next_completion(c: &mut Criterion) {
    let mut net = populated();
    c.bench_function("sim_kernel/next_completion_10k", |b| {
        b.iter(|| black_box(net.next_completion()))
    });
}

/// The routes the routing engine selects on an idle network between
/// the first `count` ordered pairs of distinct nodes.
fn engine_routes(topology: &Topology, count: usize) -> Vec<Vec<LinkId>> {
    let idle = TrafficSnapshot::zero(topology);
    let mut engine = RoutingEngine::new(LvnParams::default());
    let nodes: Vec<NodeId> = topology.node_ids().collect();
    let pairs = nodes
        .iter()
        .flat_map(|&home| nodes.iter().map(move |&server| (home, server)))
        .filter(|(home, server)| home != server);
    pairs
        .filter_map(|(home, server)| {
            engine
                .select(topology, &idle, home, &[server])
                .expect("idle snapshot matches its topology")
        })
        .map(|selection| selection.route.links().to_vec())
        .take(count)
        .collect()
}

/// One backbone arrival and departure at a standing population of
/// `flows` network flows spread round-robin over `routes`: `add_flow`,
/// `remove_flow`, and the `next_completion` the service asks for after
/// each — two settles, each with a max-min fill, per iteration.
fn bench_reallocate_at(
    c: &mut Criterion,
    id: &str,
    topology: &Topology,
    routes: &[Vec<LinkId>],
    flows: usize,
) {
    let mut net = FlowNetwork::new(topology.clone());
    // Volumes no iteration can drain, so the population stays put.
    for i in 0..flows {
        net.add_flow(&routes[i % routes.len()], 1e15).unwrap();
    }
    let mut i = 0;
    c.bench_function(id, |b| {
        b.iter(|| {
            i += 1;
            let route = &routes[i % routes.len()];
            let id = net.add_flow(black_box(route), 1e15).unwrap();
            black_box(net.next_completion());
            black_box(net.remove_flow(id).unwrap());
            black_box(net.next_completion());
        })
    });
}

/// Contended reallocation in the two shapes that bound it: a thousand
/// flows sharing GRNET's thirty city-to-city routes (far more flows than
/// route classes), and seven hundred flows on seven hundred different
/// routes of a 200-node random graph (a class per flow, dozens of fill
/// rounds).
fn bench_reallocate(c: &mut Criterion) {
    let grnet = Grnet::new();
    let routes = engine_routes(grnet.topology(), usize::MAX);
    let id = "sim_kernel/reallocate/grnet_shared_1k";
    bench_reallocate_at(c, id, grnet.topology(), &routes, 1_000);

    let gnp200 = connected_gnp(200, 0.05, 42);
    let routes = engine_routes(&gnp200, 700);
    let id = "sim_kernel/reallocate/gnp200_distinct_700";
    bench_reallocate_at(c, id, &gnp200, &routes, 700);
}

/// One cluster boundary at a standing population of one flow per
/// route: a transfer leaves and its successor starts at the same
/// instant, then the `next_completion` the service asks for — one
/// settle per iteration. Along the same route every class keeps its
/// member count, so the settle is the slab pass alone; with `switch`
/// the successor takes the next route over and the settle fills once.
fn bench_boundary_at(
    c: &mut Criterion,
    id: &str,
    topology: &Topology,
    routes: &[Vec<LinkId>],
    switch: bool,
) {
    let mut net = FlowNetwork::new(topology.clone());
    let mut transfers: Vec<_> = (0..routes.len())
        .map(|route| (net.add_flow(&routes[route], 1e15).unwrap(), route))
        .collect();
    black_box(net.next_completion());
    let mut i = 0;
    c.bench_function(id, |b| {
        b.iter(|| {
            i += 1;
            let slot = i % transfers.len();
            let (leaving, route) = transfers[slot];
            let route = (route + usize::from(switch)) % routes.len();
            black_box(net.remove_flow(leaving).unwrap());
            let successor = net.add_flow(black_box(&routes[route]), 1e15);
            transfers[slot] = (successor.unwrap(), route);
            black_box(net.next_completion());
        })
    });
}

/// Cluster boundaries among seven hundred flows on seven hundred
/// routes of the 200-node random graph.
fn bench_boundary(c: &mut Criterion) {
    let gnp200 = connected_gnp(200, 0.05, 42);
    let routes = engine_routes(&gnp200, 700);
    let id = "sim_kernel/boundary/gnp200_distinct_700";
    bench_boundary_at(c, id, &gnp200, &routes, false);
    let id = "sim_kernel/boundary/gnp200_switch_700";
    bench_boundary_at(c, id, &gnp200, &routes, true);
}

/// One simulated day of the periodic machinery, outside `VodService`,
/// over an idle GRNET backbone: every minute the kernel advances and
/// the Table 2 background is re-applied (1 440 refreshes), every second
/// minute the SNMP system polls the volume integrals into the database
/// (720 polls of 14 readings), and after each tick the next completion
/// is asked for, as the service does after every event.
fn bench_tick(c: &mut Criterion) {
    let grnet = Grnet::new();
    let topology = grnet.topology();
    let mut background = BackgroundModel::grnet_table2(&grnet);
    let minute = SimDuration::from_mins(1);
    let mut net = FlowNetwork::new(topology.clone());
    let mut db = Database::from_topology(topology, VideoLibrary::new());
    let mut snmp = SnmpSystem::new(topology, minute + minute);
    let mut done = Vec::new();
    let mut now = SimTime::ZERO;
    c.bench_function("sim_kernel/tick/grnet_idle_day", |b| {
        b.iter(|| {
            for _ in 0..1_440 {
                now += minute;
                net.advance_into(minute, &mut done);
                background.apply(&mut net, now);
                black_box(net.next_completion());
                if snmp.due(now) {
                    snmp.sync_counters(&net);
                    let readings = snmp.poll(topology, &mut db, now).unwrap();
                    assert_eq!(readings, 14);
                    black_box(net.next_completion());
                }
            }
        })
    });
}

/// The hold model's distance to the next event of a session: a
/// pseudo-random 1 µs to ~1 s, from a fixed LCG.
fn jitter_us() -> impl FnMut() -> u64 {
    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
    move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        1 + (lcg >> 44)
    }
}

/// The scheduler holding `depth` pending events: pop the head,
/// reschedule it under a second ahead — what every playout event of
/// `depth` concurrent sessions does to the queue.
fn bench_queue_hold_at(c: &mut Criterion, id: &str, depth: u64) {
    let mut jitter_us = jitter_us();
    let mut queue: Scheduler<u64> = Scheduler::new();
    for session in 0..depth {
        queue.schedule(SimTime::from_micros(jitter_us()), session);
    }
    c.bench_function(id, |b| {
        b.iter(|| {
            let (at, session) = queue.pop().unwrap();
            queue.schedule(at + SimDuration::from_micros(jitter_us()), session);
        })
    });
    assert_eq!(queue.len() as u64, depth);
}

/// The scheduler holding 400 000 pending events, each popped and
/// rescheduled at the next of three fixed delays: a session's next
/// event lies one of a few fixed delays ahead, so the pushes are the
/// merge of three sorted sequences. Timed from the steady state, once
/// every entry of the fill has been popped.
fn bench_queue_streams(c: &mut Criterion) {
    const DEPTH: u64 = 400_000;
    const DELAYS_US: [u64; 3] = [40_000, 400_000, 4_000_000];
    let mut jitter_us = jitter_us();
    let mut queue: Scheduler<u64> = Scheduler::new();
    for session in 0..DEPTH {
        queue.schedule(SimTime::from_micros(jitter_us()), session);
    }
    let mut delays = DELAYS_US.iter().cycle();
    let mut hold = move |queue: &mut Scheduler<u64>| {
        let (at, session) = queue.pop().unwrap();
        let delay = SimDuration::from_micros(*delays.next().unwrap());
        queue.schedule(at + delay, session);
    };
    for _ in 0..2 * DEPTH {
        hold(&mut queue);
    }
    c.bench_function("sim_kernel/queue/streams_400k", |b| {
        b.iter(|| hold(&mut queue))
    });
    assert_eq!(queue.len() as u64, DEPTH);
}

fn bench_queue(c: &mut Criterion) {
    bench_queue_hold_at(c, "sim_kernel/queue/hold_150", 150);
    bench_queue_hold_at(c, "sim_kernel/queue/hold_400k", 400_000);
    bench_queue_streams(c);
}

criterion_group!(
    benches,
    bench_advance,
    bench_next_completion,
    bench_reallocate,
    bench_boundary,
    bench_tick,
    bench_queue
);
criterion_main!(benches);
