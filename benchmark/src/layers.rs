//! Layer drivers: each times one layer's public functions in
//! isolation, at the operating point the traced run revealed (flow
//! population, queue depth, routes, request sequence, emitted events).
//! The unit costs feed `<layer>.est_share`; nothing here touches the
//! service.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use serde::Value;
use vod_db::Database;
use vod_net::lvn::LvnParams;
use vod_net::{LinkId, Mbps, NodeId, RoutingEngine, Topology, TrafficSnapshot};
use vod_obs::{EventSink, JsonlWriter, TimeSeriesSink};
use vod_sim::{FlowNetwork, Scheduler, SimDuration, SimTime};
use vod_snmp::SnmpSystem;
use vod_storage::video::{VideoLibrary, VideoMeta};
use vod_storage::{DmaCache, DmaConfig, PrefixConfig, PrefixStore};

use crate::run::Metrics;
use crate::trace::Observed;
use crate::workloads::Inputs;

/// Timed repetitions per driver. The slow operations (a max-min
/// reallocation is ~2 ms at 1 900 flows) get the issue's floor of 200;
/// sub-microsecond ones get enough to outlast clock granularity.
const SLOW_OPS: usize = 200;
const FAST_OPS: usize = 100_000;

/// Mean host nanoseconds per call of `op` over `iters` calls.
fn ns_per_op(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        op(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Runs every driver at the operating point `m` and `observed`
/// describe, adds the unit costs to `m` and returns them as the trace
/// file's `layer_unit_costs` section.
pub fn drive(inputs: &Inputs, observed: &Observed, m: &mut Metrics) -> Value {
    let mut costs = Metrics::new();
    flow(inputs, observed, m["mean_live_sessions"], &mut costs);
    scheduler(m["core.peak_sessions"] as usize, &mut costs);
    engine(inputs, observed, &mut costs);
    snmp(inputs, &mut costs);
    storage(inputs, &mut costs);
    obs(observed, &mut costs);
    let section = costs
        .iter()
        .map(|(k, v)| (k.clone(), Value::F64(*v)))
        .collect();
    m.extend(costs);
    Value::Object(section)
}

/// `(home, server)` pairs the drivers route between: the remote
/// selections the run made, or neighbouring servers when it made none.
fn route_pairs(topology: &Topology, observed: &Observed) -> Vec<(NodeId, NodeId)> {
    if !observed.remote_pairs.is_empty() {
        return observed.remote_pairs.clone();
    }
    let servers = topology.video_server_nodes();
    servers
        .iter()
        .zip(servers.iter().cycle().skip(1))
        .map(|(a, b)| (*a, *b))
        .collect()
}

fn flow(inputs: &Inputs, observed: &Observed, mean_live_sessions: f64, m: &mut Metrics) {
    let topology = inputs.scenario.topology();
    let idle = TrafficSnapshot::zero(topology);
    let mut engine = RoutingEngine::new(LvnParams::default());
    let routes: Vec<Vec<LinkId>> = route_pairs(topology, observed)
        .iter()
        .filter_map(|&(home, server)| {
            engine
                .select(topology, &idle, home, &[server])
                .expect("idle snapshot matches its topology")
        })
        .map(|selection| selection.route.links().to_vec())
        .filter(|links| !links.is_empty())
        .collect();

    // F = the backbone flow population a flow add or remove met on
    // average: reallocation is linear in it, so the mean prices the
    // run where the peak would overprice it.
    let fetches = observed.remote_fetches + observed.local_fetches;
    let remote_fraction = if fetches == 0 {
        0.0
    } else {
        observed.remote_fetches as f64 / fetches as f64
    };
    let driver_flows = (mean_live_sessions * remote_fraction).round() as usize;

    let mut net = FlowNetwork::new(topology.clone());
    net.set_local_rate(inputs.config.local_rate);
    // Volumes no driver step can drain, so the population stays at F.
    const HELD_MBIT: f64 = 1e15;
    for i in 0..driver_flows {
        net.add_flow(routes[i % routes.len()].clone(), HELD_MBIT)
            .expect("routes come from this topology");
    }

    // The service asks for the next completion after every event it
    // handles, which is also when the kernel sheds the heap entries a
    // reallocation left stale; each driver op does the same.
    let add_remove_ns = ns_per_op(SLOW_OPS, |i| {
        let id = net
            .add_flow(routes[i % routes.len()].clone(), HELD_MBIT)
            .expect("routes come from this topology");
        black_box(net.next_completion());
        black_box(net.remove_flow(id).expect("flow was just added"));
        black_box(net.next_completion());
    });

    // One refresh per hour of the day, as `BackgroundModel::apply`
    // would issue them.
    let refreshes: Vec<Vec<(LinkId, Mbps)>> = (0..24)
        .map(|hour| {
            let at = SimTime::from_secs(hour * 3600);
            topology
                .link_ids()
                .map(|l| (l, inputs.scenario.background().load_at(l, at)))
                .collect()
        })
        .collect();
    let background_update_ns = ns_per_op(SLOW_OPS, |i| {
        net.set_background_many(refreshes[i % refreshes.len()].iter().copied());
        black_box(net.next_completion());
    });

    let mut done = Vec::new();
    let advance_ns = ns_per_op(FAST_OPS, |_| {
        net.advance_into(SimDuration::from_micros(1_000), &mut done);
        black_box(net.next_completion());
    });

    m.insert("sim.flow.driver_flows".into(), driver_flows as f64);
    m.insert("sim.flow.add_remove_ns".into(), add_remove_ns);
    m.insert("sim.flow.background_update_ns".into(), background_update_ns);
    m.insert("sim.flow.advance_ns".into(), advance_ns);
}

/// Hold model at the run's peak queue depth: pop the earliest entry,
/// schedule a new one a pseudo-random distance ahead.
fn scheduler(peak_sessions: usize, m: &mut Metrics) {
    let depth = peak_sessions.max(1);
    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut jitter_us = move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        lcg >> 44 // < 2^20 µs ≈ 1 s
    };
    let mut queue: Scheduler<u64> = Scheduler::new();
    for i in 0..depth {
        queue.schedule(SimTime::from_micros(jitter_us()), i as u64);
    }
    let push_pop_ns = ns_per_op(FAST_OPS, |_| {
        let (at, event) = queue.pop().expect("queue depth is constant");
        queue.schedule(at + SimDuration::from_micros(jitter_us() + 1), event);
    });
    m.insert("sim.scheduler.push_pop_ns".into(), push_pop_ns);
}

fn engine(inputs: &Inputs, observed: &Observed, m: &mut Metrics) {
    let topology = inputs.scenario.topology();
    let pairs = route_pairs(topology, observed);
    let base = TrafficSnapshot::zero(topology);
    let mut engine = RoutingEngine::new(LvnParams::default());
    let mut select = |snapshot: &TrafficSnapshot, i: usize| {
        let (home, server) = pairs[i % pairs.len()];
        black_box(
            engine
                .select(topology, snapshot, home, &[server])
                .expect("snapshot matches its topology"),
        );
    };
    // Warm: one epoch, every tree cached after the first lap.
    for i in 0..pairs.len() {
        select(&base, i);
    }
    let select_warm_ns = ns_per_op(FAST_OPS, |i| select(&base, i));
    // Cold: a new snapshot instance, as after every SNMP poll — full
    // weight rebuild plus one Dijkstra. The clone is not timed.
    let mut cold = Duration::ZERO;
    for i in 0..SLOW_OPS {
        let fresh = base.clone();
        let t = Instant::now();
        select(&fresh, i);
        cold += t.elapsed();
    }
    m.insert("net.engine.select_warm_ns".into(), select_warm_ns);
    m.insert(
        "net.engine.select_cold_ns".into(),
        cold.as_nanos() as f64 / SLOW_OPS as f64,
    );
}

fn snmp(inputs: &Inputs, m: &mut Metrics) {
    let topology = inputs.scenario.topology();
    let interval = inputs.config.snmp_interval;
    let net = FlowNetwork::new(topology.clone());
    let mut db = Database::from_topology(topology, VideoLibrary::new());
    let mut system = SnmpSystem::new(topology, interval);
    let mut now = SimTime::ZERO;
    let poll_ns = ns_per_op(10 * SLOW_OPS, |_| {
        now += interval;
        system.sync_counters(&net);
        black_box(
            system
                .poll(topology, &mut db, now)
                .expect("every link is registered"),
        );
    });
    m.insert("snmp.poll_ns".into(), poll_ns);
}

/// Mean host nanoseconds per request of replaying `requests` in order.
fn replay_ns(
    requests: &[(NodeId, &VideoMeta)],
    mut on_request: impl FnMut(NodeId, &VideoMeta),
) -> f64 {
    let t = Instant::now();
    for &(home, video) in requests {
        on_request(home, video);
    }
    t.elapsed().as_nanos() as f64 / requests.len() as f64
}

/// Replays the trace's per-home title sequence through fresh DMA
/// caches (seeded round-robin like the service's) and prefix stores.
fn storage(inputs: &Inputs, m: &mut Metrics) {
    let config = &inputs.config;
    let topology = inputs.scenario.topology();
    let library = inputs.scenario.library();
    let servers = topology.video_server_nodes();
    let requests: Vec<(NodeId, &VideoMeta)> = inputs
        .scenario
        .trace()
        .iter()
        .map(|r| {
            (
                r.client,
                library.get(r.video).expect("trace draws from the library"),
            )
        })
        .collect();

    let mut caches: BTreeMap<NodeId, DmaCache> = servers
        .iter()
        .map(|&n| {
            let cache = DmaCache::new(DmaConfig {
                disk_count: config.disk_count,
                disk_capacity: config.disk_capacity,
                cluster_size: config.cluster,
                admit_threshold: config.dma_admit_threshold,
                eviction: config.dma_eviction,
            });
            (n, cache.expect("workload DMA configuration is valid"))
        })
        .collect();
    let replicas = config.initial_replicas.clamp(1, servers.len());
    for (i, video) in library.iter().enumerate() {
        for k in 0..replicas {
            let cache = caches.get_mut(&servers[(i + k) % servers.len()]);
            cache
                .expect("one cache per server")
                .preload(video)
                .expect("seeded titles fit the configured disks");
        }
    }
    let dma_ns = replay_ns(&requests, |home, video| {
        let cache = caches.get_mut(&home).expect("homes are servers");
        black_box(cache.on_request(video));
    });
    m.insert("storage.dma.on_request_ns".into(), dma_ns);

    let prefix_ns = config.prefix_tier.map_or(0.0, |tier| {
        let mut stores: BTreeMap<NodeId, PrefixStore> = servers
            .iter()
            .map(|&n| {
                let store = PrefixStore::new(PrefixConfig {
                    capacity: tier.capacity,
                    cluster_size: config.cluster,
                    admit_threshold: tier.admit_threshold,
                    base_clusters: tier.base_clusters,
                    max_clusters: tier.max_clusters,
                    growth_points: tier.growth_points,
                });
                (n, store.expect("workload prefix configuration is valid"))
            })
            .collect();
        replay_ns(&requests, |home, video| {
            let store = stores.get_mut(&home).expect("homes are servers");
            black_box(store.on_request(video));
        })
    });
    m.insert("storage.prefix.on_request_ns".into(), prefix_ns);
}

/// Replays the captured events through each production sink alone.
fn obs(observed: &Observed, m: &mut Metrics) {
    let events = &observed.captured;
    let per_event = |sink: &mut dyn EventSink| {
        if events.is_empty() {
            return 0.0;
        }
        let t = Instant::now();
        for (at, event) in events {
            sink.record(*at, event);
        }
        t.elapsed().as_nanos() as f64 / events.len() as f64
    };
    let mut jsonl = JsonlWriter::new(std::io::sink());
    m.insert("obs.jsonl_record_ns".into(), per_event(&mut jsonl));
    let mut series = TimeSeriesSink::new();
    m.insert("obs.series_record_ns".into(), per_event(&mut series));
    black_box((jsonl.lines(), series.events()));
}
