//! Criterion bench: the event-driven flow kernel at a population of
//! ~10 000 live flows — the per-event primitives the service run is made
//! of: `advance` with nothing finishing, `next_completion`, and an
//! add/advance/remove churn cycle.
//!
//! Run with `CRITERION_JSON=BENCH_sim_kernel.json cargo bench --bench
//! sim_kernel` for machine-readable output; the committed
//! `BENCH_sim.json` end-to-end numbers come from `--bin scale` instead.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use vod_net::topologies::grnet::Grnet;
use vod_net::Mbps;
use vod_sim::flow::FlowNetwork;
use vod_sim::SimDuration;

const FLOWS: usize = 10_000;

/// A GRNET network holding `FLOWS` long-lived local flows (far from
/// completion, so `advance` never materializes any of them) plus a few
/// network flows so reallocation work is represented.
fn populated() -> FlowNetwork {
    let grnet = Grnet::new();
    let mut net = FlowNetwork::new(grnet.topology().clone());
    for _ in 0..FLOWS {
        net.add_local_flow(1e9, Mbps::new(2.0)).unwrap();
    }
    for link in 0..grnet.topology().link_count() {
        net.add_flow(vec![vod_net::LinkId::new(link as u32)], 1e9)
            .unwrap();
    }
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

/// Session churn: add a local flow, advance a little, remove it — the
/// arrival/departure path at a 10k-flow population.
fn bench_churn(c: &mut Criterion) {
    let mut net = populated();
    let mut done = Vec::new();
    c.bench_function("sim_kernel/churn_10k", |b| {
        b.iter(|| {
            let id = net.add_local_flow(1e6, Mbps::new(2.0)).unwrap();
            net.advance_into(SimDuration::from_millis(1), &mut done);
            black_box(net.remove_flow(id).unwrap());
        })
    });
}

criterion_group!(benches, bench_advance, bench_next_completion, bench_churn);
criterion_main!(benches);
