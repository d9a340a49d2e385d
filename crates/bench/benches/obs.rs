//! Criterion bench: event-emission overhead of the observability sinks.
//!
//! Every instrumentation site in the service is guarded by
//! `sink.enabled()`; this bench measures what one guarded emission costs
//! per sink. [`NullSink`]'s constant-false guard lets the whole site
//! fold away under monomorphization, so its row should read as ~0 ns —
//! the number that justifies leaving the instrumentation compiled into
//! the paper-exact binaries.
//!
//! `obs/emit/time_series_sink` emits at one fixed instant, so it never
//! seals a window: it is the cost of a counter update. `obs/series/
//! sparse_year` is the other end — a year of one-minute windows with
//! about two events per window, so nearly every emission also seals one
//! window into the packed log.
//!
//! `obs/scale_stress` measures the end-to-end cost of the time-series
//! pipeline: two full 100k-session `scale_stress` runs, one with a
//! [`NullSink`] and one with a [`TimeSeriesSink`]. The ISSUE budget is
//! ≤15% wall-clock overhead for the instrumented run.
//!
//! Run with `CRITERION_JSON=BENCH_obs.json cargo bench --bench obs` to
//! regenerate the committed results file.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_net::{Mbps, NodeId};
use vod_obs::{Event, EventSink, JsonlWriter, NullSink, RingRecorder, TeeSink, TimeSeriesSink};
use vod_sim::{SimDuration, SimTime};
use vod_storage::video::VideoId;
use vod_workload::scenario::Scenario;

/// One guarded emission site, exactly as the service is instrumented.
fn emit<S: EventSink>(sink: &mut S, at: SimTime, event: &Event) {
    if sink.enabled() {
        sink.record(at, event);
    }
}

/// A representative mid-size event (the most frequent kind in a trace).
fn sample_event() -> Event {
    Event::VraSelect {
        session: 42,
        cluster: 7,
        video: VideoId::new(19),
        home: NodeId::new(1),
        server: NodeId::new(4),
        cost: 0.21771,
        cache_hit: true,
        local: false,
    }
}

fn bench_emit(c: &mut Criterion) {
    let at = SimTime::from_secs(12 * 3600);
    let event = sample_event();
    let mut group = c.benchmark_group("obs/emit");

    let mut null = NullSink;
    group.bench_function("null_sink", |b| {
        b.iter(|| emit(&mut null, black_box(at), black_box(&event)))
    });

    let mut ring = RingRecorder::new(4096);
    group.bench_function("ring_recorder", |b| {
        b.iter(|| emit(&mut ring, black_box(at), black_box(&event)))
    });

    let mut jsonl = JsonlWriter::new(std::io::sink());
    group.bench_function("jsonl_writer", |b| {
        b.iter(|| emit(&mut jsonl, black_box(at), black_box(&event)))
    });

    let mut series = TimeSeriesSink::new();
    group.bench_function("time_series_sink", |b| {
        b.iter(|| emit(&mut series, black_box(at), black_box(&event)))
    });

    let mut tee = TeeSink::new(NullSink, TimeSeriesSink::new());
    group.bench_function("tee_null_series", |b| {
        b.iter(|| emit(&mut tee, black_box(at), black_box(&event)))
    });

    group.finish();
}

/// ns per event over a long, sparse horizon, sealing included: a year
/// of one-minute windows shaped like a steady service — an SNMP poll
/// and a `link_state` every second minute (the row moves on every
/// fourth poll, up then down), an arrival / start / complete triple
/// every third. Each iteration emits the year's next event; the sink is
/// replaced when the year wraps, so the log never outgrows one year.
fn bench_sparse_year(c: &mut Criterion) {
    // The pattern repeats every 96 minutes (2, 3 and the 32-minute
    // utilisation cycle).
    const PERIOD_MINUTES: u64 = 96;
    const PERIODS_PER_YEAR: u64 = 365 * 24 * 60 / PERIOD_MINUTES;
    let mut pattern: Vec<(u64, Event)> = Vec::new();
    for minute in 0..PERIOD_MINUTES {
        if minute % 3 == 0 {
            pattern.push((
                minute,
                Event::RequestArrival {
                    request: minute,
                    client: NodeId::new(0),
                    video: VideoId::new(0),
                },
            ));
            pattern.push((
                minute,
                Event::SessionStart {
                    session: minute,
                    startup: SimDuration::from_secs(2),
                },
            ));
            pattern.push((
                minute,
                Event::SessionComplete {
                    session: minute,
                    stalls: 0,
                    stall_time: SimDuration::ZERO,
                    switches: 0,
                },
            ));
        }
        if minute % 2 == 0 {
            let level = [0.2, 0.6, 0.4, 0.1][(minute / 8 % 4) as usize];
            pattern.push((
                minute,
                Event::SnmpPoll {
                    readings: 7,
                    staleness: SimDuration::from_secs(90),
                },
            ));
            pattern.push((
                minute,
                Event::LinkState {
                    used: vec![],
                    utilization: vec![level; 7],
                    down: vec![],
                },
            ));
        }
    }

    let mut sink = TimeSeriesSink::new();
    let (mut next, mut period) = (0, 0);
    c.bench_function("obs/series/sparse_year", |b| {
        b.iter(|| {
            if next == pattern.len() {
                next = 0;
                period += 1;
                if period == PERIODS_PER_YEAR {
                    period = 0;
                    sink = TimeSeriesSink::new();
                }
            }
            let (minute, event) = &pattern[next];
            next += 1;
            let at = SimTime::from_secs((period * PERIOD_MINUTES + minute) * 60 + 1);
            emit(&mut sink, black_box(at), black_box(event))
        })
    });
}

/// End-to-end instrumentation overhead: a full 100k-session
/// `scale_stress` run with the time-series pipeline attached, against
/// the same run with the no-op sink. The two ids share a group so the
/// compare harness can hold their ratio to the ≤15% budget.
fn bench_scale_stress(c: &mut Criterion) {
    let scenario = Scenario::scale_stress(42, 100_000);
    // The config the scale scenario is designed around (same as the
    // `scale` binary's): all-local serves at a 2 Mbps streaming ceiling.
    let config = || ServiceConfig {
        initial_replicas: 6,
        local_rate: Mbps::new(2.0),
        ..ServiceConfig::default()
    };
    let mut group = c.benchmark_group("obs/scale_stress");
    group.sample_size(2);

    group.bench_function("null_sink", |b| {
        b.iter(|| {
            let service = VodService::with_sink(
                black_box(&scenario),
                Box::new(Vra::default()),
                config(),
                NullSink,
            );
            black_box(service.run_full().0)
        })
    });

    group.bench_function("time_series_sink", |b| {
        b.iter(|| {
            let service = VodService::with_sink(
                black_box(&scenario),
                Box::new(Vra::default()),
                config(),
                TimeSeriesSink::new(),
            );
            let (report, _, sink) = service.run_full();
            black_box((report, sink.finish().len()))
        })
    });

    group.finish();
}

/// Serialization alone (no sink dispatch): one event rendered to JSON
/// into a reused buffer.
fn bench_serialize(c: &mut Criterion) {
    let at = SimTime::from_secs(12 * 3600);
    let event = sample_event();
    let mut buf = String::with_capacity(256);
    c.bench_function("obs/serialize/write_json", |b| {
        b.iter(|| {
            buf.clear();
            black_box(&event).write_json(black_box(at), &mut buf);
            black_box(buf.len())
        })
    });
}

criterion_group!(
    benches,
    bench_emit,
    bench_sparse_year,
    bench_serialize,
    bench_scale_stress
);
criterion_main!(benches);
