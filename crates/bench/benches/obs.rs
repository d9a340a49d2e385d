//! Criterion bench: event-emission overhead of the observability sinks.
//!
//! Every instrumentation site in the service is an
//! [`EventSink::emit`] with a closure that builds the event; this bench
//! measures what one such emission costs per sink, the event built from
//! plain fields as at a service site. [`NullSink`]'s constant-false
//! `enabled()` lets the whole call fold away under monomorphization —
//! the closure never runs — so its row should read as ~0 ns: the number
//! that justifies leaving the instrumentation compiled into the
//! paper-exact binaries.
//!
//! `obs/emit/jsonl_writer` times the caller's side of a `JsonlWriter`
//! whose formatter thread is running (on a host with more than one
//! CPU): the clone into the batch and the write-back of returned lines.
//! The bench records far faster than one worker formats, so the caller
//! blocks whenever two batches are out and the row reads the sustained
//! rate of the pair, not the caller's cost inside a service run, where
//! the simulation between events leaves the worker time to keep up.
//! `obs/serialize/*` gate the formatter itself.
//!
//! `obs/emit/time_series_sink` emits at one fixed instant, so it never
//! seals a window: it is the cost of a counter update. `obs/series/
//! sparse_year` is the other end — a year of one-minute windows with
//! about two events per window, so nearly every emission also seals one
//! window into the packed log.
//!
//! `CRITERION_JSON=out.json cargo bench --bench obs` writes the fresh
//! rows `ci.sh` holds against the committed `BENCH_obs.json`; a
//! re-recorded row keeps its `limit`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use vod_net::NodeId;
use vod_obs::{Event, EventSink, JsonlWriter, NullSink, RingRecorder, TeeSink, TimeSeriesSink};
use vod_sim::{SimDuration, SimTime};
use vod_storage::video::VideoId;

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
    let mut group = c.benchmark_group("obs/emit");

    let mut null = NullSink;
    group.bench_function("null_sink", |b| {
        b.iter(|| null.emit(black_box(at), || black_box(sample_event())))
    });

    let mut ring = RingRecorder::new(4096);
    group.bench_function("ring_recorder", |b| {
        b.iter(|| ring.emit(black_box(at), || black_box(sample_event())))
    });

    let mut jsonl = JsonlWriter::new(std::io::sink());
    group.bench_function("jsonl_writer", |b| {
        b.iter(|| jsonl.emit(black_box(at), || black_box(sample_event())))
    });

    let mut series = TimeSeriesSink::new();
    group.bench_function("time_series_sink", |b| {
        b.iter(|| series.emit(black_box(at), || black_box(sample_event())))
    });

    let mut tee = TeeSink::new(NullSink, TimeSeriesSink::new());
    group.bench_function("tee_null_series", |b| {
        b.iter(|| tee.emit(black_box(at), || black_box(sample_event())))
    });

    group.finish();
}

/// ns per event over a long, sparse horizon, sealing included: a year
/// of one-minute windows shaped like a steady service — an SNMP poll
/// and a `link_state` every second minute (the row moves on every
/// fourth poll, up then down), an arrival / start / complete triple
/// every third. Each iteration records the year's next event — a stored
/// one, so it goes straight to `record` (the series sink is always
/// enabled); the sink is replaced when the year wraps, so the log never
/// outgrows one year.
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
            sink.record(black_box(at), black_box(event))
        })
    });
}

/// Serialization alone (no sink dispatch): one event rendered to JSON
/// into a reused buffer. `write_json` is the mid-size `vra_select`;
/// `link_state` is the float-heavy row a snapshot rebuild emits on
/// GRNET's 7 links, every value 17 significant digits, so it gates the
/// float writer on its own.
fn bench_serialize(c: &mut Criterion) {
    let at = SimTime::from_secs(12 * 3600);
    let mut buf = String::with_capacity(512);
    let mut serialize = |id: &str, event: Event| {
        c.bench_function(id, |b| {
            b.iter(|| {
                buf.clear();
                black_box(&event).write_json(black_box(at), &mut buf);
                black_box(buf.len())
            })
        });
    };
    serialize("obs/serialize/write_json", sample_event());
    serialize(
        "obs/serialize/link_state",
        Event::LinkState {
            used: vec![
                11.400779660569784,
                13.481272312062764,
                14.415887397399691,
                16.992879966098382,
                13.448225057948788,
                16.640687441644797,
                1.0075914949632578,
            ],
            utilization: vec![
                0.12207390500661291,
                0.22456250245920967,
                0.28668754235099925,
                0.16800817023445785,
                0.14737974421491415,
                0.13543224022476702,
                0.011757113580509298,
            ],
            down: vec![],
        },
    );
}

criterion_group!(benches, bench_emit, bench_sparse_year, bench_serialize);
criterion_main!(benches);
