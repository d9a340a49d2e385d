//! The traced run: the service is driven event instant by event
//! instant from outside (`next_event_at` → `run_until`), every step is
//! an in-memory span, and a benchmark-owned sink reports which obs
//! events the step emitted. That fixes the step's kind, counts the work
//! each layer was asked to do, and records the operating point the
//! layer drivers replay.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use serde::Value;
use vod_core::service::VodService;
use vod_core::ServiceReport;
use vod_net::NodeId;
use vod_obs::{Event, EventSink, TeeSink};
use vod_sim::SimTime;

use crate::layers;
use crate::run::{
    full_sinks, new_service, report_metrics, service_counters, workload_metrics, Metrics,
};
use crate::stats::{percentile, tail_percentile};
use crate::workloads::Workload;

/// Step kinds in classification priority: a step that emitted events
/// of several classes takes the first that matches; a silent step
/// (flow checks, playout ticks) is `other`.
pub const STEP_KINDS: [&str; 6] = [
    "fault",
    "arrival",
    "snmp_poll",
    "background",
    "cluster_boundary",
    "other",
];
const OTHER: usize = STEP_KINDS.len() - 1;

/// The step kind an obs event kind implies, if any, as an index into
/// [`STEP_KINDS`].
fn step_class(event_kind: &str) -> Option<usize> {
    let step_kind = match event_kind {
        "server_down" | "server_up" | "link_down" | "link_up" | "link_degrade_start"
        | "link_degrade_end" | "snmp_outage_start" | "snmp_outage_end" => "fault",
        "request_arrival" => "arrival",
        "snmp_poll" | "snmp_stale_view" => "snmp_poll",
        "background_update" => "background",
        "vra_select" | "prefix_serve" | "session_complete" => "cluster_boundary",
        _ => return None,
    };
    STEP_KINDS.iter().position(|kind| *kind == step_kind)
}

/// How many remote `(home, server)` pairs and obs events are kept for
/// the layer drivers, and the sampling stride of the latter (every
/// 8th event, so 100k samples span the first 800k of a long run).
const MAX_REMOTE_PAIRS: usize = 4_096;
const MAX_CAPTURED_EVENTS: usize = 100_000;
const CAPTURE_STRIDE: u64 = 8;

/// What the benchmark's sink saw. Event kinds are interned in order of
/// first appearance; a kind's index is its bit in the step mask.
#[derive(Default)]
pub struct Observed {
    kinds: Vec<&'static str>,
    counts: Vec<u64>,
    /// Bit `i` set: kind `i` was emitted since the mask was last taken.
    mask: u64,
    /// Per step kind, the bits of the event kinds that imply it.
    class_masks: [u64; OTHER],
    /// The bit of `vra_select`, the event a cluster fetch starts with.
    fetch_mask: u64,
    pub events_emitted: u64,
    pub remote_fetches: u64,
    pub local_fetches: u64,
    /// The first remote `(home, server)` selections, in emission order.
    pub remote_pairs: Vec<(NodeId, NodeId)>,
    /// A strided sample of the run's events (set-up preamble excluded).
    pub captured: Vec<(SimTime, Event)>,
    capturing: bool,
}

impl Observed {
    pub fn count_of(&self, kind: &str) -> u64 {
        self.kinds
            .iter()
            .position(|k| *k == kind)
            .map_or(0, |i| self.counts[i])
    }

    fn kind_of_step(&self, mask: u64) -> usize {
        self.class_masks
            .iter()
            .position(|class| class & mask != 0)
            .unwrap_or(OTHER)
    }

    fn names_in(&self, mask: u64) -> Vec<Value> {
        self.kinds
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| Value::Str((*k).to_string()))
            .collect()
    }
}

/// The benchmark-owned sink; the driver holds the other `Rc`.
struct StepSink(Rc<RefCell<Observed>>);

impl EventSink for StepSink {
    fn record(&mut self, at: SimTime, event: &Event) {
        let o = &mut *self.0.borrow_mut();
        let kind = event.kind();
        let slot = match o.kinds.iter().position(|k| *k == kind) {
            Some(slot) => slot,
            None => {
                assert!(o.kinds.len() < 64, "more event kinds than mask bits");
                if let Some(class) = step_class(kind) {
                    o.class_masks[class] |= 1 << o.kinds.len();
                }
                if kind == "vra_select" {
                    o.fetch_mask = 1 << o.kinds.len();
                }
                o.kinds.push(kind);
                o.counts.push(0);
                o.kinds.len() - 1
            }
        };
        o.counts[slot] += 1;
        o.mask |= 1 << slot;
        o.events_emitted += 1;
        if let Event::VraSelect {
            home,
            server,
            local,
            ..
        } = event
        {
            if *local {
                o.local_fetches += 1;
            } else {
                o.remote_fetches += 1;
                if o.remote_pairs.len() < MAX_REMOTE_PAIRS {
                    o.remote_pairs.push((*home, *server));
                }
            }
        }
        if o.capturing
            && o.events_emitted.is_multiple_of(CAPTURE_STRIDE)
            && o.captured.len() < MAX_CAPTURED_EVENTS
        {
            o.captured.push((at, event.clone()));
        }
    }
}

/// One step span. Its parent is the run span that holds it; its index
/// is its position there.
struct Step {
    start_ns: u64,
    dur_ns: u64,
    sim_us: u64,
    /// Event kinds the step emitted (bits index `Observed::kinds`).
    emitted: u64,
}

/// Slowest steps kept per kind in the trace file.
const SLOWEST_KEPT: usize = 100;

/// Drives `service` to the end one event instant at a time. Spans are
/// contiguous — each runs from the end of the previous one — so one
/// clock read per step suffices and the tracer's own bookkeeping is
/// inside the spans. Returns the steps and the wall time including the
/// report.
fn drive<S: EventSink>(
    mut service: VodService<S>,
    observed: &RefCell<Observed>,
    m: &mut Metrics,
) -> (Vec<Step>, ServiceReport, f64) {
    let mut steps = Vec::new();
    {
        let o = &mut *observed.borrow_mut();
        o.mask = 0;
        o.capturing = true;
    }
    let (mut live_sum, mut live_samples) = (0, 0u64);
    let t_run = Instant::now();
    let mut last = 0;
    while let Some(at) = service.next_event_at() {
        service.run_until(at);
        let end = t_run.elapsed().as_nanos() as u64;
        let (emitted, fetch_step) = {
            let o = &mut *observed.borrow_mut();
            let emitted = std::mem::take(&mut o.mask);
            (emitted, emitted & o.fetch_mask != 0)
        };
        // The flow population is sampled where cluster fetches start,
        // because that is where flows are added.
        if fetch_step {
            live_sum += service.live_sessions();
            live_samples += 1;
        }
        steps.push(Step {
            start_ns: last,
            dur_ns: end - last,
            sim_us: at.as_micros(),
            emitted,
        });
        last = end;
    }
    service_counters(&service, m);
    m.insert(
        "mean_live_sessions".into(),
        live_sum as f64 / live_samples.max(1) as f64,
    );
    let report = service.into_report();
    (steps, report, t_run.elapsed().as_secs_f64())
}

/// Runs `workload` once under the step tracer, then the layer drivers
/// at the operating point the run revealed. Returns the child's metric
/// map and the trace document for `trace-<workload>.json`.
pub fn traced(workload: &Workload, seed: u64) -> (Metrics, Value) {
    let observed = Rc::new(RefCell::new(Observed::default()));
    let step_sink = StepSink(Rc::clone(&observed));
    let inputs = (workload.inputs)(seed);
    let mut m = Metrics::new();
    // The traced run carries the sinks the workload is defined with,
    // so its steps cost what the end-to-end run's do.
    let jsonl_bytes = Rc::default();
    let (steps, report, traced_run_s) = if workload.sinks {
        let sinks = TeeSink::new(step_sink, full_sinks(&jsonl_bytes));
        drive(new_service(&inputs, sinks), &observed, &mut m)
    } else {
        drive(new_service(&inputs, step_sink), &observed, &mut m)
    };
    let stepped_ns = steps.last().map_or(0, |s| s.start_ns + s.dur_ns);

    let observed = observed.borrow();
    m.insert("traced_run_s".into(), traced_run_s);
    m.insert("traced_stepped_s".into(), stepped_ns as f64 / 1e9);
    workload_metrics(&inputs, &mut m);
    report_metrics(&report, inputs.scenario.trace().len(), &mut m);
    m.insert("obs.jsonl_bytes".into(), jsonl_bytes.get() as f64);
    m.insert("obs.events_emitted".into(), observed.events_emitted as f64);
    m.insert(
        "sim.flow.remote_fetches".into(),
        observed.remote_fetches as f64,
    );
    m.insert(
        "sim.flow.local_fetches".into(),
        observed.local_fetches as f64,
    );
    m.insert(
        "sim.flow.background_updates".into(),
        observed.count_of("background_update") as f64,
    );

    let kinds = step_table(&steps, &observed, &mut m);
    let unit_costs = layers::drive(&inputs, &observed, &mut m);

    let emitted = observed
        .kinds
        .iter()
        .zip(&observed.counts)
        .map(|(k, n)| ((*k).to_string(), Value::U64(*n)))
        .collect();
    let doc = Value::Object(vec![
        ("workload".into(), Value::Str(workload.name.into())),
        ("seed".into(), Value::U64(seed)),
        (
            "run_span".into(),
            Value::Object(vec![
                ("start_ns".into(), Value::U64(0)),
                ("dur_ns".into(), Value::U64(stepped_ns)),
                ("steps".into(), Value::U64(steps.len() as u64)),
                ("events".into(), Value::F64(m["core.events"])),
            ]),
        ),
        ("step_kinds".into(), kinds),
        ("events_emitted".into(), Value::Object(emitted)),
        ("layer_unit_costs".into(), unit_costs),
    ]);
    (m, doc)
}

/// Per-kind aggregates into `m`, and the trace file's per-kind section
/// (aggregates plus the slowest steps with what they emitted).
fn step_table(steps: &[Step], observed: &Observed, m: &mut Metrics) -> Value {
    let mut by_kind: [Vec<usize>; STEP_KINDS.len()] = Default::default();
    for (i, s) in steps.iter().enumerate() {
        by_kind[observed.kind_of_step(s.emitted)].push(i);
    }
    let mut sections = Vec::new();
    for (kind, mut members) in STEP_KINDS.iter().zip(by_kind) {
        let mut durs: Vec<f64> = members.iter().map(|&i| steps[i].dur_ns as f64).collect();
        durs.sort_by(f64::total_cmp);
        // An empty float sum is -0.0.
        let busy_s = (durs.iter().sum::<f64>() + 0.0) / 1e9;
        let tail = tail_percentile(durs.len());
        let (p50, p99) = (percentile(&durs, 0.5), percentile(&durs, tail));
        let key = |field: &str| format!("core.step.{kind}.{field}");
        m.insert(key("count"), durs.len() as f64);
        m.insert(key("busy_s"), busy_s);
        m.insert(key("p50_ns"), p50);
        m.insert(key("p99_ns"), p99);

        members.sort_by_key(|&i| std::cmp::Reverse(steps[i].dur_ns));
        let slowest = members
            .iter()
            .take(SLOWEST_KEPT)
            .map(|&i| {
                let s = &steps[i];
                Value::Object(vec![
                    ("step".into(), Value::U64(i as u64)),
                    ("sim_us".into(), Value::U64(s.sim_us)),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("dur_ns".into(), Value::U64(s.dur_ns)),
                    ("emitted".into(), Value::Array(observed.names_in(s.emitted))),
                ])
            })
            .collect();
        sections.push((
            (*kind).to_string(),
            Value::Object(vec![
                ("count".into(), Value::U64(durs.len() as u64)),
                ("busy_s".into(), Value::F64(busy_s)),
                ("p50_ns".into(), Value::F64(p50)),
                ("p99_ns".into(), Value::F64(p99)),
                // The percentile `p99_ns` was taken at: 0.99 when ten
                // samples lie beyond it, lower for rare kinds.
                ("tail_percentile".into(), Value::F64(tail)),
                ("slowest".into(), Value::Array(slowest)),
            ]),
        ));
    }
    Value::Object(sections)
}
