//! Pins for the periodic path — the SNMP poll and the background
//! refresh: the smoothed SNMP view (the one consumer of the per-link
//! reading history) and a trace whose ticks mostly fire over an idle
//! backbone. Recorded with the `Vec` reading history, the per-reading
//! poll loop and the refresh that refilled an empty network; whatever
//! replaces them must reproduce every byte.

use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_integration_tests::{fnv1a, grnet};
use vod_obs::{JsonlWriter, TeeSink, TimeSeriesSink};
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_workload::scenario::Scenario;
use vod_workload::{LibraryConfig, LibraryGenerator, Request, RequestTrace};

/// Runs `scenario` with a tee'd JSONL + time-series sink; returns the
/// trace text and the `--series` JSON.
fn traced_run(scenario: &Scenario, config: ServiceConfig) -> (String, String) {
    let sink = TeeSink::new(JsonlWriter::new(Vec::new()), TimeSeriesSink::new());
    let service = VodService::with_sink(scenario, Box::new(Vra::default()), config, sink);
    let (_, sink) = service.run_full();
    let (jsonl, series) = sink.into_parts();
    let trace = String::from_utf8(jsonl.into_inner().expect("a Vec takes every write"))
        .expect("JSONL traces are UTF-8");
    (trace, series.finish().to_json())
}

/// The seed-42 GRNET day routed on the EWMA of each link's reading
/// history (`snmp_smoothing: Some(0.3)`): every `link_state` line is a
/// fold over the retained readings, duplicates from the two reporting
/// agents included, so the trace pins the history's content and order.
#[test]
fn golden_seed42_smoothed_trace_is_pinned() {
    let config = ServiceConfig {
        snmp_smoothing: Some(0.3),
        ..ServiceConfig::default()
    };
    let (text, _) = traced_run(&Scenario::grnet_case_study(42), config);
    let (raw, _) = traced_run(&Scenario::grnet_case_study(42), ServiceConfig::default());
    assert_ne!(text, raw, "smoothing must change the routed view");

    assert_eq!(text.len(), 267_102, "trace byte length drifted");
    assert_eq!(text.lines().count(), 3_007, "trace line count drifted");
    assert_eq!(
        fnv1a(text.as_bytes()),
        0xfc9d_ac3e_a01a_0df9,
        "trace content drifted"
    );

    let summary = vod_check::audit::audit_trace(&text);
    assert!(summary.is_clean(), "audit violations: {summary:?}");
}

/// Two busy evenings three days apart on GRNET under the Table 2
/// background: between them thousands of consecutive polls and
/// refreshes run with no session live, and the second evening's first
/// remote fetch routes on the view they left in the database.
fn silent_gap_scenario() -> Scenario {
    let grnet = grnet();
    let topology = grnet.topology().clone();
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 12,
        ..LibraryConfig::default()
    })
    .generate(42);
    let servers = topology.video_server_nodes();
    let videos: Vec<_> = library.ids().collect();
    let evening = |day: u64| SimTime::from_secs((day * 24 + 19) * 3600);
    let requests = [evening(0), evening(3)]
        .into_iter()
        .enumerate()
        .flat_map(|(night, start)| {
            let (servers, videos) = (&servers, &videos);
            (0..16usize).map(move |i| {
                let k = 16 * night + i;
                Request {
                    at: start + SimDuration::from_secs(431 * i as u64),
                    client: servers[k % servers.len()],
                    video: videos[(5 * k + 3) % videos.len()],
                }
            })
        })
        .collect();
    let background = BackgroundModel::grnet_table2(&grnet);
    Scenario::new(
        "silent-gap",
        topology,
        library,
        RequestTrace::new(requests),
        background,
        42,
    )
}

fn is_tick(line: &str) -> bool {
    line.contains("\"kind\":\"snmp_poll\"") || line.contains("\"kind\":\"background_update\"")
}

#[test]
fn silent_gap_trace_and_series_are_pinned() {
    let (text, series) = traced_run(&silent_gap_scenario(), ServiceConfig::default());

    // In plain terms. The gap is the longest run of consecutive tick
    // lines: three quiet days of them.
    let lines: Vec<&str> = text.lines().collect();
    let (mut gap_end, mut gap_len, mut run) = (0, 0, 0);
    for (i, line) in lines.iter().enumerate() {
        run = if is_tick(line) { run + 1 } else { 0 };
        if run > gap_len {
            (gap_end, gap_len) = (i + 1, run);
        }
    }
    assert!(gap_len > 5_000, "only {gap_len} consecutive ticks");
    // Every poll, before, inside and after the gap, writes each of
    // GRNET's 7 links once per adjacent server.
    let polls = || {
        lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"snmp_poll\""))
    };
    assert!(polls().count() > 2_000);
    assert!(polls().all(|l| l.contains("\"readings\":14,")));
    // The views the selector routed on after the gap, exactly as
    // recorded: the first is what the silent ticks left behind.
    let after_gap: Vec<&str> = lines[gap_end..]
        .iter()
        .copied()
        .filter(|l| l.contains("\"kind\":\"link_state\""))
        .collect();
    assert_eq!(
        after_gap.first().copied(),
        Some(
            "{\"at_us\":327600000000,\"kind\":\"link_state\",\"used\":[1.71103571428539,0.2238638690476364,9.068630952380287,0.5919285714284342,1.2327380952381646,5.6300595238096625,0.00014663690474966037],\"utilization\":[0.855517857142695,0.1119319345238182,0.5038128306877937,0.2959642857142171,0.6163690476190823,0.31278108465609233,0.00007331845237483019],\"down\":[]}"
        )
    );
    assert_eq!(after_gap.len(), 24);
    assert_eq!(
        fnv1a(after_gap.join("\n").as_bytes()),
        0xead0_8de1_108e_1eac,
        "a post-gap link_state line drifted"
    );

    assert_eq!(text.len(), 487_480, "trace byte length drifted");
    assert_eq!(lines.len(), 7_330, "trace line count drifted");
    assert_eq!(
        fnv1a(text.as_bytes()),
        0x8c77_80a0_934b_147c,
        "trace content drifted"
    );
    assert_eq!(series.len(), 3_022_596, "series byte length drifted");
    assert_eq!(
        fnv1a(series.as_bytes()),
        0x14de_b0ed_bfca_01f8,
        "series content drifted"
    );

    let summary = vod_check::audit::audit_trace(&text);
    assert!(summary.is_clean(), "audit violations: {summary:?}");
    let summary = vod_check::series::audit_series(&series, &summary);
    assert!(
        summary.is_clean(),
        "A013 violations: {:?}",
        summary.violations
    );
}
