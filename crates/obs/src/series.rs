//! Windowed time-series aggregation over the event stream.
//!
//! [`TimeSeriesSink`] is an [`EventSink`] that folds the deterministic
//! event stream into fixed-width sim-time windows online — O(1) counter
//! updates per event (plus an O(log live) set operation on session
//! start/end and an O(links) copy on the rare `link_state` snapshots) —
//! so it can ride along a full `scale_stress` run at hundreds of
//! thousands of events per second. The result is the time-resolved view
//! the paper's Figures 2/3/5 are drawn from: per-interval concurrent
//! sessions, per-link utilization, admission/abort/retry counts, DMA
//! hit ratios, the VRA's local-vs-remote selection split and SNMP
//! staleness.
//!
//! Windows are aligned to absolute sim time (window `k` covers
//! `[k·width, (k+1)·width)`), so two runs of the same scenario produce
//! byte-identical series. The series opens at the first
//! `request_arrival` (the preamble and any idle lead-in before the
//! workload carry no windows) and every window from then on is emitted,
//! including empty ones:
//! gauges (live sessions, link utilization) carry forward through
//! eventless windows so the series has no gaps.
//!
//! Export is hand-rolled JSON/CSV in the same shortest-roundtrip float
//! style as [`Event::write_json`](crate::Event::write_json): no map
//! iteration, fixed field order, byte-stable across reruns.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use vod_sim::{SimDuration, SimTime};

use crate::event::Event;
use crate::sink::EventSink;

/// One fixed-width window of aggregated counters and end-of-window
/// gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesWindow {
    /// Window start (inclusive), raw microseconds of sim time.
    pub start_us: u64,
    /// Window end (exclusive), raw microseconds of sim time.
    pub end_us: u64,
    /// `request_arrival` events in the window.
    pub arrivals: u64,
    /// `session_start` events (admissions that reached playout).
    pub starts: u64,
    /// `session_complete` events.
    pub completes: u64,
    /// `session_aborted` events.
    pub aborts: u64,
    /// `request_failed` events (admission-time failures).
    pub failures: u64,
    /// `request_rejected` events.
    pub rejections: u64,
    /// `session_retry` events.
    pub retries: u64,
    /// Mid-stream `switch` events.
    pub switches: u64,
    /// DMA cache hits.
    pub dma_hits: u64,
    /// DMA admissions (movements into a cache).
    pub dma_admits: u64,
    /// DMA evictions (titles displaced to make room for an admission).
    pub dma_evicts: u64,
    /// DMA rejections.
    pub dma_rejects: u64,
    /// Prefix-store hits at regional proxies (includes hits that
    /// extended the resident prefix).
    pub prefix_hits: u64,
    /// Prefix admissions at regional proxies.
    pub prefix_admits: u64,
    /// Prefix evictions at regional proxies.
    pub prefix_evicts: u64,
    /// Prefix rejections at regional proxies.
    pub prefix_rejects: u64,
    /// VRA selections that chose the client's local server.
    pub vra_local: u64,
    /// VRA selections that chose a remote server.
    pub vra_remote: u64,
    /// SNMP polling rounds observed in the window.
    pub snmp_polls: u64,
    /// Worst SNMP staleness observed in the window (µs); includes
    /// `snmp_stale_view` reports during poller outages.
    pub max_staleness_us: u64,
    /// Live sessions at the end of the window (carried forward through
    /// empty windows).
    pub sessions: u64,
    /// Peak live sessions at any point within the window.
    pub peak_sessions: u64,
    /// Per-link utilization (fraction of capacity) at the end of the
    /// window — the gauge from the most recent `link_state` snapshot.
    pub utilization: Vec<f64>,
    /// Per-link maximum utilization observed within the window.
    pub util_max: Vec<f64>,
}

impl SeriesWindow {
    fn fresh(start_us: u64, width_us: u64, live: u64, util: &[f64]) -> Self {
        SeriesWindow {
            start_us,
            end_us: start_us + width_us,
            arrivals: 0,
            starts: 0,
            completes: 0,
            aborts: 0,
            failures: 0,
            rejections: 0,
            retries: 0,
            switches: 0,
            dma_hits: 0,
            dma_admits: 0,
            dma_evicts: 0,
            dma_rejects: 0,
            prefix_hits: 0,
            prefix_admits: 0,
            prefix_evicts: 0,
            prefix_rejects: 0,
            vra_local: 0,
            vra_remote: 0,
            snmp_polls: 0,
            max_staleness_us: 0,
            sessions: live,
            peak_sessions: live,
            utilization: util.to_vec(),
            util_max: util.to_vec(),
        }
    }

    /// DMA hit ratio over the window's cache decisions
    /// (`hits / (hits + admits + rejects)`), or `None` when the window
    /// saw no DMA decisions.
    pub fn dma_hit_ratio(&self) -> Option<f64> {
        let total = self.dma_hits + self.dma_admits + self.dma_rejects;
        if total == 0 {
            None
        } else {
            Some(self.dma_hits as f64 / total as f64)
        }
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"start_us\":{},\"end_us\":{},\"arrivals\":{},\"starts\":{},\
             \"completes\":{},\"aborts\":{},\"failures\":{},\"rejections\":{},\
             \"retries\":{},\"switches\":{},\"dma_hits\":{},\"dma_admits\":{},\
             \"dma_evicts\":{},\"dma_rejects\":{}",
            self.start_us,
            self.end_us,
            self.arrivals,
            self.starts,
            self.completes,
            self.aborts,
            self.failures,
            self.rejections,
            self.retries,
            self.switches,
            self.dma_hits,
            self.dma_admits,
            self.dma_evicts,
            self.dma_rejects,
        );
        match self.dma_hit_ratio() {
            Some(r) => {
                let _ = write!(out, ",\"dma_hit_ratio\":{r}");
            }
            None => out.push_str(",\"dma_hit_ratio\":null"),
        }
        let _ = write!(
            out,
            ",\"prefix_hits\":{},\"prefix_admits\":{},\"prefix_evicts\":{},\
             \"prefix_rejects\":{}",
            self.prefix_hits, self.prefix_admits, self.prefix_evicts, self.prefix_rejects,
        );
        let _ = write!(
            out,
            ",\"vra_local\":{},\"vra_remote\":{},\"snmp_polls\":{},\
             \"max_staleness_us\":{},\"sessions\":{},\"peak_sessions\":{}",
            self.vra_local,
            self.vra_remote,
            self.snmp_polls,
            self.max_staleness_us,
            self.sessions,
            self.peak_sessions,
        );
        out.push_str(",\"utilization\":[");
        for (i, u) in self.utilization.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{u}");
        }
        out.push_str("],\"util_max\":[");
        for (i, u) in self.util_max.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{u}");
        }
        out.push_str("]}");
    }
}

/// The finished series: every window from the first arrival to the last
/// event, gap-free, plus the stream geometry needed to interpret the
/// per-link columns.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesReport {
    /// Window width in microseconds.
    pub window_us: u64,
    /// Number of links in the topology (length of the per-link vectors).
    pub links: usize,
    /// Total events the sink observed (including preamble events before
    /// the first window opened).
    pub events: u64,
    /// The windows, in time order.
    pub windows: Vec<SeriesWindow>,
}

impl SeriesReport {
    /// Serializes the series as byte-stable JSON: one window object per
    /// line inside a `windows` array, fixed field order, trailing
    /// newline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"window_us\":{},\"links\":{},\"events\":{},\"windows\":[",
            self.window_us, self.links, self.events
        );
        for (i, w) in self.windows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            w.write_json(&mut out);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Serializes the series as byte-stable CSV: fixed columns followed
    /// by one end-of-window utilization column per link (`util_0..`).
    /// `dma_hit_ratio` is empty when the window saw no DMA decisions.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "start_us,end_us,arrivals,starts,completes,aborts,failures,\
             rejections,retries,switches,dma_hits,dma_admits,dma_evicts,\
             dma_rejects,dma_hit_ratio,prefix_hits,prefix_admits,\
             prefix_evicts,prefix_rejects,vra_local,vra_remote,snmp_polls,\
             max_staleness_us,sessions,peak_sessions",
        );
        for i in 0..self.links {
            let _ = write!(out, ",util_{i}");
        }
        out.push('\n');
        for w in &self.windows {
            let _ = write!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},",
                w.start_us,
                w.end_us,
                w.arrivals,
                w.starts,
                w.completes,
                w.aborts,
                w.failures,
                w.rejections,
                w.retries,
                w.switches,
                w.dma_hits,
                w.dma_admits,
                w.dma_evicts,
                w.dma_rejects,
            );
            if let Some(r) = w.dma_hit_ratio() {
                let _ = write!(out, "{r}");
            }
            let _ = write!(
                out,
                ",{},{},{},{}",
                w.prefix_hits, w.prefix_admits, w.prefix_evicts, w.prefix_rejects,
            );
            let _ = write!(
                out,
                ",{},{},{},{},{},{}",
                w.vra_local,
                w.vra_remote,
                w.snmp_polls,
                w.max_staleness_us,
                w.sessions,
                w.peak_sessions,
            );
            for u in &w.utilization {
                let _ = write!(out, ",{u}");
            }
            out.push('\n');
        }
        out
    }
}

/// Streaming windowed aggregator over the event stream; see the module
/// docs for the window model.
#[derive(Debug)]
pub struct TimeSeriesSink {
    width_us: u64,
    /// Index of the window currently accumulating (valid when `open`).
    current: u64,
    open: bool,
    acc: SeriesWindow,
    windows: Vec<SeriesWindow>,
    /// Live session ids (started, not yet completed/aborted).
    live: BTreeSet<u64>,
    /// Carry-forward per-link utilization gauge from the most recent
    /// `link_state` snapshot.
    link_util: Vec<f64>,
    links: usize,
    events: u64,
}

impl TimeSeriesSink {
    /// Default window width: one minute of sim time, matching the
    /// paper's minutes-scale experiment horizon.
    pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_secs(60);

    /// Creates a sink with the default one-minute window.
    pub fn new() -> Self {
        Self::with_window(Self::DEFAULT_WINDOW)
    }

    /// Creates a sink with a custom window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(window: SimDuration) -> Self {
        let width_us = window.as_micros();
        assert!(width_us > 0, "TimeSeriesSink window must be non-zero");
        TimeSeriesSink {
            width_us,
            current: 0,
            open: false,
            acc: SeriesWindow::fresh(0, width_us, 0, &[]),
            windows: Vec::new(),
            live: BTreeSet::new(),
            link_util: Vec::new(),
            links: 0,
            events: 0,
        }
    }

    /// Window width in microseconds.
    pub fn window_us(&self) -> u64 {
        self.width_us
    }

    /// Events observed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Closes the accumulating window and returns the finished series.
    pub fn finish(mut self) -> SeriesReport {
        if self.open {
            self.seal_current();
        }
        SeriesReport {
            window_us: self.width_us,
            links: self.links,
            events: self.events,
            windows: self.windows,
        }
    }

    fn seal_current(&mut self) {
        let live = self.live.len() as u64;
        let next_start = self.acc.end_us;
        let mut done = SeriesWindow::fresh(next_start, self.width_us, live, &self.link_util);
        std::mem::swap(&mut done, &mut self.acc);
        done.sessions = live;
        done.utilization.clear();
        done.utilization.extend_from_slice(&self.link_util);
        self.windows.push(done);
        self.current += 1;
    }

    /// Seals finished windows (including gap windows that saw no
    /// events) until `index` is the accumulating window.
    fn roll_to(&mut self, index: u64) {
        while self.current < index {
            self.seal_current();
        }
    }

    #[deny(clippy::wildcard_enum_match_arm)]
    fn apply(&mut self, event: &Event) {
        match event {
            Event::TopologySnapshot { links, .. } => {
                self.links = links.len();
                self.link_util = vec![0.0; links.len()];
            }
            Event::LinkState { utilization, .. } => {
                self.link_util.clear();
                self.link_util.extend_from_slice(utilization);
                if self.open {
                    if self.acc.util_max.len() < utilization.len() {
                        self.acc.util_max.resize(utilization.len(), 0.0);
                    }
                    for (max, u) in self.acc.util_max.iter_mut().zip(utilization) {
                        if *u > *max {
                            *max = *u;
                        }
                    }
                }
            }
            _ if !self.open => {}
            Event::RequestArrival { .. } => self.acc.arrivals += 1,
            Event::RequestFailed { .. } => self.acc.failures += 1,
            Event::RequestRejected { .. } => self.acc.rejections += 1,
            Event::DmaHit { .. } => self.acc.dma_hits += 1,
            Event::DmaAdmit { .. } => self.acc.dma_admits += 1,
            Event::DmaEvict { .. } => self.acc.dma_evicts += 1,
            Event::DmaReject { .. } => self.acc.dma_rejects += 1,
            Event::PrefixHit { .. } => self.acc.prefix_hits += 1,
            Event::PrefixAdmit { .. } => self.acc.prefix_admits += 1,
            Event::PrefixEvict { .. } => self.acc.prefix_evicts += 1,
            Event::PrefixReject { .. } => self.acc.prefix_rejects += 1,
            Event::VraSelect { local, .. } => {
                if *local {
                    self.acc.vra_local += 1;
                } else {
                    self.acc.vra_remote += 1;
                }
            }
            Event::Switch { .. } => self.acc.switches += 1,
            Event::SessionStart { session, .. } => {
                self.acc.starts += 1;
                self.live.insert(*session);
                let live = self.live.len() as u64;
                if live > self.acc.peak_sessions {
                    self.acc.peak_sessions = live;
                }
            }
            Event::SessionComplete { session, .. } => {
                self.acc.completes += 1;
                self.live.remove(session);
            }
            Event::SessionAborted { session, .. } => {
                self.acc.aborts += 1;
                self.live.remove(session);
            }
            Event::SessionRetry { .. } => self.acc.retries += 1,
            Event::SnmpPoll { staleness, .. } => {
                self.acc.snmp_polls += 1;
                let us = staleness.as_micros();
                if us > self.acc.max_staleness_us {
                    self.acc.max_staleness_us = us;
                }
            }
            Event::SnmpStaleView { staleness } => {
                let us = staleness.as_micros();
                if us > self.acc.max_staleness_us {
                    self.acc.max_staleness_us = us;
                }
            }
            // Deliberately not aggregated: run preamble/config events
            // carry no per-window signal, catalog and fault transitions
            // are reflected in the counters and gauges they cause
            // (arrivals, aborts, link_state utilization), and stall/
            // resume pairs surface through SessionComplete's stall
            // totals. Listing them (and the deny above, which forbids a
            // bare `_` arm) keeps this match exhaustive, so a new Event
            // variant is a compile error here.
            Event::RunConfig { .. }
            | Event::CacheConfig { .. }
            | Event::PrefixCacheConfig { .. }
            | Event::PrefixExtend { .. }
            | Event::PrefixServe { .. }
            | Event::DmaSeed { .. }
            | Event::CatalogAdd { .. }
            | Event::CatalogRemove { .. }
            | Event::SessionStall { .. }
            | Event::SessionResume { .. }
            | Event::BackgroundUpdate
            | Event::ServerDown { .. }
            | Event::ServerUp { .. }
            | Event::LinkDown { .. }
            | Event::LinkUp { .. }
            | Event::LinkDegradeStart { .. }
            | Event::LinkDegradeEnd { .. }
            | Event::SnmpOutageStart
            | Event::SnmpOutageEnd => {}
        }
    }
}

impl Default for TimeSeriesSink {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for TimeSeriesSink {
    fn record(&mut self, at: SimTime, event: &Event) {
        self.events += 1;
        let index = at.as_micros() / self.width_us;
        if !self.open {
            if matches!(event, Event::RequestArrival { .. }) {
                self.current = index;
                self.acc = SeriesWindow::fresh(
                    index * self.width_us,
                    self.width_us,
                    self.live.len() as u64,
                    &self.link_util,
                );
                self.open = true;
            }
        } else if index > self.current {
            self.roll_to(index);
        }
        self.apply(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(request: u64) -> Event {
        Event::RequestArrival {
            request,
            client: vod_net::NodeId::new(0),
            video: vod_storage::VideoId::new(0),
        }
    }

    fn start(session: u64) -> Event {
        Event::SessionStart {
            session,
            startup: SimDuration::from_secs(2),
        }
    }

    fn complete(session: u64) -> Event {
        Event::SessionComplete {
            session,
            stalls: 0,
            stall_time: SimDuration::ZERO,
            switches: 0,
        }
    }

    #[test]
    fn windows_align_to_absolute_time_and_carry_gauges() {
        let mut sink = TimeSeriesSink::with_window(SimDuration::from_secs(10));
        sink.record(SimTime::from_secs(15), &arrival(1));
        sink.record(SimTime::from_secs(16), &start(1));
        // Nothing for four windows; session 1 stays live.
        sink.record(SimTime::from_secs(57), &complete(1));
        let report = sink.finish();
        assert_eq!(report.windows.len(), 5);
        assert_eq!(report.windows[0].start_us, 10_000_000);
        for pair in report.windows.windows(2) {
            assert_eq!(pair[0].end_us, pair[1].start_us);
        }
        assert_eq!(report.windows[0].arrivals, 1);
        assert_eq!(report.windows[0].sessions, 1);
        // Gap windows carry the live-session gauge forward.
        assert_eq!(report.windows[2].sessions, 1);
        assert_eq!(report.windows[2].peak_sessions, 1);
        assert_eq!(report.windows[4].completes, 1);
        assert_eq!(report.windows[4].sessions, 0);
        // Peak within the final window still saw the live session.
        assert_eq!(report.windows[4].peak_sessions, 1);
    }

    #[test]
    fn series_opens_at_first_arrival() {
        let mut sink = TimeSeriesSink::with_window(SimDuration::from_secs(10));
        sink.record(
            SimTime::ZERO,
            &Event::SnmpPoll {
                readings: 4,
                staleness: SimDuration::ZERO,
            },
        );
        sink.record(SimTime::from_secs(25), &arrival(1));
        let report = sink.finish();
        assert_eq!(report.windows.len(), 1);
        assert_eq!(report.windows[0].start_us, 20_000_000);
        // The pre-arrival poll is counted as an event but lands in no
        // window.
        assert_eq!(report.events, 2);
        assert_eq!(report.windows[0].snmp_polls, 0);
    }

    #[test]
    fn json_and_csv_are_stable_and_parallel() {
        let mut sink = TimeSeriesSink::with_window(SimDuration::from_secs(10));
        sink.record(
            SimTime::ZERO,
            &Event::TopologySnapshot {
                nodes: vec![("a".into(), true), ("b".into(), true)],
                links: vec![(vod_net::NodeId::new(0), vod_net::NodeId::new(1), 10.0)],
            },
        );
        sink.record(SimTime::from_secs(1), &arrival(1));
        sink.record(
            SimTime::from_secs(2),
            &Event::LinkState {
                used: vec![2.5],
                utilization: vec![0.25],
                down: vec![],
            },
        );
        let report = sink.finish();
        let json = report.to_json();
        assert!(json.contains("\"utilization\":[0.25]"));
        assert!(json.contains("\"dma_hit_ratio\":null"));
        assert!(json.ends_with("]}\n"));
        let csv = report.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap_or_default();
        assert!(header.ends_with("peak_sessions,util_0"));
        assert_eq!(lines.count(), report.windows.len());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_panics() {
        let _ = TimeSeriesSink::with_window(SimDuration::ZERO);
    }
}
