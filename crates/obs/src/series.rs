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
//! # Storage: one packed append-only log
//!
//! A year of one-minute windows is half a million windows, and almost
//! all of them are almost empty, so the sink does not keep a
//! `SeriesWindow` per window. Sealing a window appends a record to one
//! byte log — a 3-byte presence mask (one bit per integer field, one
//! per row), the LEB128 of each non-zero field, the raw bits of the
//! `utilization` row only when it differs bitwise from the previous
//! sealed window's, and the raw bits of `util_max` only when it differs
//! bitwise from that window's `utilization` — and resets the one reused
//! accumulator in place. `start_us`/`end_us` are not stored (first
//! start + index × width). A sealed window costs no allocation and, on
//! a steady service year, under 32 bytes; the encoding is lossless over
//! the full `u64` range, every `f64` bit pattern and rows of any
//! length.
//!
//! [`TimeSeriesSink::finish`] seals the open window and moves the log
//! into the [`SeriesReport`]; nothing is decoded until a reader asks.
//! [`SeriesReport::windows`] decodes one [`SeriesWindow`] at a time, and
//! [`SeriesReport::write_json`]/[`write_csv`](SeriesReport::write_csv)
//! decode and format one window at a time into any `io::Write`, so
//! exporting a series never holds a second whole-run copy.
//!
//! Export is hand-rolled JSON/CSV in the same shortest-roundtrip float
//! style as [`Event::write_json`](crate::Event::write_json): no map
//! iteration, fixed field order, byte-stable across reruns.

use std::collections::BTreeSet;
use std::io;

use vod_sim::{SimDuration, SimTime};

use crate::event::Event;
use crate::sink::EventSink;

/// One fixed-width window of aggregated counters and end-of-window
/// gauges.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// The integer fields in log order: bit `i` of a record's presence
    /// mask says whether field `i` is stored (non-zero).
    fn ints_mut(&mut self) -> [&mut u64; INT_FIELDS] {
        [
            &mut self.arrivals,
            &mut self.starts,
            &mut self.completes,
            &mut self.aborts,
            &mut self.failures,
            &mut self.rejections,
            &mut self.retries,
            &mut self.switches,
            &mut self.dma_hits,
            &mut self.dma_admits,
            &mut self.dma_evicts,
            &mut self.dma_rejects,
            &mut self.prefix_hits,
            &mut self.prefix_admits,
            &mut self.prefix_evicts,
            &mut self.prefix_rejects,
            &mut self.vra_local,
            &mut self.vra_remote,
            &mut self.snmp_polls,
            &mut self.max_staleness_us,
            &mut self.sessions,
            &mut self.peak_sessions,
        ]
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

    fn write_json(&self, out: &mut impl io::Write) -> io::Result<()> {
        write!(
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
        )?;
        match self.dma_hit_ratio() {
            Some(r) => write!(out, ",\"dma_hit_ratio\":{r}")?,
            None => out.write_all(b",\"dma_hit_ratio\":null")?,
        }
        write!(
            out,
            ",\"prefix_hits\":{},\"prefix_admits\":{},\"prefix_evicts\":{},\
             \"prefix_rejects\":{},\"vra_local\":{},\"vra_remote\":{},\
             \"snmp_polls\":{},\"max_staleness_us\":{},\"sessions\":{},\
             \"peak_sessions\":{}",
            self.prefix_hits,
            self.prefix_admits,
            self.prefix_evicts,
            self.prefix_rejects,
            self.vra_local,
            self.vra_remote,
            self.snmp_polls,
            self.max_staleness_us,
            self.sessions,
            self.peak_sessions,
        )?;
        for (name, row) in [
            ("utilization", &self.utilization),
            ("util_max", &self.util_max),
        ] {
            write!(out, ",\"{name}\":[")?;
            for (i, u) in row.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                write!(out, "{u}")?;
            }
            out.write_all(b"]")?;
        }
        out.write_all(b"}")
    }

    fn write_csv(&self, out: &mut impl io::Write) -> io::Result<()> {
        write!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},",
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
        )?;
        if let Some(r) = self.dma_hit_ratio() {
            write!(out, "{r}")?;
        }
        write!(
            out,
            ",{},{},{},{},{},{},{},{},{},{}",
            self.prefix_hits,
            self.prefix_admits,
            self.prefix_evicts,
            self.prefix_rejects,
            self.vra_local,
            self.vra_remote,
            self.snmp_polls,
            self.max_staleness_us,
            self.sessions,
            self.peak_sessions,
        )?;
        for u in &self.utilization {
            write!(out, ",{u}")?;
        }
        out.write_all(b"\n")
    }
}

/// The CSV columns every series has, before the per-link `util_*` ones.
const CSV_FIXED_COLUMNS: &str = "start_us,end_us,arrivals,starts,completes,aborts,failures,\
    rejections,retries,switches,dma_hits,dma_admits,dma_evicts,\
    dma_rejects,dma_hit_ratio,prefix_hits,prefix_admits,\
    prefix_evicts,prefix_rejects,vra_local,vra_remote,snmp_polls,\
    max_staleness_us,sessions,peak_sessions";

/// Integer fields of a [`SeriesWindow`] stored in the log (everything
/// but `start_us`/`end_us`, which the window's index gives).
const INT_FIELDS: usize = 22;
/// Mask bit: the record carries a `utilization` row.
const UTIL_ROW: u32 = 1 << INT_FIELDS;
/// Mask bit: the record carries a `util_max` row.
const UTIL_MAX_ROW: u32 = 1 << (INT_FIELDS + 1);

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn push_leb128(bytes: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        bytes.push(value as u8 | 0x80);
        value >>= 7;
    }
    bytes.push(value as u8);
}

fn push_row(bytes: &mut Vec<u8>, row: &[f64]) {
    push_leb128(bytes, row.len() as u64);
    for v in row {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// The sealed windows of a series, packed into one append-only byte
/// log (record layout in the module docs). Written by
/// [`TimeSeriesSink`], read back through [`Decoder`].
#[derive(Debug, Clone, Default, PartialEq)]
struct WindowLog {
    /// Start of the first sealed window, raw microseconds.
    first_start_us: u64,
    /// Sealed windows.
    len: usize,
    bytes: Vec<u8>,
    /// The `utilization` row of the last sealed window: a record stores
    /// its row only when it differs from this one.
    last_util: Vec<f64>,
}

impl WindowLog {
    /// Appends `window` as the next record. Takes it mutably only to
    /// walk [`SeriesWindow::ints_mut`]; the window is left unchanged.
    fn push(&mut self, window: &mut SeriesWindow) {
        if self.len == 0 {
            self.first_start_us = window.start_us;
        }
        self.len += 1;
        let ints = window.ints_mut().map(|value| *value);
        let util_changed = !same_bits(&window.utilization, &self.last_util);
        let max_differs = !same_bits(&window.util_max, &window.utilization);
        let mut mask = 0u32;
        for (bit, value) in ints.iter().enumerate() {
            if *value != 0 {
                mask |= 1 << bit;
            }
        }
        if util_changed {
            mask |= UTIL_ROW;
        }
        if max_differs {
            mask |= UTIL_MAX_ROW;
        }
        let [m0, m1, m2, _] = mask.to_le_bytes();
        self.bytes.extend_from_slice(&[m0, m1, m2]);
        for value in ints {
            if value != 0 {
                push_leb128(&mut self.bytes, value);
            }
        }
        if util_changed {
            push_row(&mut self.bytes, &window.utilization);
            self.last_util.clear();
            self.last_util.extend_from_slice(&window.utilization);
        }
        if max_differs {
            push_row(&mut self.bytes, &window.util_max);
        }
    }

    fn decode(&self, width_us: u64) -> Decoder<'_> {
        Decoder {
            rest: &self.bytes,
            remaining: self.len,
            width_us,
            window: SeriesWindow {
                end_us: self.first_start_us,
                ..SeriesWindow::default()
            },
        }
    }
}

/// Sequential reader over a [`WindowLog`]: holds the one window being
/// decoded, whose `utilization` row carries over from record to record.
/// Every read is checked, so a truncated log ends the iteration instead
/// of panicking.
#[derive(Debug)]
struct Decoder<'a> {
    rest: &'a [u8],
    remaining: usize,
    width_us: u64,
    window: SeriesWindow,
}

impl Decoder<'_> {
    /// Decodes the next record in place and lends the window out — the
    /// streaming writers format it without cloning the rows.
    fn advance(&mut self) -> Option<&SeriesWindow> {
        self.remaining = self.remaining.checked_sub(1)?;
        let [m0, m1, m2] = <[u8; 3]>::try_from(take(&mut self.rest, 3)?).ok()?;
        let mask = u32::from_le_bytes([m0, m1, m2, 0]);
        let window = &mut self.window;
        window.start_us = window.end_us;
        window.end_us = window.start_us + self.width_us;
        for (bit, field) in window.ints_mut().into_iter().enumerate() {
            *field = if mask & (1 << bit) != 0 {
                read_leb128(&mut self.rest)?
            } else {
                0
            };
        }
        if mask & UTIL_ROW != 0 {
            read_row(&mut self.rest, &mut window.utilization)?;
        }
        if mask & UTIL_MAX_ROW != 0 {
            read_row(&mut self.rest, &mut window.util_max)?;
        } else {
            window.util_max.clear();
            window.util_max.extend_from_slice(&window.utilization);
        }
        Some(window)
    }
}

fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, tail) = rest.split_at_checked(n)?;
    *rest = tail;
    Some(head)
}

fn read_leb128(rest: &mut &[u8]) -> Option<u64> {
    let mut value = 0u64;
    for shift in (0..u64::BITS).step_by(7) {
        let (&byte, tail) = rest.split_first()?;
        *rest = tail;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
    }
    None
}

fn read_row(rest: &mut &[u8], out: &mut Vec<f64>) -> Option<()> {
    let len = usize::try_from(read_leb128(rest)?).ok()?;
    let bytes = take(rest, len.checked_mul(8)?)?;
    out.clear();
    for chunk in bytes.chunks_exact(8) {
        out.push(f64::from_bits(u64::from_le_bytes(chunk.try_into().ok()?)));
    }
    Some(())
}

impl Iterator for Decoder<'_> {
    type Item = SeriesWindow;

    fn next(&mut self) -> Option<SeriesWindow> {
        self.advance().cloned()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// The finished series: every window from the first arrival to the last
/// event, gap-free, plus the stream geometry needed to interpret the
/// per-link columns. The windows stay packed (see the module docs);
/// [`windows`](Self::windows) and the writers decode them on the fly.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesReport {
    /// Window width in microseconds.
    pub window_us: u64,
    /// Number of per-link columns: the larger of the topology's link
    /// count and the widest row any window recorded.
    pub links: usize,
    /// Total events the sink observed (including preamble events before
    /// the first window opened).
    pub events: u64,
    log: WindowLog,
}

impl SeriesReport {
    /// Number of windows in the series.
    pub fn len(&self) -> usize {
        self.log.len
    }

    /// True when the series never opened (no `request_arrival` seen).
    pub fn is_empty(&self) -> bool {
        self.log.len == 0
    }

    /// The windows, in time order, decoded one at a time.
    pub fn windows(&self) -> impl Iterator<Item = SeriesWindow> + '_ {
        self.log.decode(self.window_us)
    }

    /// Writes the series as byte-stable JSON: one window object per
    /// line inside a `windows` array, fixed field order, trailing
    /// newline.
    pub fn write_json(&self, out: &mut impl io::Write) -> io::Result<()> {
        write!(
            out,
            "{{\"window_us\":{},\"links\":{},\"events\":{},\"windows\":[",
            self.window_us, self.links, self.events
        )?;
        let mut windows = self.log.decode(self.window_us);
        let mut separator: &[u8] = b"\n";
        while let Some(w) = windows.advance() {
            out.write_all(separator)?;
            separator = b",\n";
            w.write_json(out)?;
        }
        out.write_all(b"\n]}\n")
    }

    /// Writes the series as byte-stable CSV: fixed columns followed by
    /// one end-of-window utilization column per link (`util_0..`).
    /// `dma_hit_ratio` is empty when the window saw no DMA decisions.
    pub fn write_csv(&self, out: &mut impl io::Write) -> io::Result<()> {
        out.write_all(CSV_FIXED_COLUMNS.as_bytes())?;
        for i in 0..self.links {
            write!(out, ",util_{i}")?;
        }
        out.write_all(b"\n")?;
        let mut windows = self.log.decode(self.window_us);
        while let Some(w) = windows.advance() {
            w.write_csv(out)?;
        }
        Ok(())
    }

    /// [`write_json`](Self::write_json) rendered into a `String`.
    pub fn to_json(&self) -> String {
        render(|out| self.write_json(out))
    }

    /// [`write_csv`](Self::write_csv) rendered into a `String`.
    pub fn to_csv(&self) -> String {
        render(|out| self.write_csv(out))
    }
}

fn render(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    // `Vec<u8>`'s `io::Write` never fails and both writers emit ASCII,
    // so neither fallback is taken.
    let _ = write(&mut out);
    String::from_utf8(out).unwrap_or_default()
}

/// Streaming windowed aggregator over the event stream; see the module
/// docs for the window model and how sealed windows are stored.
#[derive(Debug)]
pub struct TimeSeriesSink {
    width_us: u64,
    /// Index of the window currently accumulating (valid when `open`).
    current: u64,
    open: bool,
    /// The one accumulator, reset in place at every seal.
    acc: SeriesWindow,
    log: WindowLog,
    /// Live session ids (started, not yet completed/aborted).
    live: BTreeSet<u64>,
    /// Carry-forward per-link utilization gauge from the most recent
    /// `link_state` snapshot.
    link_util: Vec<f64>,
    /// Link count of the most recent `topology_snapshot`.
    links: usize,
    /// Longest per-link row any sealed window carries.
    widest_row: usize,
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
            acc: SeriesWindow::default(),
            log: WindowLog::default(),
            live: BTreeSet::new(),
            link_util: Vec::new(),
            links: 0,
            widest_row: 0,
            events: 0,
        }
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
            links: self.links.max(self.widest_row),
            events: self.events,
            log: self.log,
        }
    }

    /// Points the accumulator at the window starting at `start_us`:
    /// counters zeroed, gauges carried in, row buffers reused.
    fn reset_acc(&mut self, start_us: u64) {
        let live = self.live.len() as u64;
        for value in self.acc.ints_mut() {
            *value = 0;
        }
        self.acc.start_us = start_us;
        self.acc.end_us = start_us + self.width_us;
        self.acc.sessions = live;
        self.acc.peak_sessions = live;
        for row in [&mut self.acc.utilization, &mut self.acc.util_max] {
            row.clear();
            row.extend_from_slice(&self.link_util);
        }
    }

    fn seal_current(&mut self) {
        self.acc.sessions = self.live.len() as u64;
        self.acc.utilization.clear();
        self.acc.utilization.extend_from_slice(&self.link_util);
        self.widest_row = self
            .widest_row
            .max(self.acc.utilization.len())
            .max(self.acc.util_max.len());
        self.log.push(&mut self.acc);
        self.reset_acc(self.acc.end_us);
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
                self.reset_acc(index * self.width_us);
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
        assert_eq!(report.len(), 5);
        let windows: Vec<SeriesWindow> = report.windows().collect();
        assert_eq!(windows.len(), 5);
        assert_eq!(windows[0].start_us, 10_000_000);
        for pair in windows.windows(2) {
            assert_eq!(pair[0].end_us, pair[1].start_us);
        }
        assert_eq!(windows[0].arrivals, 1);
        assert_eq!(windows[0].sessions, 1);
        // Gap windows carry the live-session gauge forward.
        assert_eq!(windows[2].sessions, 1);
        assert_eq!(windows[2].peak_sessions, 1);
        assert_eq!(windows[4].completes, 1);
        assert_eq!(windows[4].sessions, 0);
        // Peak within the final window still saw the live session.
        assert_eq!(windows[4].peak_sessions, 1);
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
        let windows: Vec<SeriesWindow> = report.windows().collect();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].start_us, 20_000_000);
        // The pre-arrival poll is counted as an event but lands in no
        // window.
        assert_eq!(report.events, 2);
        assert_eq!(windows[0].snmp_polls, 0);
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
        assert_eq!(lines.count(), report.len());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_panics() {
        let _ = TimeSeriesSink::with_window(SimDuration::ZERO);
    }

    /// Utilisation samples the packed rows must carry bit-for-bit:
    /// both zeros, sub-normals, and ordinary fractions.
    const UTIL_PALETTE: [f64; 8] = [
        0.0,
        -0.0,
        5e-324,
        1.1e-308,
        0.25,
        0.5,
        0.999_999_999_999_999_9,
        1.0,
    ];

    /// One generated step of the differential stream: which event, its
    /// payload, how far time moves first, and a per-link row.
    type Step = (usize, u64, u32, Vec<usize>);

    /// Replays `steps` into the packed sink and the oracle. Step kinds
    /// below 40 index the one-of-every-variant table; the rest weight
    /// the stream towards the kinds that move gauges.
    fn replay(steps: &[Step], lead: usize) -> (SeriesReport, oracle::ReferenceReport) {
        let width = SimDuration::from_secs(10);
        let table = crate::event::tests::every_kind();
        let mut packed = TimeSeriesSink::with_window(width);
        let mut reference = oracle::ReferenceSink::with_window(width);
        let mut at_us = 0u64;
        let mut emit = |at_us: u64, event: &Event| {
            packed.record(SimTime::from_micros(at_us), event);
            reference.record(SimTime::from_micros(at_us), event);
        };
        for (i, (kind, x, gap, row)) in steps.iter().enumerate() {
            if i == lead {
                emit(at_us, &arrival(*x));
            }
            let windows = match gap {
                0..=69 => 0,
                70..=89 => 1 + x % 3,
                90..=97 => x % 60,
                _ => x % 5_001,
            };
            at_us += windows * width.as_micros() + (x >> 16) % width.as_micros();
            let staleness = SimDuration::from_micros(if x % 4 == 0 { u64::MAX } else { *x });
            let event = match kind % 48 {
                40 | 41 => start(x % 6),
                42 => complete(x % 6),
                43 => Event::SessionAborted {
                    session: x % 6,
                    reason: crate::AbortReason::NoSource,
                },
                44 | 45 => Event::LinkState {
                    used: vec![],
                    utilization: row.iter().map(|&p| UTIL_PALETTE[p]).collect(),
                    down: vec![],
                },
                46 => Event::SnmpPoll {
                    readings: 7,
                    staleness,
                },
                47 => Event::SnmpStaleView { staleness },
                k => match table.get(k) {
                    Some((Event::TopologySnapshot { nodes, .. }, _)) => Event::TopologySnapshot {
                        nodes: nodes.clone(),
                        links: vec![
                            (vod_net::NodeId::new(0), vod_net::NodeId::new(1), 2.0);
                            row.len()
                        ],
                    },
                    Some((event, _)) => event.clone(),
                    None => continue,
                },
            };
            emit(at_us, &event);
        }
        (packed.finish(), reference.finish())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The packed sink and the `Vec<SeriesWindow>` oracle agree on
        /// every window and on both exports, whatever the stream: every
        /// event kind, gaps of thousands of windows, topology snapshots
        /// that change the link count mid-stream, `link_state` rows
        /// longer and shorter than it, staleness up to `u64::MAX`.
        #[test]
        fn packed_series_matches_the_reference_fold(
            steps in proptest::collection::vec(
                (
                    0usize..48,
                    proptest::any::<u64>(),
                    0u32..100,
                    proptest::collection::vec(0usize..UTIL_PALETTE.len(), 0..10),
                ),
                1..80,
            ),
            lead in 0usize..4,
        ) {
            let (packed, reference) = replay(&steps, lead);
            proptest::prop_assert_eq!(packed.len(), reference.windows.len());
            proptest::prop_assert!(packed.windows().eq(reference.windows.iter().cloned()));
            proptest::prop_assert_eq!(packed.to_json(), reference.to_json());
            proptest::prop_assert_eq!(packed.to_csv(), reference.to_csv());
        }

        /// The record encoding is lossless over the full `u64` range of
        /// every integer field and over every `f64` bit pattern (NaN
        /// payloads included, hence the comparison by bits), for rows
        /// of any length.
        #[test]
        fn packed_log_round_trips_any_window(
            windows in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..INT_FIELDS, proptest::any::<u64>()), 0..8),
                    proptest::collection::vec(proptest::any::<u64>(), 0..5),
                    proptest::collection::vec(proptest::any::<u64>(), 0..5),
                    proptest::any::<bool>(),
                ),
                1..20,
            ),
            first in 0u64..1_000,
        ) {
            let width_us = 60_000_000;
            let from_bits = |row: &[u64]| row.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>();
            let mut log = WindowLog::default();
            let mut expected = Vec::new();
            let mut carried = Vec::new();
            for (i, (ints, util, util_max, keep_row)) in windows.iter().enumerate() {
                let start_us = (first + i as u64) * width_us;
                if !keep_row {
                    carried = from_bits(util);
                }
                let mut w = SeriesWindow {
                    start_us,
                    end_us: start_us + width_us,
                    utilization: carried.clone(),
                    util_max: if *keep_row { carried.clone() } else { from_bits(util_max) },
                    ..SeriesWindow::default()
                };
                for (field, value) in ints {
                    if let Some(slot) = w.ints_mut().into_iter().nth(*field) {
                        // Half the values saturate, so `u64::MAX` is common.
                        *slot = if value % 2 == 0 { u64::MAX } else { *value };
                    }
                }
                log.push(&mut w);
                expected.push(w);
            }
            let bits = |w: &SeriesWindow| {
                let mut w = w.clone();
                let rows: Vec<Vec<u64>> = [&w.utilization, &w.util_max]
                    .iter()
                    .map(|row| row.iter().map(|v| v.to_bits()).collect())
                    .collect();
                (w.start_us, w.end_us, w.ints_mut().map(|v| *v), rows)
            };
            let decoded: Vec<SeriesWindow> = log.decode(width_us).collect();
            proptest::prop_assert_eq!(decoded.len(), expected.len());
            for (got, want) in decoded.iter().zip(&expected) {
                proptest::prop_assert_eq!(bits(got), bits(want));
            }
        }
    }

    /// A year of one-minute windows shaped like a steady service: an
    /// SNMP poll and a `link_state` every second window (the row moves
    /// on every fourth poll, up then down), an arrival / start /
    /// complete triple every third. Returns the events in order.
    fn sparse_year() -> impl Iterator<Item = (SimTime, Event)> {
        (0..365 * 24 * 60u64).flat_map(|minute| {
            let at = SimTime::from_secs(minute * 60 + 1);
            let mut events = Vec::new();
            if minute % 3 == 0 {
                events.extend([arrival(minute), start(minute), complete(minute)]);
            }
            if minute % 2 == 0 {
                let level = [0.2, 0.6, 0.4, 0.1][(minute / 8 % 4) as usize];
                events.push(Event::SnmpPoll {
                    readings: 7,
                    staleness: SimDuration::from_secs(90),
                });
                events.push(Event::LinkState {
                    used: vec![],
                    utilization: vec![level; 7],
                    down: vec![],
                });
            }
            events.into_iter().map(move |e| (at, e))
        })
    }

    /// The property the benchmark's memory number rests on, checked
    /// without reading RSS: on a long sparse horizon the log stays under
    /// 32 bytes per sealed window (the `Vec<SeriesWindow>` it replaced
    /// spent 240 bytes plus two row allocations on each).
    #[test]
    fn sparse_year_packs_under_32_bytes_a_window() {
        let mut sink = TimeSeriesSink::new();
        for (at, event) in sparse_year() {
            sink.record(at, &event);
        }
        let report = sink.finish();
        // The year's last minute is eventless, so it opens no window.
        assert_eq!(report.len(), 365 * 24 * 60 - 1);
        let per_window = report.log.bytes.len() as f64 / report.len() as f64;
        assert!(per_window < 32.0, "{per_window} bytes per window");
        // Not vacuous: rows do move and windows do carry counters.
        assert!(report.windows().any(|w| w.util_max != w.utilization));
        assert_eq!(report.windows().map(|w| w.arrivals).sum::<u64>(), 175_200);
    }

    /// The fold as it was before the packed log: one `SeriesWindow`
    /// with two fresh row allocations per window, kept in a `Vec`. The
    /// differential tests below hold [`TimeSeriesSink`] to it.
    mod oracle {
        use super::super::*;

        pub struct ReferenceSink {
            width_us: u64,
            current: u64,
            open: bool,
            acc: SeriesWindow,
            windows: Vec<SeriesWindow>,
            live: BTreeSet<u64>,
            link_util: Vec<f64>,
            links: usize,
            events: u64,
        }

        pub struct ReferenceReport {
            pub window_us: u64,
            pub links: usize,
            pub events: u64,
            pub windows: Vec<SeriesWindow>,
        }

        fn fresh(start_us: u64, width_us: u64, live: u64, util: &[f64]) -> SeriesWindow {
            SeriesWindow {
                start_us,
                end_us: start_us + width_us,
                sessions: live,
                peak_sessions: live,
                utilization: util.to_vec(),
                util_max: util.to_vec(),
                ..SeriesWindow::default()
            }
        }

        impl ReferenceSink {
            pub fn with_window(window: SimDuration) -> Self {
                let width_us = window.as_micros();
                ReferenceSink {
                    width_us,
                    current: 0,
                    open: false,
                    acc: fresh(0, width_us, 0, &[]),
                    windows: Vec::new(),
                    live: BTreeSet::new(),
                    link_util: Vec::new(),
                    links: 0,
                    events: 0,
                }
            }

            pub fn finish(mut self) -> ReferenceReport {
                if self.open {
                    self.seal_current();
                }
                let widest = self
                    .windows
                    .iter()
                    .map(|w| w.utilization.len().max(w.util_max.len()))
                    .max()
                    .unwrap_or(0);
                ReferenceReport {
                    window_us: self.width_us,
                    links: self.links.max(widest),
                    events: self.events,
                    windows: self.windows,
                }
            }

            fn seal_current(&mut self) {
                let live = self.live.len() as u64;
                let mut done = fresh(self.acc.end_us, self.width_us, live, &self.link_util);
                std::mem::swap(&mut done, &mut self.acc);
                done.sessions = live;
                done.utilization = self.link_util.clone();
                self.windows.push(done);
                self.current += 1;
            }

            pub fn record(&mut self, at: SimTime, event: &Event) {
                self.events += 1;
                let index = at.as_micros() / self.width_us;
                if !self.open {
                    if matches!(event, Event::RequestArrival { .. }) {
                        self.current = index;
                        self.acc = fresh(
                            index * self.width_us,
                            self.width_us,
                            self.live.len() as u64,
                            &self.link_util,
                        );
                        self.open = true;
                    }
                } else {
                    while self.current < index {
                        self.seal_current();
                    }
                }
                self.apply(event);
            }

            fn apply(&mut self, event: &Event) {
                match event {
                    Event::TopologySnapshot { links, .. } => {
                        self.links = links.len();
                        self.link_util = vec![0.0; links.len()];
                    }
                    Event::LinkState { utilization, .. } => {
                        self.link_util = utilization.clone();
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
                    Event::VraSelect { local: true, .. } => self.acc.vra_local += 1,
                    Event::VraSelect { local: false, .. } => self.acc.vra_remote += 1,
                    Event::Switch { .. } => self.acc.switches += 1,
                    Event::SessionStart { session, .. } => {
                        self.acc.starts += 1;
                        self.live.insert(*session);
                        let live = self.live.len() as u64;
                        self.acc.peak_sessions = self.acc.peak_sessions.max(live);
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
                        self.acc.max_staleness_us =
                            self.acc.max_staleness_us.max(staleness.as_micros());
                    }
                    Event::SnmpStaleView { staleness } => {
                        self.acc.max_staleness_us =
                            self.acc.max_staleness_us.max(staleness.as_micros());
                    }
                    _ => {}
                }
            }
        }

        impl ReferenceReport {
            /// The document envelope of `SeriesReport::write_json`
            /// around the per-window objects.
            pub fn to_json(&self) -> String {
                let mut out = format!(
                    "{{\"window_us\":{},\"links\":{},\"events\":{},\"windows\":[",
                    self.window_us, self.links, self.events
                )
                .into_bytes();
                for (i, w) in self.windows.iter().enumerate() {
                    out.extend_from_slice(if i == 0 { b"\n" } else { b",\n" });
                    w.write_json(&mut out).unwrap();
                }
                out.extend_from_slice(b"\n]}\n");
                String::from_utf8(out).unwrap()
            }

            /// The header of `SeriesReport::write_csv` over the
            /// per-window rows.
            pub fn to_csv(&self) -> String {
                let mut out = CSV_FIXED_COLUMNS.as_bytes().to_vec();
                for i in 0..self.links {
                    out.extend_from_slice(format!(",util_{i}").as_bytes());
                }
                out.push(b'\n');
                for w in &self.windows {
                    w.write_csv(&mut out).unwrap();
                }
                String::from_utf8(out).unwrap()
            }
        }
    }
}
