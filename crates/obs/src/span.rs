//! Session lifecycle spans assembled from the event stream.
//!
//! [`SpanBuilder`] folds the deterministic event stream into one
//! [`SessionSpan`] per session, covering the
//! request → admission → streaming → switch → completion/abort
//! lifecycle the paper's service model walks every client through. It
//! is a post-processing pass: feed it a live run via
//! [`TeeSink`](crate::TeeSink) or replay a
//! [`RingRecorder`](crate::RingRecorder)'s
//! [`iter`](crate::RingRecorder::iter) — there is no new hot-path cost
//! for runs that do not opt in.
//!
//! The phase instants are ordered `requested_at ≤ admitted_at ≤
//! started_at ≤ ended_at` by construction (each is clamped to never
//! precede the previous phase), so phase durations are non-negative
//! and the phases never overlap; the proptest suite drives this under
//! random fault plans. The finished [`SpanReport`] yields the
//! phase-duration histograms — startup latency, stall time and
//! time-to-switch — the service report does not keep.

use std::collections::BTreeMap;

use vod_sim::metrics::Histogram;
use vod_sim::{SimDuration, SimTime};

use crate::event::{AbortReason, Event};
use crate::sink::EventSink;

/// How a session's lifecycle ended.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The session played its video to completion.
    Completed,
    /// The session was aborted mid-stream.
    Aborted(AbortReason),
    /// The trace ended while the session was still live.
    Unfinished,
}

/// One session's assembled lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpan {
    /// Session id (the trace's `session` field).
    pub session: u64,
    /// When the client's request was issued. Recovered exactly as
    /// `started_at − startup` once the session starts playing;
    /// until then it is the first event that mentions the session.
    pub requested_at: SimTime,
    /// First VRA source selection for the session (admission).
    /// Equals `requested_at` for sessions admitted on arrival.
    pub admitted_at: SimTime,
    /// Playout start (`session_start`), if reached.
    pub started_at: Option<SimTime>,
    /// Completion or abort instant, if the trace saw one.
    pub ended_at: Option<SimTime>,
    /// Mid-stream source switch instants, in time order.
    pub switch_times: Vec<SimTime>,
    /// Stall count (authoritative `session_complete` total when the
    /// session completed, otherwise the resumes observed so far).
    pub stalls: u32,
    /// Total stalled time.
    pub stall_time: SimDuration,
    /// Admission retry attempts observed.
    pub retries: u32,
    /// How the lifecycle ended.
    pub outcome: SpanOutcome,
}

impl SessionSpan {
    /// Admission-phase duration: request to first VRA selection
    /// (non-zero only when retries deferred admission).
    pub fn admission_wait(&self) -> SimDuration {
        self.admitted_at - self.requested_at
    }

    /// Startup latency: request to playout start.
    pub fn startup_latency(&self) -> Option<SimDuration> {
        self.started_at.map(|s| s - self.requested_at)
    }

    /// Streaming-phase duration: playout start to completion/abort.
    pub fn streaming_time(&self) -> Option<SimDuration> {
        match (self.started_at, self.ended_at) {
            (Some(start), Some(end)) => Some(end - start),
            _ => None,
        }
    }

    /// Time-to-switch intervals: playout start (or the previous switch)
    /// to each mid-stream switch. Empty for switch-free sessions.
    pub fn switch_gaps(&self) -> Vec<SimDuration> {
        let Some(start) = self.started_at else {
            return Vec::new();
        };
        let mut prev = start;
        self.switch_times
            .iter()
            .map(|&at| {
                let gap = at - prev;
                prev = at;
                gap
            })
            .collect()
    }
}

/// Per-session accumulation state while the stream is being folded.
#[derive(Debug, Clone, Default)]
struct PartialSpan {
    first_seen: Option<SimTime>,
    admitted_at: Option<SimTime>,
    started_at: Option<SimTime>,
    startup: Option<SimDuration>,
    ended_at: Option<SimTime>,
    switch_times: Vec<SimTime>,
    stalls: u32,
    stall_time: SimDuration,
    retries: u32,
    outcome: Option<SpanOutcome>,
}

/// The assembled spans of a run plus the phase-duration histograms
/// they imply.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanReport {
    /// One span per session, ordered by session id.
    pub spans: Vec<SessionSpan>,
}

impl SpanReport {
    /// Histogram of time-to-switch intervals (seconds) across all
    /// sessions; empty when no session switched sources.
    pub fn time_to_switch_histogram(&self) -> Histogram {
        let mut h = Histogram::new(1e-6, 40, 8);
        for span in &self.spans {
            for gap in span.switch_gaps() {
                h.record_duration(gap);
            }
        }
        h
    }

    /// Histogram of startup latencies (seconds) for sessions that
    /// reached playout.
    pub fn startup_histogram(&self) -> Histogram {
        let mut h = Histogram::new(1e-6, 40, 8);
        for span in &self.spans {
            if let Some(latency) = span.startup_latency() {
                h.record_duration(latency);
            }
        }
        h
    }

    /// Histogram of total per-session stall time (seconds), recorded
    /// for sessions that stalled at least once.
    pub fn stall_histogram(&self) -> Histogram {
        let mut h = Histogram::new(1e-6, 40, 8);
        for span in &self.spans {
            if span.stalls > 0 {
                h.record_duration(span.stall_time);
            }
        }
        h
    }

    /// Counts spans by outcome: `(completed, aborted, unfinished)`.
    pub fn outcome_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for span in &self.spans {
            match span.outcome {
                SpanOutcome::Completed => counts.0 += 1,
                SpanOutcome::Aborted(_) => counts.1 += 1,
                SpanOutcome::Unfinished => counts.2 += 1,
            }
        }
        counts
    }
}

/// Folds the event stream into per-session lifecycle spans; see the
/// module docs.
#[derive(Debug, Default)]
pub struct SpanBuilder {
    sessions: BTreeMap<u64, PartialSpan>,
}

impl SpanBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&mut self, at: SimTime, session: u64) -> &mut PartialSpan {
        let span = self.sessions.entry(session).or_default();
        if span.first_seen.is_none() {
            span.first_seen = Some(at);
        }
        span
    }

    fn on_select(&mut self, at: SimTime, session: u64) {
        let span = self.entry(at, session);
        if span.admitted_at.is_none() {
            span.admitted_at = Some(at);
        }
    }

    fn on_switch(&mut self, at: SimTime, session: u64) {
        self.entry(at, session).switch_times.push(at);
    }

    fn on_start(&mut self, at: SimTime, session: u64, startup: SimDuration) {
        let span = self.entry(at, session);
        span.started_at = Some(at);
        span.startup = Some(startup);
    }

    fn on_resume(&mut self, at: SimTime, session: u64, stalled: SimDuration) {
        let span = self.entry(at, session);
        span.stalls += 1;
        span.stall_time += stalled;
    }

    fn on_complete(&mut self, at: SimTime, session: u64, stalls: u32, stall_time: SimDuration) {
        let span = self.entry(at, session);
        span.ended_at = Some(at);
        span.stalls = stalls;
        span.stall_time = stall_time;
        span.outcome = Some(SpanOutcome::Completed);
    }

    fn on_abort(&mut self, at: SimTime, session: u64, reason: AbortReason) {
        let span = self.entry(at, session);
        span.ended_at = Some(at);
        span.outcome = Some(SpanOutcome::Aborted(reason));
    }

    fn on_retry(&mut self, at: SimTime, session: u64) {
        self.entry(at, session).retries += 1;
    }

    /// Assembles the finished spans. Phase instants are clamped into
    /// `requested ≤ admitted ≤ started ≤ ended` order, which holds for
    /// every trace the service emits and protects the invariant on
    /// truncated (ring-recorded) streams.
    pub fn finish(self) -> SpanReport {
        let spans = self
            .sessions
            .into_iter()
            .map(|(session, p)| {
                let first_seen = p.first_seen.unwrap_or(SimTime::ZERO);
                let requested_at = match (p.started_at, p.startup) {
                    // started − startup recovers the exact request
                    // instant the service measured startup from.
                    (Some(start), Some(startup)) => {
                        let micros = start.as_micros().saturating_sub(startup.as_micros());
                        SimTime::from_micros(micros.min(first_seen.as_micros()))
                    }
                    _ => first_seen,
                };
                let admitted_at = p
                    .admitted_at
                    .unwrap_or(requested_at)
                    .max(requested_at)
                    .min(p.started_at.unwrap_or(SimTime::from_micros(u64::MAX)));
                let started_at = p.started_at.map(|s| s.max(admitted_at));
                let floor = started_at.unwrap_or(admitted_at);
                let ended_at = p.ended_at.map(|e| e.max(floor));
                SessionSpan {
                    session,
                    requested_at,
                    admitted_at,
                    started_at,
                    ended_at,
                    switch_times: p.switch_times,
                    stalls: p.stalls,
                    stall_time: p.stall_time,
                    retries: p.retries,
                    outcome: p.outcome.unwrap_or(SpanOutcome::Unfinished),
                }
            })
            .collect();
        SpanReport { spans }
    }
}

impl EventSink for SpanBuilder {
    #[deny(clippy::wildcard_enum_match_arm)]
    fn record(&mut self, at: SimTime, event: &Event) {
        match event {
            Event::VraSelect { session, .. } => self.on_select(at, *session),
            // A proxy serving a cached prefix admits the session just
            // like a VRA source selection does — for full-prefix
            // sessions it is the only admission event in the trace.
            Event::PrefixServe { session, .. } => self.on_select(at, *session),
            Event::Switch { session, .. } => self.on_switch(at, *session),
            Event::SessionStart { session, startup } => self.on_start(at, *session, *startup),
            Event::SessionResume { session, stalled } => self.on_resume(at, *session, *stalled),
            Event::SessionComplete {
                session,
                stalls,
                stall_time,
                ..
            } => self.on_complete(at, *session, *stalls, *stall_time),
            Event::SessionAborted { session, reason } => self.on_abort(at, *session, *reason),
            Event::SessionRetry { session, .. } => self.on_retry(at, *session),
            // Deliberately outside the span model: spans trace one
            // session's lifecycle, so run preamble, catalog, cache,
            // link and poller events have no session to attach to, and
            // a stall's duration reaches the span through the matching
            // SessionResume. Listing them (and the deny above, which
            // forbids a `_` arm) keeps this match exhaustive, so a new
            // Event variant is a compile error here.
            Event::TopologySnapshot { .. }
            | Event::RunConfig { .. }
            | Event::CacheConfig { .. }
            | Event::PrefixCacheConfig { .. }
            | Event::PrefixHit { .. }
            | Event::PrefixExtend { .. }
            | Event::PrefixAdmit { .. }
            | Event::PrefixEvict { .. }
            | Event::PrefixReject { .. }
            | Event::DmaSeed { .. }
            | Event::CatalogAdd { .. }
            | Event::CatalogRemove { .. }
            | Event::LinkState { .. }
            | Event::RequestArrival { .. }
            | Event::RequestFailed { .. }
            | Event::RequestRejected { .. }
            | Event::DmaHit { .. }
            | Event::DmaAdmit { .. }
            | Event::DmaEvict { .. }
            | Event::DmaReject { .. }
            | Event::SessionStall { .. }
            | Event::SnmpPoll { .. }
            | Event::BackgroundUpdate
            | Event::ServerDown { .. }
            | Event::ServerUp { .. }
            | Event::LinkDown { .. }
            | Event::LinkUp { .. }
            | Event::LinkDegradeStart { .. }
            | Event::LinkDegradeEnd { .. }
            | Event::SnmpOutageStart
            | Event::SnmpOutageEnd
            | Event::SnmpStaleView { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_a_complete_lifecycle() {
        let mut b = SpanBuilder::new();
        let select = Event::VraSelect {
            session: 7,
            cluster: 0,
            video: vod_storage::VideoId::new(1),
            home: vod_net::NodeId::new(0),
            server: vod_net::NodeId::new(0),
            cost: 1.0,
            cache_hit: false,
            local: true,
        };
        b.record(SimTime::from_secs(10), &select);
        b.record(
            SimTime::from_secs(12),
            &Event::SessionStart {
                session: 7,
                startup: SimDuration::from_secs(2),
            },
        );
        b.record(
            SimTime::from_secs(40),
            &Event::Switch {
                session: 7,
                cluster: 3,
                from: vod_net::NodeId::new(0),
                to: vod_net::NodeId::new(1),
            },
        );
        b.record(
            SimTime::from_secs(90),
            &Event::SessionComplete {
                session: 7,
                stalls: 1,
                stall_time: SimDuration::from_secs(3),
                switches: 1,
            },
        );
        let report = b.finish();
        assert_eq!(report.spans.len(), 1);
        let span = &report.spans[0];
        assert_eq!(span.requested_at, SimTime::from_secs(10));
        assert_eq!(span.admitted_at, SimTime::from_secs(10));
        assert_eq!(span.started_at, Some(SimTime::from_secs(12)));
        assert_eq!(span.ended_at, Some(SimTime::from_secs(90)));
        assert_eq!(span.startup_latency(), Some(SimDuration::from_secs(2)));
        assert_eq!(span.switch_gaps(), vec![SimDuration::from_secs(28)]);
        assert_eq!(span.outcome, SpanOutcome::Completed);
        assert_eq!(span.stall_time, SimDuration::from_secs(3));
        let h = report.time_to_switch_histogram();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn unfinished_and_truncated_spans_stay_ordered() {
        let mut b = SpanBuilder::new();
        // Ring truncation can drop the session_start; the abort is the
        // first event mentioning the session.
        b.record(
            SimTime::from_secs(30),
            &Event::SessionAborted {
                session: 2,
                reason: AbortReason::NoSource,
            },
        );
        let report = b.finish();
        let span = &report.spans[0];
        assert!(span.requested_at <= span.admitted_at);
        assert_eq!(span.ended_at, Some(SimTime::from_secs(30)));
        assert_eq!(span.outcome, SpanOutcome::Aborted(AbortReason::NoSource));
    }
}
