//! The taxonomy's per-kind outcome counters, folded in one place.
//!
//! A [`Tally`] counts the decisions a run traces: arrivals and the four
//! ways a request ends, retries and switches, the DMA and prefix-store
//! decision mix, the VRA's local/remote split and SNMP polls.
//! [`Tally::apply`] is the only code that says which event kind moves
//! which counter, and [`Tally::each_mut`] is the only list of their names.
//! Every series window carries one (`SeriesWindow::tally`), whose
//! exports walk that list; the auditor in `vod-check` keeps one over the
//! whole trace, and rule A013 reconciles the windows' sum against it
//! field by field.

use std::ops::AddAssign;

use crate::event::Event;

/// Per-kind event counts. Fields are in export order, the order of
/// [`each_mut`](Self::each_mut).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// `request_arrival` events.
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
    /// `switch` events: every change of a session's source after its
    /// first assignment, including one made before its `session_start`
    /// (a retry re-routing cluster 0, or a prefix session's origin
    /// taking over from the proxy).
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
    /// SNMP polling rounds.
    pub snmp_polls: u64,
}

impl Tally {
    /// Number of counters: the calls [`each_mut`](Self::each_mut)
    /// makes. The series log's round-trip proptest fails when the two
    /// disagree.
    pub const LEN: usize = 19;

    /// Counts `event`.
    #[inline]
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn apply(&mut self, event: &Event) {
        match event {
            Event::RequestArrival { .. } => self.arrivals += 1,
            Event::SessionStart { .. } => self.starts += 1,
            Event::SessionComplete { .. } => self.completes += 1,
            Event::SessionAborted { .. } => self.aborts += 1,
            Event::RequestFailed { .. } => self.failures += 1,
            Event::RequestRejected { .. } => self.rejections += 1,
            Event::SessionRetry { .. } => self.retries += 1,
            Event::Switch { .. } => self.switches += 1,
            Event::DmaHit { .. } => self.dma_hits += 1,
            Event::DmaAdmit { .. } => self.dma_admits += 1,
            Event::DmaEvict { .. } => self.dma_evicts += 1,
            Event::DmaReject { .. } => self.dma_rejects += 1,
            Event::PrefixHit { .. } => self.prefix_hits += 1,
            Event::PrefixAdmit { .. } => self.prefix_admits += 1,
            Event::PrefixEvict { .. } => self.prefix_evicts += 1,
            Event::PrefixReject { .. } => self.prefix_rejects += 1,
            Event::VraSelect { local: true, .. } => self.vra_local += 1,
            Event::VraSelect { local: false, .. } => self.vra_remote += 1,
            Event::SnmpPoll { .. } => self.snmp_polls += 1,
            // Not counted: the run preamble and configuration, catalog,
            // fault and background transitions, stall/resume pairs, and
            // the gauges a series keeps itself (link state, staleness).
            // Listing them (and the deny above, which forbids a bare `_`
            // arm) keeps this match exhaustive, so a new kind is a
            // compile error here.
            Event::TopologySnapshot { .. }
            | Event::RunConfig { .. }
            | Event::CacheConfig { .. }
            | Event::PrefixCacheConfig { .. }
            | Event::PrefixExtend { .. }
            | Event::PrefixServe { .. }
            | Event::DmaSeed { .. }
            | Event::CatalogAdd { .. }
            | Event::CatalogRemove { .. }
            | Event::LinkState { .. }
            | Event::SessionStall { .. }
            | Event::SessionResume { .. }
            | Event::BackgroundUpdate
            | Event::ServerDown { .. }
            | Event::ServerUp { .. }
            | Event::LinkDown { .. }
            | Event::LinkUp { .. }
            | Event::LinkDegradeStart { .. }
            | Event::LinkDegradeEnd { .. }
            | Event::SnmpStaleView { .. }
            | Event::SnmpOutageStart
            | Event::SnmpOutageEnd => {}
        }
    }

    /// The counters' one table: calls `f` with each counter and its
    /// export name, in export order (the series' JSON fields and CSV
    /// columns, and the order of its packed log).
    #[inline]
    pub fn each_mut(&mut self, mut f: impl FnMut(&'static str, &mut u64)) {
        f("arrivals", &mut self.arrivals);
        f("starts", &mut self.starts);
        f("completes", &mut self.completes);
        f("aborts", &mut self.aborts);
        f("failures", &mut self.failures);
        f("rejections", &mut self.rejections);
        f("retries", &mut self.retries);
        f("switches", &mut self.switches);
        f("dma_hits", &mut self.dma_hits);
        f("dma_admits", &mut self.dma_admits);
        f("dma_evicts", &mut self.dma_evicts);
        f("dma_rejects", &mut self.dma_rejects);
        f("prefix_hits", &mut self.prefix_hits);
        f("prefix_admits", &mut self.prefix_admits);
        f("prefix_evicts", &mut self.prefix_evicts);
        f("prefix_rejects", &mut self.prefix_rejects);
        f("vra_local", &mut self.vra_local);
        f("vra_remote", &mut self.vra_remote);
        f("snmp_polls", &mut self.snmp_polls);
    }

    /// Every counter by its export name, in export order.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let mut fields = Vec::with_capacity(Self::LEN);
        let mut copy = *self;
        copy.each_mut(|name, value| fields.push((name, *value)));
        fields
    }
}

impl AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        let mut values = other.fields().into_iter();
        self.each_mut(|_, total| *total += values.next().map_or(0, |(_, value)| value));
    }
}
