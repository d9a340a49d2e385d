//! Rule `A013`: windowed time-series reconciliation against the raw
//! event stream.
//!
//! A `TimeSeriesSink` export (`--series` on the experiment binaries) is
//! a *derived* artifact: every per-window counter is a fold over the
//! event stream the run also traces. This module checks those totals
//! against the per-kind counts an [`AuditSink`](crate::audit::AuditSink)
//! kept while replaying the same run, and flags any divergence, so a
//! series file can be trusted as far as its trace can:
//!
//! * **shape** — the header (`window_us`, `links`) is sane, windows are
//!   width-aligned to absolute sim time, contiguous (each window starts
//!   where the previous one ended) and internally consistent
//!   (`end = start + width`, `peak_sessions ≥ sessions`);
//! * **totals** — summed over all windows, every reconcilable counter
//!   (arrivals, starts, completes, aborts, failures, rejections,
//!   retries, switches, DMA hits/admits/rejects and the VRA
//!   local/remote split) equals the audit's count of the
//!   corresponding event kind. These kinds cannot occur before the
//!   first `request_arrival`, so the sink's lazy window opening drops
//!   none of them. (`snmp_polls` is deliberately *not* reconciled: the
//!   poller runs from simulation start, before the series opens.)
//! * **capacity** — per-link utilization never exceeds capacity
//!   (`≤ 1 + EPS`, and never negative), in both the end-of-window gauge
//!   and the within-window maximum, and the gauge never exceeds the
//!   maximum.
//!
//! Violations reuse the auditor's [`Violation`] type with rule
//! `"A013"`; the `line` field indexes the window (1-based, 0 for
//! file-level problems).

use serde::Value;

use crate::audit::{AuditSummary, Violation};

/// Tolerance for utilization comparisons, matching the auditor's.
const EPS: f64 = 1e-6;

/// The outcome of one series reconciliation.
#[derive(Debug, Default)]
pub struct SeriesAuditSummary {
    /// Windows checked.
    pub windows: usize,
    /// Counter pairs reconciled against the trace.
    pub totals_verified: usize,
    /// All violations, in window order.
    pub violations: Vec<Violation>,
}

impl SeriesAuditSummary {
    /// True when the series reconciles with its trace.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The counters that must reconcile 1:1 with trace event kinds:
/// `(series field, trace kind)`. The VRA split is handled separately
/// (two fields sum to one kind).
const RECONCILED: &[(&str, &str)] = &[
    ("arrivals", "request_arrival"),
    ("starts", "session_start"),
    ("completes", "session_complete"),
    ("aborts", "session_aborted"),
    ("failures", "request_failed"),
    ("rejections", "request_rejected"),
    ("retries", "session_retry"),
    ("switches", "switch"),
    ("dma_hits", "dma_hit"),
    ("dma_admits", "dma_admit"),
    ("dma_evicts", "dma_evict"),
    ("dma_rejects", "dma_reject"),
    ("prefix_hits", "prefix_hit"),
    ("prefix_admits", "prefix_admit"),
    ("prefix_evicts", "prefix_evict"),
    ("prefix_rejects", "prefix_reject"),
];

/// Audits a `TimeSeriesSink` JSON export against the audit of the same
/// run's events.
pub fn audit_series(series_text: &str, trace: &AuditSummary) -> SeriesAuditSummary {
    let mut summary = SeriesAuditSummary::default();
    let series: Value = match serde_json::from_str(series_text.trim()) {
        Ok(v) => v,
        Err(e) => {
            summary
                .violations
                .push(violation(0, format!("series file is not valid JSON: {e}")));
            return summary;
        }
    };
    let Some(width) = series.get_field("window_us").and_then(Value::as_u64) else {
        summary
            .violations
            .push(violation(0, "series file has no numeric window_us".into()));
        return summary;
    };
    if width == 0 {
        summary
            .violations
            .push(violation(0, "window_us must be positive".into()));
        return summary;
    }
    let links = series
        .get_field("links")
        .and_then(Value::as_u64)
        .unwrap_or(0) as usize;
    let windows = series
        .get_field("windows")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    summary.windows = windows.len();

    check_shape(&mut summary, windows, width, links);
    check_totals(&mut summary, windows, trace);
    summary
}

fn violation(window: usize, message: String) -> Violation {
    Violation {
        rule: "A013",
        line: window,
        message,
    }
}

fn field_u64(w: &Value, name: &str) -> Option<u64> {
    w.get_field(name).and_then(Value::as_u64)
}

fn check_shape(summary: &mut SeriesAuditSummary, windows: &[Value], width: u64, links: usize) {
    let mut prev_end: Option<u64> = None;
    for (i, w) in windows.iter().enumerate() {
        let n = i + 1;
        let (Some(start), Some(end)) = (field_u64(w, "start_us"), field_u64(w, "end_us")) else {
            summary
                .violations
                .push(violation(n, "window missing start_us/end_us".into()));
            continue;
        };
        if start % width != 0 {
            summary.violations.push(violation(
                n,
                format!("window start {start} is not aligned to the {width} µs width"),
            ));
        }
        if end != start + width {
            summary.violations.push(violation(
                n,
                format!("window [{start}, {end}) is not exactly one width wide"),
            ));
        }
        if let Some(prev) = prev_end {
            if start != prev {
                summary.violations.push(violation(
                    n,
                    format!("window starts at {start} but the previous one ended at {prev} (series must be gap-free)"),
                ));
            }
        }
        prev_end = Some(end);

        if let (Some(sessions), Some(peak)) =
            (field_u64(w, "sessions"), field_u64(w, "peak_sessions"))
        {
            if peak < sessions {
                summary.violations.push(violation(
                    n,
                    format!("peak_sessions {peak} below end-of-window sessions {sessions}"),
                ));
            }
        }

        let util = w.get_field("utilization").and_then(Value::as_array);
        let util_max = w.get_field("util_max").and_then(Value::as_array);
        for (name, values) in [("utilization", util), ("util_max", util_max)] {
            let Some(values) = values else {
                summary
                    .violations
                    .push(violation(n, format!("window missing {name}")));
                continue;
            };
            if values.len() != links {
                summary.violations.push(violation(
                    n,
                    format!(
                        "{name} has {} entries for a {links}-link topology",
                        values.len()
                    ),
                ));
            }
            for (link, v) in values.iter().enumerate() {
                let Some(v) = v.as_f64() else {
                    summary
                        .violations
                        .push(violation(n, format!("{name}[{link}] is not a number")));
                    continue;
                };
                if !(-EPS..=1.0 + EPS).contains(&v) {
                    summary.violations.push(violation(
                        n,
                        format!(
                            "{name}[{link}] = {v} exceeds link capacity (must be within [0, 1])"
                        ),
                    ));
                }
            }
        }
        if let (Some(util), Some(util_max)) = (util, util_max) {
            for (link, (u, m)) in util.iter().zip(util_max).enumerate() {
                if let (Some(u), Some(m)) = (u.as_f64(), m.as_f64()) {
                    if u > m + EPS {
                        summary.violations.push(violation(
                            n,
                            format!("utilization[{link}] = {u} exceeds the window's util_max {m}"),
                        ));
                    }
                }
            }
        }
    }
}

fn check_totals(summary: &mut SeriesAuditSummary, windows: &[Value], trace: &AuditSummary) {
    let mut series_totals = vec![0u64; RECONCILED.len()];
    let (mut series_local, mut series_remote) = (0u64, 0u64);
    for (i, w) in windows.iter().enumerate() {
        for (slot, (field, _)) in RECONCILED.iter().enumerate() {
            match field_u64(w, field) {
                Some(v) => series_totals[slot] += v,
                None => summary
                    .violations
                    .push(violation(i + 1, format!("window missing counter {field}"))),
            }
        }
        series_local += field_u64(w, "vra_local").unwrap_or(0);
        series_remote += field_u64(w, "vra_remote").unwrap_or(0);
    }

    for (&(field, kind), series_n) in RECONCILED.iter().zip(series_totals) {
        let trace_n = trace.kinds.get(kind).copied().unwrap_or(0);
        if series_n != trace_n {
            summary.violations.push(violation(
                0,
                format!(
                    "series total {field} = {series_n} but the trace has {trace_n} {kind} events"
                ),
            ));
        } else {
            summary.totals_verified += 1;
        }
    }
    for (name, series_n, trace_n) in [
        ("vra_local", series_local, trace.vra_local),
        ("vra_remote", series_remote, trace.vra_remote),
    ] {
        if series_n != trace_n {
            summary.violations.push(violation(
                0,
                format!(
                    "series total {name} = {series_n} but the trace has {trace_n} matching vra_select events"
                ),
            ));
        } else {
            summary.totals_verified += 1;
        }
    }
}
