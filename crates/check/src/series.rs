//! Rule `A013`: windowed time-series reconciliation against the raw
//! event stream.
//!
//! A `TimeSeriesSink` export (`--series` on the experiment binaries) is
//! a *derived* artifact: every per-window counter is a fold over the
//! event stream the run also traces. This module checks those totals
//! against the [`Tally`] an [`AuditSink`](crate::audit::AuditSink)
//! kept while replaying the same run, and flags any divergence, so a
//! series file can be trusted as far as its trace can:
//!
//! * **shape** — the header (`window_us`, `links`) is sane, windows are
//!   width-aligned to absolute sim time, contiguous (each window starts
//!   where the previous one ended) and internally consistent
//!   (`end = start + width`, `peak_sessions ≥ sessions`);
//! * **totals** — summed over all windows, every counter of the
//!   windows' [`Tally`] equals the same counter of the tally the audit
//!   kept over the whole trace, field by field under the tally's export
//!   names. The counted kinds cannot occur before the first
//!   `request_arrival`, so the sink's lazy window opening drops none of
//!   them — except SNMP polls, which run from simulation start, before
//!   the series opens, so `snmp_polls` is the one counter *not*
//!   reconciled.
//! * **capacity** — per-link utilization never exceeds capacity
//!   (`≤ 1 + EPS`, and never negative), in both the end-of-window gauge
//!   and the within-window maximum, and the gauge never exceeds the
//!   maximum.
//!
//! Violations reuse the auditor's [`Violation`] type with rule
//! `"A013"`; the `line` field indexes the window (1-based, 0 for
//! file-level problems).

use serde::Value;
use vod_obs::Tally;

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

/// The one tally counter a series does not reconcile: the poller runs
/// from simulation start, before the series opens at the first
/// arrival, so the windows miss the polls before it.
const UNRECONCILED: &str = "snmp_polls";

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
    let mut series = Tally::default();
    for (i, w) in windows.iter().enumerate() {
        series.each_mut(|name, total| {
            if name == UNRECONCILED {
                return;
            }
            match field_u64(w, name) {
                Some(v) => *total += v,
                None => summary
                    .violations
                    .push(violation(i + 1, format!("window missing counter {name}"))),
            }
        });
    }
    for ((name, series_n), (_, trace_n)) in series.fields().into_iter().zip(trace.tally.fields()) {
        if name == UNRECONCILED {
            continue;
        }
        if series_n != trace_n {
            summary.violations.push(violation(
                0,
                format!("series total {name} = {series_n} but the trace tallies {trace_n}"),
            ));
        } else {
            summary.totals_verified += 1;
        }
    }
}
