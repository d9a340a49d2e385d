//! Bench-baseline comparison: the perf-regression harness behind
//! `cargo run -p vod-bench -- compare`.
//!
//! The committed `BENCH_*.json` files are the performance record of
//! this repository — `BENCH_obs.json`/`BENCH_routing.json` hold
//! criterion summaries (`[{id, min_ns, mean_ns, max_ns}, ...]`) and
//! `BENCH_sim.json` holds the kernel-scale report written by
//! `--bin scale --json`. This module diffs a freshly measured file
//! against its committed baseline with per-benchmark tolerance
//! thresholds and renders a verdict (human lines or JSON), so `ci.sh`
//! can fail a build that quietly erodes the event-driven kernel's
//! throughput instead of letting the bench trajectory stay silent.
//!
//! Wall-clock numbers are noisy, so the default tolerance is a
//! generous 1.75× degradation — real regressions (the injected 2×
//! slowdown the unit tests simulate) trip it, scheduler jitter does
//! not — and sub-`floor_ns` entries are clamped up to the floor before
//! the ratio is taken, so a 0.3 ns → 0.9 ns guard-path wiggle never
//! fails a build. Both knobs and per-id overrides are CLI-settable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Value;

/// Whether a larger measurement is a regression or an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Nanosecond timings: regressions grow the value.
    LowerBetter,
    /// Throughput (events/sec) and capacity: regressions shrink it.
    HigherBetter,
}

/// One comparable measurement extracted from a bench file.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Benchmark id (criterion id or a `sim/...` pseudo-id).
    pub id: String,
    /// The measured value (ns for criterion entries, events/sec or
    /// sessions for sim entries).
    pub value: f64,
    /// Which way regressions point for this entry.
    pub direction: Direction,
}

/// Tolerances for a comparison run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareConfig {
    /// Default allowed degradation factor (current may be up to
    /// `tolerance ×` worse than baseline).
    pub tolerance: f64,
    /// Criterion timings below this many nanoseconds are clamped up to
    /// it before the ratio is taken (guards against ratio noise on
    /// sub-ns entries like the `NullSink` emission path).
    pub floor_ns: f64,
    /// Per-benchmark-id overrides of `tolerance`.
    pub overrides: BTreeMap<String, f64>,
    /// When set, only ids with this prefix are compared — both sides
    /// are filtered, so a baseline holding many suites can gate one
    /// (`--only check/` compares just the analyzer timing).
    pub only: Option<String>,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            tolerance: 1.75,
            floor_ns: 5.0,
            overrides: BTreeMap::new(),
            only: None,
        }
    }
}

/// The verdict for one benchmark id present in the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Benchmark id.
    pub id: String,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value, `None` when the id vanished from the current file.
    pub current: Option<f64>,
    /// Degradation factor (`> 1` means worse than baseline), after
    /// floor clamping; `None` when the id is missing.
    pub ratio: Option<f64>,
    /// The tolerance this id was held to.
    pub limit: f64,
    /// Whether this id regressed (ratio over limit, or missing).
    pub regressed: bool,
}

/// The verdict for one baseline/current file pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairReport {
    /// Baseline file label (path).
    pub baseline: String,
    /// Current file label (path).
    pub current: String,
    /// Per-id verdicts, in baseline order.
    pub comparisons: Vec<Comparison>,
    /// Ids present only in the current file (informational, not a
    /// regression — new benchmarks have no baseline yet).
    pub new_ids: Vec<String>,
}

impl PairReport {
    /// Ids that regressed in this pair.
    pub fn regressions(&self) -> impl Iterator<Item = &Comparison> {
        self.comparisons.iter().filter(|c| c.regressed)
    }
}

/// The full verdict across every compared pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompareReport {
    /// One report per baseline/current pair, in argument order.
    pub pairs: Vec<PairReport>,
}

impl CompareReport {
    /// Total regressed benchmark ids across all pairs.
    pub fn regressions(&self) -> usize {
        self.pairs.iter().map(|p| p.regressions().count()).sum()
    }

    /// True when nothing regressed.
    pub fn is_ok(&self) -> bool {
        self.regressions() == 0
    }

    /// The verdict as one JSON object (hand-rolled, fixed field order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"pairs\":[");
        for (i, pair) in self.pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"baseline\":{},\"current\":{},\"comparisons\":[",
                json_string(&pair.baseline),
                json_string(&pair.current)
            );
            for (j, c) in pair.comparisons.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"id\":{},\"baseline\":{},\"current\":",
                    json_string(&c.id),
                    c.baseline
                );
                match c.current {
                    Some(v) => {
                        let _ = write!(out, "{v}");
                    }
                    None => out.push_str("null"),
                }
                out.push_str(",\"ratio\":");
                match c.ratio {
                    Some(r) => {
                        let _ = write!(out, "{r}");
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(
                    out,
                    ",\"limit\":{},\"regressed\":{}}}",
                    c.limit, c.regressed
                );
            }
            out.push_str("],\"new_ids\":[");
            for (j, id) in pair.new_ids.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(id));
            }
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "],\"regressions\":{},\"ok\":{}}}",
            self.regressions(),
            self.is_ok()
        );
        out.push('\n');
        out
    }

    /// The verdict as human-readable lines: every regression with its
    /// id and delta, then a one-line summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for pair in &self.pairs {
            let _ = writeln!(out, "compare: {} vs {}", pair.baseline, pair.current);
            for c in &pair.comparisons {
                match (c.current, c.ratio) {
                    (Some(cur), Some(ratio)) => {
                        let verdict = if c.regressed { "REGRESSION" } else { "ok" };
                        let _ = writeln!(
                            out,
                            "  {verdict:>10} {}: {:.4} -> {:.4} ({:.2}x degradation, limit {:.2}x)",
                            c.id, c.baseline, cur, ratio, c.limit
                        );
                    }
                    _ => {
                        let _ = writeln!(
                            out,
                            "  REGRESSION {}: missing from current results (baseline {:.4})",
                            c.id, c.baseline
                        );
                    }
                }
            }
            for id in &pair.new_ids {
                let _ = writeln!(out, "         new {id}: no baseline yet");
            }
        }
        let _ = writeln!(
            out,
            "verdict: {} ({} regression(s))",
            if self.is_ok() { "OK" } else { "FAIL" },
            self.regressions()
        );
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Extracts comparable entries from a bench file's text, detecting the
/// format: a criterion summary array (`[{id, mean_ns, ...}]`, timings,
/// lower is better), a generic experiment-row object
/// (`{"rows":[{id, value, direction}]}`, per-row direction), or the
/// `scale --json` kernel report (throughput and capacity pseudo-ids,
/// higher is better).
pub fn extract_entries(text: &str) -> Result<Vec<Entry>, String> {
    let value: Value =
        serde_json::from_str(text.trim()).map_err(|e| format!("not valid JSON: {e}"))?;
    if let Some(items) = value.as_array() {
        let mut entries = Vec::with_capacity(items.len());
        for item in items {
            let id = item
                .get_field("id")
                .and_then(Value::as_str)
                .ok_or("criterion entry without an \"id\" field")?;
            let mean = item
                .get_field("mean_ns")
                .and_then(Value::as_f64)
                .ok_or("criterion entry without a \"mean_ns\" field")?;
            entries.push(Entry {
                id: id.to_string(),
                value: mean,
                direction: Direction::LowerBetter,
            });
        }
        return Ok(entries);
    }
    if let Some(rows) = value.get_field("rows").and_then(Value::as_array) {
        // Generic experiment rows (`{"rows":[{id, value, direction}]}`),
        // written by experiment binaries whose metrics mix directions —
        // e.g. ext_proxy's offload (higher) vs startup delay (lower).
        let mut entries = Vec::with_capacity(rows.len());
        for row in rows {
            let id = row
                .get_field("id")
                .and_then(Value::as_str)
                .ok_or("rows entry without an \"id\" field")?;
            let v = row
                .get_field("value")
                .and_then(Value::as_f64)
                .ok_or("rows entry without a numeric \"value\" field")?;
            let direction = match row.get_field("direction").and_then(Value::as_str) {
                Some("higher") => Direction::HigherBetter,
                Some("lower") => Direction::LowerBetter,
                _ => {
                    return Err(
                        "rows entry needs \"direction\": \"higher\" or \"lower\"".to_string()
                    )
                }
            };
            entries.push(Entry {
                id: id.to_string(),
                value: v,
                direction,
            });
        }
        return Ok(entries);
    }
    if let Some(lazy) = value.get_field("lazy") {
        let mut entries = Vec::new();
        for field in ["events_per_sec", "peak_sessions"] {
            if let Some(v) = lazy.get_field(field).and_then(Value::as_f64) {
                entries.push(Entry {
                    id: format!("sim/lazy/{field}"),
                    value: v,
                    direction: Direction::HigherBetter,
                });
            }
        }
        return Ok(entries);
    }
    Err(
        "unrecognized bench file format (expected a criterion summary \
         array or a scale kernel report)"
            .to_string(),
    )
}

/// Compares one baseline file against one fresh file (both as text).
pub fn compare_pair(
    baseline_label: &str,
    baseline_text: &str,
    current_label: &str,
    current_text: &str,
    config: &CompareConfig,
) -> Result<PairReport, String> {
    let keep = |e: &Entry| match &config.only {
        Some(prefix) => e.id.starts_with(prefix.as_str()),
        None => true,
    };
    let baseline: Vec<Entry> = extract_entries(baseline_text)
        .map_err(|e| format!("{baseline_label}: {e}"))?
        .into_iter()
        .filter(|e| keep(e))
        .collect();
    let current: Vec<Entry> = extract_entries(current_text)
        .map_err(|e| format!("{current_label}: {e}"))?
        .into_iter()
        .filter(|e| keep(e))
        .collect();
    let current_by_id: BTreeMap<&str, &Entry> =
        current.iter().map(|e| (e.id.as_str(), e)).collect();
    let baseline_ids: BTreeMap<&str, ()> = baseline.iter().map(|e| (e.id.as_str(), ())).collect();

    let comparisons = baseline
        .iter()
        .map(|base| {
            let limit = config
                .overrides
                .get(&base.id)
                .copied()
                .unwrap_or(config.tolerance);
            match current_by_id.get(base.id.as_str()) {
                Some(cur) => {
                    let ratio = degradation(base, cur.value, config);
                    Comparison {
                        id: base.id.clone(),
                        baseline: base.value,
                        current: Some(cur.value),
                        ratio: Some(ratio),
                        limit,
                        regressed: ratio > limit,
                    }
                }
                None => Comparison {
                    id: base.id.clone(),
                    baseline: base.value,
                    current: None,
                    ratio: None,
                    limit,
                    regressed: true,
                },
            }
        })
        .collect();
    let new_ids = current
        .iter()
        .filter(|e| !baseline_ids.contains_key(e.id.as_str()))
        .map(|e| e.id.clone())
        .collect();
    Ok(PairReport {
        baseline: baseline_label.to_string(),
        current: current_label.to_string(),
        comparisons,
        new_ids,
    })
}

/// Degradation factor of `current` relative to `base` (`> 1` = worse).
fn degradation(base: &Entry, current: f64, config: &CompareConfig) -> f64 {
    match base.direction {
        Direction::LowerBetter => {
            let b = base.value.max(config.floor_ns);
            let c = current.max(config.floor_ns);
            c / b.max(f64::MIN_POSITIVE)
        }
        Direction::HigherBetter => {
            if current <= 0.0 {
                f64::INFINITY
            } else {
                base.value / current
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CRITERION: &str = r#"[
  {"id": "obs/emit/null_sink", "min_ns": 0.33, "mean_ns": 0.34, "max_ns": 0.37},
  {"id": "obs/emit/ring_recorder", "min_ns": 21.97, "mean_ns": 23.26, "max_ns": 27.12},
  {"id": "obs/serialize/write_json", "min_ns": 310.0, "mean_ns": 316.1, "max_ns": 330.9}
]"#;

    const SIM: &str = r#"{"scenario":"scale_stress","seed":42,"target_sessions":102000,
"arrivals":102283,
"lazy":{"events":613698,"wall_secs":0.73,"events_per_sec":840682.0,"sim_secs":86400.0,
"peak_sessions":102283,"completed":102283}}"#;

    fn doubled(text: &str, id: &str) -> String {
        // Injects a 2x slowdown into one criterion entry.
        let entries = extract_entries(text).expect("parse");
        let mut out = String::from("[");
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mean = if e.id == id { e.value * 2.0 } else { e.value };
            out.push_str(&format!(
                "{{\"id\":\"{}\",\"min_ns\":{m},\"mean_ns\":{m},\"max_ns\":{m}}}",
                e.id,
                m = mean
            ));
        }
        out.push(']');
        out
    }

    #[test]
    fn identical_files_pass() {
        let cfg = CompareConfig::default();
        let pair = compare_pair("base", CRITERION, "cur", CRITERION, &cfg).expect("compare");
        let report = CompareReport { pairs: vec![pair] };
        assert!(report.is_ok());
        assert_eq!(report.regressions(), 0);
        assert!(report.render_human().contains("verdict: OK"));
    }

    #[test]
    fn injected_2x_slowdown_fails() {
        let cfg = CompareConfig::default();
        let slow = doubled(CRITERION, "obs/emit/ring_recorder");
        let pair = compare_pair("base", CRITERION, "cur", &slow, &cfg).expect("compare");
        let report = CompareReport { pairs: vec![pair] };
        assert!(!report.is_ok());
        assert_eq!(report.regressions(), 1);
        let human = report.render_human();
        assert!(human.contains("REGRESSION obs/emit/ring_recorder"));
        assert!(human.contains("2.00x degradation"));
        let json = report.to_json();
        assert!(json.contains("\"regressed\":true"));
        assert!(json.contains("\"ok\":false"));
    }

    #[test]
    fn sub_floor_entries_never_regress() {
        // 0.34 ns -> 0.68 ns is a 2x ratio but both sit below the 5 ns
        // floor, so the guarded-emission wiggle is ignored.
        let cfg = CompareConfig::default();
        let slow = doubled(CRITERION, "obs/emit/null_sink");
        let pair = compare_pair("base", CRITERION, "cur", &slow, &cfg).expect("compare");
        assert_eq!(pair.regressions().count(), 0);
    }

    #[test]
    fn per_id_override_tightens_the_limit() {
        let mut cfg = CompareConfig::default();
        cfg.overrides
            .insert("obs/serialize/write_json".to_string(), 1.1);
        let slow = doubled(CRITERION, "obs/serialize/write_json");
        let pair = compare_pair("base", CRITERION, "cur", &slow, &cfg).expect("compare");
        let regressed: Vec<_> = pair.regressions().map(|c| c.id.clone()).collect();
        assert_eq!(regressed, vec!["obs/serialize/write_json".to_string()]);
    }

    #[test]
    fn missing_id_is_a_regression_and_new_id_is_not() {
        let cfg = CompareConfig::default();
        let shrunk = r#"[{"id": "obs/emit/null_sink", "min_ns": 0.3, "mean_ns": 0.34, "max_ns": 0.4},
            {"id": "obs/emit/brand_new", "min_ns": 1.0, "mean_ns": 1.0, "max_ns": 1.0}]"#;
        let pair = compare_pair("base", CRITERION, "cur", shrunk, &cfg).expect("compare");
        let regressed: Vec<_> = pair.regressions().map(|c| c.id.clone()).collect();
        assert_eq!(
            regressed,
            vec![
                "obs/emit/ring_recorder".to_string(),
                "obs/serialize/write_json".to_string()
            ]
        );
        assert_eq!(pair.new_ids, vec!["obs/emit/brand_new".to_string()]);
        let human = CompareReport { pairs: vec![pair] }.render_human();
        assert!(human.contains("missing from current results"));
        assert!(human.contains("new obs/emit/brand_new"));
    }

    #[test]
    fn sim_report_throughput_drop_fails() {
        let cfg = CompareConfig::default();
        let entries = extract_entries(SIM).expect("parse sim");
        let ids: Vec<_> = entries.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(
            ids,
            vec!["sim/lazy/events_per_sec", "sim/lazy/peak_sessions"]
        );
        // Halve the lazy throughput: a 2x degradation on higher-is-better.
        let slow = SIM.replace("\"events_per_sec\":840682.0", "\"events_per_sec\":420341.0");
        let pair = compare_pair("base", SIM, "cur", &slow, &cfg).expect("compare");
        let regressed: Vec<_> = pair.regressions().map(|c| c.id.clone()).collect();
        assert_eq!(regressed, vec!["sim/lazy/events_per_sec".to_string()]);
    }

    const ROWS: &str = r#"{"rows":[
  {"id": "proxy/hit_ratio", "value": 0.8, "direction": "higher"},
  {"id": "proxy/startup_mean_s", "value": 40.0, "direction": "lower"}
]}"#;

    #[test]
    fn rows_report_gates_both_directions() {
        let cfg = CompareConfig {
            floor_ns: 0.0,
            ..CompareConfig::default()
        };
        let entries = extract_entries(ROWS).expect("parse rows");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].direction, Direction::HigherBetter);
        assert_eq!(entries[1].direction, Direction::LowerBetter);
        // Identical files pass.
        let pair = compare_pair("base", ROWS, "cur", ROWS, &cfg).expect("compare");
        assert_eq!(pair.regressions().count(), 0);
        // A halved hit ratio regresses (higher is better)...
        let worse = ROWS.replace("0.8", "0.4");
        let pair = compare_pair("base", ROWS, "cur", &worse, &cfg).expect("compare");
        let regressed: Vec<_> = pair.regressions().map(|c| c.id.clone()).collect();
        assert_eq!(regressed, vec!["proxy/hit_ratio".to_string()]);
        // ...and a doubled startup mean regresses (lower is better).
        let worse = ROWS.replace("40.0", "80.0");
        let pair = compare_pair("base", ROWS, "cur", &worse, &cfg).expect("compare");
        let regressed: Vec<_> = pair.regressions().map(|c| c.id.clone()).collect();
        assert_eq!(regressed, vec!["proxy/startup_mean_s".to_string()]);
        // Malformed rows are format errors, not silent skips.
        assert!(extract_entries(r#"{"rows":[{"id":"x","value":1}]}"#).is_err());
        assert!(extract_entries(r#"{"rows":[{"value":1,"direction":"higher"}]}"#).is_err());
    }

    #[test]
    fn only_prefix_scopes_the_comparison() {
        let cfg = CompareConfig {
            only: Some("obs/emit/".to_string()),
            ..Default::default()
        };
        // A 2x slowdown outside the prefix is invisible; the prefixed
        // entries are still held to their limits.
        let slow = doubled(CRITERION, "obs/serialize/write_json");
        let pair = compare_pair("base", CRITERION, "cur", &slow, &cfg).expect("compare");
        assert_eq!(pair.regressions().count(), 0);
        let ids: Vec<_> = pair.comparisons.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, vec!["obs/emit/null_sink", "obs/emit/ring_recorder"]);
        // A current-only id outside the prefix is not reported as new.
        assert!(pair.new_ids.is_empty());
    }

    #[test]
    fn unrecognized_format_errors() {
        let cfg = CompareConfig::default();
        assert!(compare_pair("b", "{\"x\":1}", "c", "{\"x\":1}", &cfg).is_err());
        assert!(compare_pair("b", "not json", "c", "[]", &cfg).is_err());
    }
}
