//! The perf record and its gate: `cargo run -p vod-bench -- compare`.
//!
//! Every committed `BENCH_*.json` and every fresh file a producer
//! writes (the Criterion shim's `CRITERION_JSON`, `scale --json`,
//! `ext_proxy --json`) has one shape,
//! `{"rows":[{"id","value","direction","limit"}]}`: `direction` says
//! which way is worse, and `limit` — present in a baseline, absent from
//! a fresh file — is how many times worse than its recorded `value` a
//! row may read before the gate fails. Other fields (`min`, `max`,
//! `why`) are for the reader. Which measurement is gated, and how
//! tightly, is therefore decided in the baseline file and nowhere else:
//! a pair fails on a baseline row the fresh file lacks, on a fresh id
//! the baseline lacks, on a fresh value that is not a finite positive
//! number, and on a row worse than its own limit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Value;

/// Whether a larger measurement is a regression or an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Timings and delays: regressions grow the value.
    LowerBetter,
    /// Throughput, capacity, hit ratios: regressions shrink it.
    HigherBetter,
}

/// One measurement of a bench file.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark id (`group/bench/param`).
    pub id: String,
    /// The measured value (ns for Criterion rows).
    pub value: f64,
    /// Which way regressions point.
    pub direction: Direction,
    /// Allowed degradation factor; only a baseline row carries one.
    pub limit: Option<f64>,
}

impl Row {
    /// A freshly measured row (no limit).
    pub fn new(id: &str, value: f64, direction: Direction) -> Self {
        Row {
            id: id.to_string(),
            value,
            direction,
            limit: None,
        }
    }
}

/// `VmHWM` of this process in MB (`/proc/self/status`; Linux only).
///
/// # Panics
///
/// Panics when the field cannot be read: a row that silently read 0 MB
/// would say nothing about memory.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Renders freshly measured rows as a bench file.
pub fn rows_json(rows: &[Row]) -> String {
    let mut out = String::from("{\"rows\":[\n");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let direction = match row.direction {
            Direction::LowerBetter => "lower",
            Direction::HigherBetter => "higher",
        };
        let _ = write!(
            out,
            "  {{\"id\":\"{}\",\"value\":{},\"direction\":\"{direction}\"}}",
            row.id, row.value
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Parses a bench file, baseline or fresh.
pub fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let value: Value =
        serde_json::from_str(text.trim()).map_err(|e| format!("not valid JSON: {e}"))?;
    let rows = value
        .get_field("rows")
        .and_then(Value::as_array)
        .ok_or("not a bench file (expected {\"rows\":[...]})")?;
    rows.iter()
        .map(|row| {
            let id = row
                .get_field("id")
                .and_then(Value::as_str)
                .ok_or("row without an \"id\" field")?;
            let value = row
                .get_field("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{id}: no numeric \"value\" field"))?;
            let direction = match row.get_field("direction").and_then(Value::as_str) {
                Some("higher") => Direction::HigherBetter,
                Some("lower") => Direction::LowerBetter,
                _ => {
                    return Err(format!(
                        "{id}: \"direction\" is not \"higher\" or \"lower\""
                    ))
                }
            };
            let limit = row
                .get_field("limit")
                .map(|limit| limit.as_f64().ok_or(format!("{id}: non-numeric \"limit\"")))
                .transpose()?;
            Ok(Row {
                id: id.to_string(),
                value,
                direction,
                limit,
            })
        })
        .collect()
}

/// The verdict for one baseline row.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Benchmark id.
    pub id: String,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value, `None` when the id is missing from the fresh file.
    pub current: Option<f64>,
    /// Degradation factor (`> 1` means worse than baseline); infinite
    /// when the fresh value is missing or not a finite positive number.
    pub ratio: f64,
    /// The row's own limit.
    pub limit: f64,
}

impl Comparison {
    /// Whether this row fails the gate.
    pub fn regressed(&self) -> bool {
        self.ratio > self.limit
    }
}

/// The verdict for one baseline/current file pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairReport {
    /// Baseline file label (path).
    pub baseline: String,
    /// Current file label (path).
    pub current: String,
    /// Per-row verdicts, in baseline order.
    pub comparisons: Vec<Comparison>,
    /// Ids only the fresh file has: benches nobody recorded. Each one
    /// fails the gate, so a measurement cannot exist without a limit.
    pub unrecorded: Vec<String>,
}

impl PairReport {
    /// Ids that fail the gate, baseline rows first.
    pub fn failures(&self) -> impl Iterator<Item = &str> {
        let regressed = self.comparisons.iter().filter(|c| c.regressed());
        regressed
            .map(|c| c.id.as_str())
            .chain(self.unrecorded.iter().map(String::as_str))
    }

    /// One line per row, failures marked and named.
    pub fn render(&self) -> String {
        let mut out = format!("compare: {} vs {}\n", self.baseline, self.current);
        for c in &self.comparisons {
            let verdict = if c.regressed() { "REGRESSION" } else { "ok" };
            let _ = match c.current {
                None => writeln!(
                    out,
                    "  {verdict:>10} {}: missing from current results (baseline {:.4})",
                    c.id, c.baseline
                ),
                Some(cur) if c.ratio.is_infinite() => writeln!(
                    out,
                    "  {verdict:>10} {}: {cur} is not a finite positive measurement",
                    c.id
                ),
                Some(cur) => writeln!(
                    out,
                    "  {verdict:>10} {}: {:.4} -> {cur:.4} ({:.2}x degradation, limit {:.2}x)",
                    c.id, c.baseline, c.ratio, c.limit
                ),
            };
        }
        for id in &self.unrecorded {
            let _ = writeln!(out, "  UNRECORDED {id}: no baseline row");
        }
        out
    }
}

/// Compares one baseline file against one fresh file (both as text).
pub fn compare_pair(
    baseline_label: &str,
    baseline_text: &str,
    current_label: &str,
    current_text: &str,
) -> Result<PairReport, String> {
    let baseline = parse_rows(baseline_text).map_err(|e| format!("{baseline_label}: {e}"))?;
    let current = parse_rows(current_text).map_err(|e| format!("{current_label}: {e}"))?;
    let current_by_id: BTreeMap<&str, f64> =
        current.iter().map(|r| (r.id.as_str(), r.value)).collect();

    let comparisons = baseline
        .iter()
        .map(|base| {
            let limit = base
                .limit
                .ok_or_else(|| format!("{baseline_label}: {} has no \"limit\"", base.id))?;
            let current = current_by_id.get(base.id.as_str()).copied();
            Ok(Comparison {
                id: base.id.clone(),
                baseline: base.value,
                current,
                ratio: current.map_or(f64::INFINITY, |cur| degradation(base, cur)),
                limit,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let unrecorded = current
        .iter()
        .filter(|r| baseline.iter().all(|b| b.id != r.id))
        .map(|r| r.id.clone())
        .collect();
    Ok(PairReport {
        baseline: baseline_label.to_string(),
        current: current_label.to_string(),
        comparisons,
        unrecorded,
    })
}

/// Degradation factor of `current` relative to `base` (`> 1` = worse).
/// A timing of 0 ns means the measured loop was optimised away, so
/// anything but a finite positive number is infinitely worse.
fn degradation(base: &Row, current: f64) -> f64 {
    if !(current.is_finite() && current > 0.0) {
        return f64::INFINITY;
    }
    match base.direction {
        Direction::LowerBetter => current / base.value,
        Direction::HigherBetter => base.value / current,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMINGS: &str = r#"{"rows":[
  {"id": "obs/emit/null_sink", "value": 0.34, "direction": "lower", "limit": 4.0, "min": 0.33},
  {"id": "obs/emit/ring_recorder", "value": 23.26, "direction": "lower", "limit": 1.75},
  {"id": "obs/serialize/write_json", "value": 316.1, "direction": "lower", "limit": 1.75}
]}"#;

    const SIM: &str = r#"{"rows":[
  {"id": "sim/lazy/events_per_sec", "value": 840682.0, "direction": "higher", "limit": 1.75},
  {"id": "sim/lazy/peak_sessions", "value": 102283, "direction": "higher", "limit": 1.0}
]}"#;

    /// `text` as a producer would have written it, with `id` (if any)
    /// scaled by `factor`.
    fn fresh(text: &str, id: &str, factor: f64) -> String {
        let mut rows = parse_rows(text).expect("parse");
        for row in &mut rows {
            if row.id == id {
                row.value *= factor;
            }
        }
        rows_json(&rows)
    }

    fn failures(baseline: &str, current: &str) -> Vec<String> {
        let pair = compare_pair("base", baseline, "cur", current).expect("compare");
        pair.failures().map(str::to_string).collect()
    }

    #[test]
    fn identical_files_pass() {
        assert!(failures(TIMINGS, &fresh(TIMINGS, "", 1.0)).is_empty());
        assert!(failures(SIM, &fresh(SIM, "", 1.0)).is_empty());
    }

    #[test]
    fn injected_2x_slowdown_fails() {
        let slow = fresh(TIMINGS, "obs/emit/ring_recorder", 2.0);
        let pair = compare_pair("base", TIMINGS, "cur", &slow).expect("compare");
        assert_eq!(
            pair.failures().collect::<Vec<_>>(),
            ["obs/emit/ring_recorder"]
        );
        let text = pair.render();
        assert!(text.contains("REGRESSION obs/emit/ring_recorder"));
        assert!(text.contains("2.00x degradation, limit 1.75x"));
        // The same factor is inside the sub-nanosecond row's own limit.
        assert!(failures(TIMINGS, &fresh(TIMINGS, "obs/emit/null_sink", 2.0)).is_empty());
    }

    #[test]
    fn missing_id_and_unrecorded_id_both_fail() {
        let shrunk = r#"{"rows":[
            {"id": "obs/emit/null_sink", "value": 0.34, "direction": "lower"},
            {"id": "obs/emit/brand_new", "value": 1.0, "direction": "lower"}]}"#;
        let pair = compare_pair("base", TIMINGS, "cur", shrunk).expect("compare");
        assert_eq!(
            pair.failures().collect::<Vec<_>>(),
            [
                "obs/emit/ring_recorder",
                "obs/serialize/write_json",
                "obs/emit/brand_new"
            ]
        );
        let text = pair.render();
        assert!(text.contains("obs/emit/ring_recorder: missing from current results"));
        assert!(text.contains("UNRECORDED obs/emit/brand_new"));
    }

    #[test]
    fn non_positive_fresh_value_fails() {
        // Neither a floor nor the row's wide limit rescues a 0 ns timing.
        for factor in [0.0, -1.0] {
            let pair = compare_pair(
                "base",
                TIMINGS,
                "cur",
                &fresh(TIMINGS, "obs/emit/null_sink", factor),
            )
            .expect("compare");
            assert_eq!(pair.failures().collect::<Vec<_>>(), ["obs/emit/null_sink"]);
            assert!(pair.render().contains("not a finite positive measurement"));
        }
        assert_eq!(
            failures(SIM, &fresh(SIM, "sim/lazy/events_per_sec", 0.0)),
            ["sim/lazy/events_per_sec"]
        );
    }

    #[test]
    fn sim_report_throughput_drop_fails() {
        assert_eq!(
            failures(SIM, &fresh(SIM, "sim/lazy/events_per_sec", 0.5)),
            ["sim/lazy/events_per_sec"]
        );
        // A limit of 1.0 holds a deterministic count exactly: one
        // session fewer fails, one more is not a regression.
        let one = 1.0 / 102_283.0;
        assert_eq!(
            failures(SIM, &fresh(SIM, "sim/lazy/peak_sessions", 1.0 - one)),
            ["sim/lazy/peak_sessions"]
        );
        assert!(failures(SIM, &fresh(SIM, "sim/lazy/peak_sessions", 1.0 + one)).is_empty());
    }

    const ROWS: &str = r#"{"rows":[
  {"id": "proxy/hit_ratio", "value": 0.8, "direction": "higher", "limit": 2.0},
  {"id": "proxy/startup_mean_s", "value": 40.0, "direction": "lower", "limit": 2.0}
]}"#;

    #[test]
    fn rows_report_gates_both_directions() {
        let rows = parse_rows(ROWS).expect("parse rows");
        assert_eq!(rows[0].direction, Direction::HigherBetter);
        assert_eq!(rows[1].direction, Direction::LowerBetter);
        assert_eq!(rows[1].limit, Some(2.0));
        // Just inside its own limit either way...
        assert!(failures(ROWS, &fresh(ROWS, "proxy/hit_ratio", 0.51)).is_empty());
        assert!(failures(ROWS, &fresh(ROWS, "proxy/startup_mean_s", 1.99)).is_empty());
        // ...and just outside it.
        assert_eq!(
            failures(ROWS, &fresh(ROWS, "proxy/hit_ratio", 0.49)),
            ["proxy/hit_ratio"]
        );
        assert_eq!(
            failures(ROWS, &fresh(ROWS, "proxy/startup_mean_s", 2.01)),
            ["proxy/startup_mean_s"]
        );
        // An improvement, however large, never fails.
        assert!(failures(ROWS, &fresh(ROWS, "proxy/hit_ratio", 10.0)).is_empty());
        assert!(failures(ROWS, &fresh(ROWS, "proxy/startup_mean_s", 0.1)).is_empty());
    }

    #[test]
    fn rows_json_is_the_compare_rows_format() {
        let rows = [
            Row::new("proxy/x", 1.5, Direction::HigherBetter),
            Row::new("proxy/y", 2.0, Direction::LowerBetter),
        ];
        let json = rows_json(&rows);
        assert!(json.starts_with("{\"rows\":[\n"));
        assert!(json.contains("{\"id\":\"proxy/x\",\"value\":1.5,\"direction\":\"higher\"}"));
        assert!(json.contains("{\"id\":\"proxy/y\",\"value\":2,\"direction\":\"lower\"}"));
        assert_eq!(parse_rows(&json).expect("parse"), rows);
    }

    #[test]
    fn unrecognized_format_errors() {
        let fresh_rows = fresh(TIMINGS, "", 1.0);
        assert!(compare_pair("b", "not json", "c", &fresh_rows).is_err());
        assert!(compare_pair("b", "{\"x\":1}", "c", &fresh_rows).is_err());
        // The retired shapes are not bench files any more.
        let array = r#"[{"id": "a", "min_ns": 1.0, "mean_ns": 1.0, "max_ns": 1.0}]"#;
        assert!(compare_pair("b", array, "c", array).is_err());
        assert!(parse_rows(r#"{"lazy":{"events_per_sec":1.0,"peak_sessions":1}}"#).is_err());
        // Malformed rows are format errors, not silent skips.
        assert!(parse_rows(r#"{"rows":[{"id":"x","value":1}]}"#).is_err());
        assert!(parse_rows(r#"{"rows":[{"value":1,"direction":"higher"}]}"#).is_err());
        assert!(parse_rows(r#"{"rows":[{"id":"x","value":"1","direction":"lower"}]}"#).is_err());
        // A baseline row with no limit is not a baseline.
        let err = compare_pair("b", &fresh_rows, "c", &fresh_rows).expect_err("no limit");
        assert!(err.contains("obs/emit/null_sink has no \"limit\""), "{err}");
    }

    /// Every committed `BENCH_*.json` is a baseline: the one shape, a
    /// finite positive value and a limit of at least 1 on every row,
    /// and no id recorded twice.
    #[test]
    fn committed_baselines_are_gateable() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut files = 0;
        let mut seen = BTreeMap::new();
        for entry in std::fs::read_dir(root).expect("repo root") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            files += 1;
            let text = std::fs::read_to_string(&path).expect("read baseline");
            for row in parse_rows(&text).unwrap_or_else(|e| panic!("{name}: {e}")) {
                assert!(
                    row.value.is_finite() && row.value > 0.0,
                    "{name}: {} = {}",
                    row.id,
                    row.value
                );
                let limit = row.limit.unwrap_or(f64::NAN);
                assert!(limit >= 1.0, "{name}: {} has limit {limit}", row.id);
                if let Some(other) = seen.insert(row.id.clone(), name.to_string()) {
                    panic!("{} is a row of both {other} and {name}", row.id);
                }
            }
        }
        assert_eq!(files, 6, "BENCH_*.json files at the repo root");
    }
}
