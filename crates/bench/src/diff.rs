//! Regression differ for `uavail-bench/v1` artifacts.
//!
//! The `reproduce --bench-json` emitter writes one JSON-lines artifact per
//! run: a meta record followed by one record per `(name, mode)` benchmark
//! with its mean in nanoseconds. This module compares two such artifacts —
//! a baseline and a candidate — and reports every benchmark whose mean
//! slowed down by more than a noise threshold, so CI can fail a pull
//! request that regresses the context-reuse or cold-build paths.
//!
//! Ratios are `new / old`; a benchmark regresses when its ratio exceeds
//! its threshold. Thresholds are deliberately caller-chosen: a
//! same-machine back-to-back comparison can afford a tight bound, while
//! comparing against a committed baseline from different hardware needs a
//! generous one. On top of the default threshold, callers can assign
//! per-benchmark **budgets** (`name/mode` → ratio) so the benchmarks that
//! guard a specific optimization get a tight bound without squeezing the
//! noisy ones — see [`diff_artifacts`]. Benchmarks present
//! in only one artifact are reported (renames and deletions should be
//! visible) but never fail the diff; budgets that match no baseline
//! benchmark are likewise reported, so a renamed case cannot silently
//! lose its guard.
//!
//! Parsing uses the in-tree `uavail_obs::json` parser — the differ adds no
//! dependencies and rejects malformed artifacts (bad JSON, duplicate keys,
//! non-finite means) with a line-numbered error.

use uavail_obs::json::{self, JsonValue};

use crate::render;
use uavail_travel::report::Table;

/// Schema tag the differ accepts, matching the `reproduce` emitter.
pub const BENCH_SCHEMA: &str = "uavail-bench/v1";

/// One benchmark measurement parsed from an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark case, e.g. `figure12`.
    pub name: String,
    /// Measurement mode, e.g. `cold_build` or `context_reuse`.
    pub mode: String,
    /// Mean wall-clock time per iteration in nanoseconds.
    pub mean_ns: f64,
    /// Iterations behind the mean.
    pub iters: u64,
}

impl BenchRecord {
    /// Identity used for matching across artifacts.
    fn key(&self) -> (&str, &str) {
        (&self.name, &self.mode)
    }
}

/// Comparison of one benchmark present in both artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Benchmark case name.
    pub name: String,
    /// Measurement mode.
    pub mode: String,
    /// Baseline mean (ns).
    pub old_mean_ns: f64,
    /// Candidate mean (ns).
    pub new_mean_ns: f64,
    /// `new_mean_ns / old_mean_ns`; above 1 means the candidate is slower.
    pub ratio: f64,
    /// Ratio above which this benchmark counts as regressed: its budget
    /// if one was assigned, the report's default threshold otherwise.
    pub threshold: f64,
}

/// Full result of diffing two artifacts at a given threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Matched benchmarks, in baseline order.
    pub entries: Vec<DiffEntry>,
    /// `name/mode` keys present only in the baseline artifact.
    pub only_old: Vec<String>,
    /// `name/mode` keys present only in the candidate artifact.
    pub only_new: Vec<String>,
    /// Budget keys that matched no baseline benchmark.
    pub unused_budgets: Vec<String>,
    /// Default ratio bound for benchmarks without a budget of their own.
    pub threshold: f64,
}

impl DiffReport {
    /// Matched benchmarks whose slowdown exceeds their threshold.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffEntry> {
        self.entries.iter().filter(|e| e.ratio > e.threshold)
    }

    /// Whether any matched benchmark regressed past its threshold.
    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Renders the comparison as a human-readable table plus a verdict
    /// line, in ASCII or CSV form.
    pub fn render(&self, csv: bool) -> String {
        let mut t = Table::new(
            "Bench diff — candidate vs baseline means",
            vec![
                "case", "mode", "old (ms)", "new (ms)", "ratio", "budget", "verdict",
            ],
        );
        for e in &self.entries {
            let verdict = if e.ratio > e.threshold {
                "REGRESSED"
            } else {
                "ok"
            };
            let budget = if e.threshold == self.threshold {
                format!("{:.2}x", e.threshold)
            } else {
                format!("{:.2}x*", e.threshold)
            };
            t.add_row(vec![
                e.name.clone(),
                e.mode.clone(),
                format!("{:.3}", e.old_mean_ns / 1e6),
                format!("{:.3}", e.new_mean_ns / 1e6),
                format!("{:.2}x", e.ratio),
                budget,
                verdict.to_string(),
            ]);
        }
        let mut out = render(&t, csv);
        for key in &self.only_old {
            out.push_str(&format!("only in baseline: {key}\n"));
        }
        for key in &self.only_new {
            out.push_str(&format!("only in candidate: {key}\n"));
        }
        for key in &self.unused_budgets {
            out.push_str(&format!("budget matched no baseline benchmark: {key}\n"));
        }
        let regressed = self.regressions().count();
        if regressed > 0 {
            out.push_str(&format!(
                "{regressed} benchmark(s) regressed past the {:.2}x threshold\n",
                self.threshold
            ));
        } else {
            out.push_str(&format!(
                "no regressions past the {:.2}x threshold\n",
                self.threshold
            ));
        }
        out
    }
}

/// Parses a `uavail-bench/v1` JSON-lines artifact into its benchmark
/// records, validating the meta record's schema tag. Derived records
/// (speedups) are skipped — they are recomputed views of the bench
/// records, not measurements.
///
/// # Errors
///
/// A line-numbered message when a line is not valid JSON, the schema tag
/// is missing or unexpected, or a bench record lacks a field.
pub fn parse_artifact(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut records = Vec::new();
    let mut schema_seen = false;
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let kind = value
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {line_no}: record has no \"type\""))?;
        match kind {
            "meta" => {
                let schema = value
                    .get("schema")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("line {line_no}: meta record has no \"schema\""))?;
                if schema != BENCH_SCHEMA {
                    return Err(format!(
                        "line {line_no}: schema {schema:?} is not {BENCH_SCHEMA:?}"
                    ));
                }
                schema_seen = true;
            }
            "bench" => {
                let field_str = |k: &str| {
                    value
                        .get(k)
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("line {line_no}: bench record has no {k:?}"))
                };
                let mean_ns = value
                    .get("mean_ns")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("line {line_no}: bench record has no \"mean_ns\""))?;
                if !(mean_ns.is_finite() && mean_ns > 0.0) {
                    return Err(format!(
                        "line {line_no}: mean_ns {mean_ns} is not a positive duration"
                    ));
                }
                records.push(BenchRecord {
                    name: field_str("name")?,
                    mode: field_str("mode")?,
                    mean_ns,
                    iters: value.get("iters").and_then(JsonValue::as_u64).unwrap_or(0),
                });
            }
            // Derived and future record types pass through untouched.
            _ => {}
        }
    }
    if !schema_seen {
        return Err(format!("artifact has no {BENCH_SCHEMA:?} meta record"));
    }
    Ok(records)
}

/// Diffs two artifact texts, matching records by `(name, mode)`, with
/// per-benchmark regression budgets.
///
/// Each budget is a `("name/mode", ratio)` pair; a matched benchmark is
/// held to its budget when one exists and to `threshold` otherwise.
/// Budgets whose key matches no baseline benchmark are collected in
/// [`DiffReport::unused_budgets`] (reported, never fatal), so a renamed
/// case cannot silently shed a tight bound.
///
/// # Errors
///
/// Propagates [`parse_artifact`] failures (prefixed with which side was
/// malformed) and rejects a non-finite or non-positive threshold, a
/// non-finite or non-positive budget ratio, or a duplicated budget key.
pub fn diff_artifacts(
    baseline: &str,
    candidate: &str,
    threshold: f64,
    budgets: &[(String, f64)],
) -> Result<DiffReport, String> {
    if !(threshold.is_finite() && threshold > 0.0) {
        return Err(format!("threshold {threshold} must be a positive ratio"));
    }
    for (i, (key, ratio)) in budgets.iter().enumerate() {
        if !(ratio.is_finite() && *ratio > 0.0) {
            return Err(format!(
                "budget {key}: ratio {ratio} must be a positive ratio"
            ));
        }
        if budgets[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("budget {key} is given more than once"));
        }
    }
    let old = parse_artifact(baseline).map_err(|e| format!("baseline: {e}"))?;
    let new = parse_artifact(candidate).map_err(|e| format!("candidate: {e}"))?;
    let mut entries = Vec::new();
    let mut only_old = Vec::new();
    for o in &old {
        let key = format!("{}/{}", o.name, o.mode);
        match new.iter().find(|n| n.key() == o.key()) {
            Some(n) => entries.push(DiffEntry {
                name: o.name.clone(),
                mode: o.mode.clone(),
                old_mean_ns: o.mean_ns,
                new_mean_ns: n.mean_ns,
                ratio: n.mean_ns / o.mean_ns,
                threshold: budgets
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map_or(threshold, |(_, r)| *r),
            }),
            None => only_old.push(key),
        }
    }
    let only_new = new
        .iter()
        .filter(|n| !old.iter().any(|o| o.key() == n.key()))
        .map(|n| format!("{}/{}", n.name, n.mode))
        .collect();
    let unused_budgets = budgets
        .iter()
        .filter(|(k, _)| !old.iter().any(|o| format!("{}/{}", o.name, o.mode) == **k))
        .map(|(k, _)| k.clone())
        .collect();
    Ok(DiffReport {
        entries,
        only_old,
        only_new,
        unused_budgets,
        threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(records: &[(&str, &str, f64)]) -> String {
        let mut out = String::from(
            "{\"type\":\"meta\",\"schema\":\"uavail-bench/v1\",\
             \"artifact\":\"bench\",\"threads\":2}\n",
        );
        for (name, mode, mean_ns) in records {
            out.push_str(&format!(
                "{{\"type\":\"bench\",\"name\":\"{name}\",\"mode\":\"{mode}\",\
                 \"mean_ns\":{mean_ns:?},\"iters\":3}}\n"
            ));
        }
        out
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = artifact(&[
            ("figure11", "cold_build", 2e6),
            ("figure11", "context_reuse", 1e6),
        ]);
        let report = diff_artifacts(&a, &a, 1.5, &[]).unwrap();
        assert_eq!(report.entries.len(), 2);
        assert!(!report.has_regressions());
        assert!(report.entries.iter().all(|e| e.ratio == 1.0));
        assert!(report.render(false).contains("no regressions"));
    }

    #[test]
    fn injected_2x_slowdown_is_detected() {
        let old = artifact(&[
            ("figure12", "cold_build", 4e6),
            ("table8", "context_reuse", 1e6),
        ]);
        let new = artifact(&[
            ("figure12", "cold_build", 8e6), // 2x slower: must trip a 1.5x bound
            ("table8", "context_reuse", 1.05e6), // 5% jitter: must not
        ]);
        let report = diff_artifacts(&old, &new, 1.5, &[]).unwrap();
        assert!(report.has_regressions());
        let regressed: Vec<&DiffEntry> = report.regressions().collect();
        assert_eq!(regressed.len(), 1);
        assert_eq!(regressed[0].name, "figure12");
        assert!((regressed[0].ratio - 2.0).abs() < 1e-12);
        assert!(report.render(false).contains("REGRESSED"));
    }

    #[test]
    fn speedups_never_regress() {
        let old = artifact(&[("figure11", "cold_build", 4e6)]);
        let new = artifact(&[("figure11", "cold_build", 1e6)]);
        let report = diff_artifacts(&old, &new, 1.5, &[]).unwrap();
        assert!(!report.has_regressions());
        assert!((report.entries[0].ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unmatched_benchmarks_are_reported_not_failed() {
        let old = artifact(&[("gone", "cold_build", 1e6), ("kept", "cold_build", 1e6)]);
        let new = artifact(&[("kept", "cold_build", 1e6), ("added", "cold_build", 9e9)]);
        let report = diff_artifacts(&old, &new, 1.5, &[]).unwrap();
        assert_eq!(report.only_old, vec!["gone/cold_build"]);
        assert_eq!(report.only_new, vec!["added/cold_build"]);
        assert!(!report.has_regressions());
        let rendered = report.render(false);
        assert!(rendered.contains("only in baseline: gone/cold_build"));
        assert!(rendered.contains("only in candidate: added/cold_build"));
    }

    #[test]
    fn tight_budget_trips_inside_the_default_threshold() {
        // A 3x slowdown is within the generous 10x default, but the
        // budgeted case is held to 2x and must fail.
        let old = artifact(&[
            ("sim.farm_replication", "context_reuse", 1e3),
            ("figure11", "cold_build", 1e6),
        ]);
        let new = artifact(&[
            ("sim.farm_replication", "context_reuse", 3e3),
            ("figure11", "cold_build", 3e6),
        ]);
        let budgets = vec![("sim.farm_replication/context_reuse".to_string(), 2.0)];
        let report = diff_artifacts(&old, &new, 10.0, &budgets).unwrap();
        let regressed: Vec<&DiffEntry> = report.regressions().collect();
        assert_eq!(regressed.len(), 1);
        assert_eq!(regressed[0].name, "sim.farm_replication");
        assert_eq!(regressed[0].threshold, 2.0);
        // The unbudgeted case keeps the default bound.
        assert_eq!(report.entries[1].threshold, 10.0);
        let rendered = report.render(false);
        assert!(rendered.contains("REGRESSED"));
        assert!(rendered.contains("2.00x*"));
    }

    #[test]
    fn loose_budget_exempts_a_case_from_the_default_threshold() {
        let old = artifact(&[("noisy", "cold_build", 1e6)]);
        let new = artifact(&[("noisy", "cold_build", 2.5e6)]);
        // 2.5x would trip the 1.5x default, but the case's own budget
        // allows 4x.
        let budgets = vec![("noisy/cold_build".to_string(), 4.0)];
        let report = diff_artifacts(&old, &new, 1.5, &budgets).unwrap();
        assert!(!report.has_regressions());
    }

    #[test]
    fn stale_budget_keys_are_reported_not_fatal() {
        let a = artifact(&[("figure11", "cold_build", 1e6)]);
        let budgets = vec![("renamed_case/cold_build".to_string(), 2.0)];
        let report = diff_artifacts(&a, &a, 1.5, &budgets).unwrap();
        assert_eq!(report.unused_budgets, vec!["renamed_case/cold_build"]);
        assert!(!report.has_regressions());
        assert!(report
            .render(false)
            .contains("budget matched no baseline benchmark: renamed_case/cold_build"));
    }

    #[test]
    fn invalid_budgets_are_rejected() {
        let a = artifact(&[("figure11", "cold_build", 1e6)]);
        let zero = vec![("figure11/cold_build".to_string(), 0.0)];
        assert!(diff_artifacts(&a, &a, 1.5, &zero)
            .unwrap_err()
            .contains("positive"));
        let nan = vec![("figure11/cold_build".to_string(), f64::NAN)];
        assert!(diff_artifacts(&a, &a, 1.5, &nan).is_err());
        let dup = vec![
            ("figure11/cold_build".to_string(), 2.0),
            ("figure11/cold_build".to_string(), 3.0),
        ];
        assert!(diff_artifacts(&a, &a, 1.5, &dup)
            .unwrap_err()
            .contains("more than once"));
    }

    #[test]
    fn real_emitter_output_round_trips() {
        // A line in the exact shape `reproduce --bench-json` writes,
        // including the derived speedup record the parser must skip.
        let text = "{\"type\":\"meta\",\"schema\":\"uavail-bench/v1\",\
                    \"artifact\":\"bench\",\"threads\":4}\n\
                    {\"type\":\"bench\",\"name\":\"figure12\",\
                    \"mode\":\"cold_build\",\"mean_ns\":2613368.4,\"iters\":5}\n\
                    {\"type\":\"derived\",\"name\":\"figure12.context_speedup\",\
                    \"value\":3.1}\n";
        let records = parse_artifact(text).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "figure12");
        assert_eq!(records[0].iters, 5);
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        // No meta record.
        assert!(parse_artifact(
            "{\"type\":\"bench\",\"name\":\"x\",\"mode\":\"m\",\"mean_ns\":1.0}"
        )
        .unwrap_err()
        .contains("meta"));
        // Wrong schema.
        assert!(
            parse_artifact("{\"type\":\"meta\",\"schema\":\"uavail-obs/v1\"}")
                .unwrap_err()
                .contains("uavail-bench/v1")
        );
        // Broken JSON is rejected with its line number.
        let bad = artifact(&[]) + "{not json}\n";
        assert!(parse_artifact(&bad).unwrap_err().starts_with("line 2"));
        // Non-positive mean.
        let zero = artifact(&[("x", "cold_build", 0.0)]);
        assert!(parse_artifact(&zero).unwrap_err().contains("positive"));
        // Bad threshold.
        let a = artifact(&[]);
        assert!(diff_artifacts(&a, &a, 0.0, &[]).is_err());
        assert!(diff_artifacts(&a, &a, f64::NAN, &[]).is_err());
    }
}
