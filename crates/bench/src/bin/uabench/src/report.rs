//! What a run reports: the metric lines, `results.json`, and the one-line
//! JSON result that ends standard output.

use std::path::Path;

use uavail_obs::json::JsonValue;

use crate::stats::Tally;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: u64,
    /// For tail latencies: the percentile reported, in thousandths of a
    /// percent.
    pub percentile_milli: Option<u64>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            percentile_milli: None,
        }
    }
}

/// The outcome of one workload in one mode.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub clients: u64,
    /// The `reproduce` command lines the run spawned, arguments only.
    pub commands: Vec<String>,
    /// Operations: `/eval` requests and `reproduce` processes.
    pub tally: Tally,
    /// Failed consistency checks that are not single operations: a
    /// server that answered a different number of requests than were sent,
    /// a layer decomposition that disagrees with the whole.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.problems.is_empty()
    }

    /// `<workload> <metric> <value> <unit> n=<samples>` per metric.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                let p = m
                    .percentile_milli
                    .map(|p| format!(" p={}", p as f64 / 1000.0))
                    .unwrap_or_default();
                format!(
                    "{} {} {} {} n={}{p}",
                    self.workload, m.name, m.value, m.unit, m.samples
                )
            })
            .collect()
    }

    fn to_json(&self, commit: &str) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("name", JsonValue::str(m.name)),
                    ("value", JsonValue::Float(m.value)),
                    ("unit", JsonValue::str(m.unit)),
                    ("samples", JsonValue::UInt(m.samples)),
                ];
                if let Some(p) = m.percentile_milli {
                    fields.push(("percentile", JsonValue::Float(p as f64 / 1000.0)));
                }
                JsonValue::object(fields)
            })
            .collect();
        JsonValue::object(vec![
            ("workload", JsonValue::str(self.workload)),
            ("trace", JsonValue::Bool(self.traced)),
            ("commit", JsonValue::str(commit)),
            ("seed", JsonValue::UInt(self.seed)),
            ("seconds", JsonValue::Float(self.seconds)),
            ("clients", JsonValue::UInt(self.clients)),
            (
                "commands",
                JsonValue::Array(self.commands.iter().map(JsonValue::str).collect()),
            ),
            ("attempted", JsonValue::UInt(self.tally.attempted())),
            ("failed", JsonValue::UInt(self.tally.failed)),
            ("correct", JsonValue::Bool(self.correct())),
            (
                "failures",
                JsonValue::Array(
                    self.tally
                        .messages
                        .iter()
                        .chain(&self.problems)
                        .map(JsonValue::str)
                        .collect(),
                ),
            ),
            ("metrics", JsonValue::Array(metrics)),
        ])
    }
}

/// Writes `<out>/results.json`.
pub fn write_results(out: &Path, reports: &[Report]) -> Result<(), String> {
    let commit = git_commit();
    let doc = JsonValue::object(vec![
        ("schema", JsonValue::str("uabench/v1")),
        ("commit", JsonValue::str(commit.clone())),
        (
            "reports",
            JsonValue::Array(reports.iter().map(|r| r.to_json(&commit)).collect()),
        ),
    ]);
    let path = out.join("results.json");
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The final standard-output line. With one report its metrics keep their
/// names; with several each name is prefixed by `<workload>/`, and by
/// `traced/` for traced runs.
pub fn result_line(reports: &[Report]) -> String {
    let single = reports.len() == 1;
    let mut metrics = Vec::new();
    for r in reports {
        for m in &r.metrics {
            let key = if single {
                m.name.to_string()
            } else {
                format!(
                    "{}{}/{}",
                    if r.traced { "traced/" } else { "" },
                    r.workload,
                    m.name
                )
            };
            metrics.push((
                key,
                JsonValue::object(vec![
                    ("value", JsonValue::Float(m.value)),
                    ("unit", JsonValue::str(m.unit)),
                ]),
            ));
        }
    }
    let attempted: u64 = reports.iter().map(|r| r.tally.attempted()).sum();
    let failed: u64 = reports.iter().map(|r| r.tally.failed).sum();
    JsonValue::object(vec![
        (
            "correct",
            JsonValue::Bool(reports.iter().all(Report::correct)),
        ),
        ("attempted", JsonValue::UInt(attempted)),
        ("failed", JsonValue::UInt(failed)),
        ("metrics", JsonValue::Object(metrics)),
    ])
    .to_string()
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &'static str, failed: bool) -> Report {
        let mut tally = Tally::default();
        tally.succeed();
        if failed {
            tally.fail("boom");
        }
        Report {
            workload,
            traced: false,
            seed: 1,
            seconds: 10.0,
            clients: 2,
            commands: vec!["serve".to_string()],
            tally,
            problems: Vec::new(),
            metrics: vec![Metric::new("qps", 1234.5, "1/s", 20)],
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(&[report("eval-hot", false)]);
        let v = uavail_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(0));
        let qps = v.get("metrics").and_then(|m| m.get("qps")).expect("qps");
        assert_eq!(qps.get("value").and_then(JsonValue::as_f64), Some(1234.5));
        assert_eq!(qps.get("unit").and_then(JsonValue::as_str), Some("1/s"));

        let line = result_line(&[report("eval-hot", false), report("eval-cold", true)]);
        let v = uavail_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(false)));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(1));
        assert!(v
            .get("metrics")
            .and_then(|m| m.get("eval-cold/qps"))
            .is_some());
    }
}
