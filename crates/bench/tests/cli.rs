//! Flag validation and artifact dispatch of the `reproduce` binary,
//! driven as a child process.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

/// Runs a command line that must be rejected before anything runs (exit
/// 1, empty stdout) and returns its stderr.
fn rejected(args: &[&str]) -> String {
    let out = reproduce(args);
    assert_eq!(out.status.code(), Some(1), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
    String::from_utf8(out.stderr).unwrap()
}

/// The artifacts `reproduce all` prints, in its order.
const PRINTED_BY_ALL: [&str; 21] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "fig11",
    "fig12",
    "fig13",
    "revenue",
    "capacity",
    "ablation",
    "deadline",
    "maintenance",
    "multisite",
    "ramp",
    "fit",
    "fta",
    "mttf",
];

#[test]
fn validate_prints_the_farm_plan_simgate_gates_on() {
    let validate = reproduce(&["validate"]);
    let simgate = reproduce(&["simgate"]);
    assert!(validate.status.success() && simgate.status.success());
    let validate = String::from_utf8(validate.stdout).unwrap();
    let simgate = String::from_utf8(simgate.stdout).unwrap();
    // Everything after each title, up to and including the batch-means
    // line: the same table rows and the same batch-means interval.
    let farm = |out: &str| -> Vec<String> {
        let lines: Vec<&str> = out.lines().collect();
        let end = lines
            .iter()
            .position(|l| l.starts_with("batch-means 99.99% CI"))
            .unwrap_or_else(|| panic!("no batch-means line in {out}"));
        lines[1..=end].iter().map(|l| l.to_string()).collect()
    };
    assert!(validate.starts_with("== Validation"), "{validate}");
    assert!(
        simgate.starts_with("== Simgate — farm simulator"),
        "{simgate}"
    );
    assert_eq!(farm(&validate), farm(&simgate));
    assert!(validate.contains("agreement (15% slack)"), "{validate}");
}

#[test]
fn session_prints_one_row_per_class() {
    let out = reproduce(&["session"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let classes: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|first| ["A", "B"].contains(first))
        .collect();
    assert_eq!(classes, ["A", "B"], "{stdout}");
    assert!(
        stdout.ends_with("(4 replications of 50000 sessions)\n"),
        "{stdout}"
    );
}

#[test]
fn a_flag_outside_its_scope_fails_before_running_and_names_the_flag() {
    for (args, flag) in [
        (&["table1", "--port", "0"][..], "--port"),
        (&["table1", "--addr", "x"], "--addr"),
        (&["fig12", "--bench-json", "x"], "--bench-json"),
        (&["loadgen", "--addr", "x", "--metrics", "m"], "--metrics"),
    ] {
        let err = rejected(args);
        assert!(err.contains(flag), "{args:?}: {err}");
    }
}

#[test]
fn malformed_flags_fail_before_running_anything() {
    let dir = std::env::temp_dir();
    let first = dir.join(format!("reproduce-cli-{}-a.jsonl", std::process::id()));
    let second = dir.join(format!("reproduce-cli-{}-b.jsonl", std::process::id()));
    let (first_text, second_text) = (first.to_str().unwrap(), second.to_str().unwrap());
    for (args, message) in [
        (&["fig12", "--batch", "10"][..], "unknown flag \"--batch\""),
        // The thread count is not a flag.
        (&["fig12", "--parallel"], "unknown flag \"--parallel\""),
        // A value flag never swallows the flag after it, and an empty
        // value is no value.
        (
            &["table1", "--metrics", "--csv"],
            "--metrics requires a file path",
        ),
        (&["table1", "--metrics="], "--metrics requires a file path"),
        (&["table1", "--inject="], "--inject requires a site spec"),
        // A repeated flag is an error, not a silent last-one-wins.
        (
            &["table1", "--metrics", first_text, "--metrics", second_text],
            "--metrics given twice",
        ),
        // The queue takes the `/eval` buffer cap, so no slot count can
        // exhaust memory before a socket is bound.
        (
            &["serve", "--queue", "18446744073709551615"],
            "--queue requires a waiting-slot count of at most 10000",
        ),
    ] {
        let err = rejected(args);
        assert!(err.contains(message), "{args:?}: {err}");
    }
    assert!(
        !first.exists() && !second.exists(),
        "a metrics file was written"
    );
}

#[test]
fn all_prints_every_standalone_artifact_in_order() {
    let mut expected = String::new();
    for name in PRINTED_BY_ALL {
        let out = reproduce(&[name]);
        assert!(out.status.success(), "{name}");
        expected.push_str(&String::from_utf8(out.stdout).unwrap());
        expected.push('\n');
    }
    for name in ["validate", "session", "speedup"] {
        expected.push_str(&format!(
            "(skipping `{name}` in `all`; run `reproduce {name}`)\n\n"
        ));
    }
    let all = reproduce(&["all"]);
    assert!(all.status.success());
    assert_eq!(String::from_utf8(all.stdout).unwrap(), expected);
}

#[test]
fn unknown_artifact_fails_before_running_anything() {
    let err = rejected(&["tabel1"]);
    assert!(err.contains("unknown artifact \"tabel1\""), "{err}");
    // The list of valid names comes from the artifact tables, so it names
    // every artifact, including the late additions.
    for name in PRINTED_BY_ALL
        .into_iter()
        .chain(["validate", "session", "speedup", "serve", "loadgen", "all"])
    {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
}

#[test]
fn simgate_ends_in_a_typed_outcome_under_replication_faults() {
    // Every replication dropped is no evidence: a typed error, exit 1.
    let out = reproduce(&["simgate", "--inject", "drop:1.0"]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("no observations"), "{stderr}");
    // Duplicated replications are folded like any others: the gate
    // passes clean or degraded.
    let out = reproduce(&["simgate", "--inject", "dup:0.3", "--inject-seed", "1"]);
    assert!(
        matches!(out.status.code(), Some(0 | 2)),
        "{:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
