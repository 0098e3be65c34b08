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
fn parallel_is_accepted_where_it_runs_the_figure_on_worker_threads() {
    let serial = reproduce(&["fig12"]);
    let parallel = reproduce(&["fig12", "--parallel"]);
    assert!(serial.status.success() && parallel.status.success());
    // Same table, plus one line naming the thread count.
    let serial = String::from_utf8(serial.stdout).unwrap();
    let parallel = String::from_utf8(parallel.stdout).unwrap();
    let table: String = parallel
        .lines()
        .filter(|l| !l.starts_with("(computed on"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(table, serial);
    assert!(
        parallel.contains("identical to the serial sweep"),
        "{parallel}"
    );
}

#[test]
fn a_flag_outside_its_scope_fails_before_running_and_names_the_flag() {
    for (args, flag) in [
        (&["table1", "--port", "0"][..], "--port"),
        (&["table1", "--addr", "x"], "--addr"),
        (&["fig12", "--bench-json", "x"], "--bench-json"),
        (&["loadgen", "--addr", "x", "--metrics", "m"], "--metrics"),
        (&["table8", "--parallel"], "--parallel only applies to"),
        (&["capacity", "--parallel"], "--parallel only applies to"),
        (&["resilient", "--parallel"], "--parallel only applies to"),
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
