//! Flag validation of the `reproduce` binary, driven as a child process.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

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
fn parallel_is_rejected_where_it_would_do_nothing() {
    for artifact in ["table8", "capacity", "resilient"] {
        let out = reproduce(&[artifact, "--parallel"]);
        assert_eq!(out.status.code(), Some(1), "{artifact}");
        assert!(out.stdout.is_empty(), "{artifact} ran before rejecting");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("--parallel only applies to"),
            "{artifact}: {err}"
        );
    }
}

#[test]
fn batch_is_an_unknown_flag() {
    let out = reproduce(&["fig12", "--batch", "10"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag \"--batch\""), "{err}");
}

#[test]
fn unknown_artifact_fails_before_running_anything() {
    let out = reproduce(&["tabel1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "ran before rejecting");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown artifact \"tabel1\""), "{err}");
    // The list of valid names comes from the artifact table, so it names
    // every artifact, including the late additions.
    for name in [
        "table1", "deadline", "fta", "session", "serve", "loadgen", "all",
    ] {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
}
