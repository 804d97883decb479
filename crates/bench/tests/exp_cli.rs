//! The `exp` binary's contract with scripts: an id it does not know is a
//! usage error (exit 2, every id on stderr, nothing on stdout), a known id
//! prints its table and exits 0.

use std::process::Command;

fn exp(arg: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .arg(arg)
        .output()
        .expect("spawn exp")
}

#[test]
fn unknown_id_prints_usage_and_exits_2() {
    let out = exp("E99");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("utf-8 usage");
    assert!(stderr.starts_with("usage: exp"), "{stderr}");
    for (id, _, _) in campuslab_bench::EXPERIMENTS {
        assert!(
            stderr.contains(&format!("\n  {id:<4} ")),
            "usage omits {id}"
        );
    }
}

#[test]
fn known_id_prints_its_table_and_exits_0() {
    let out = exp("F1");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");
    assert!(stdout.starts_with("F1: "), "{stdout}");
    assert!(stdout.lines().count() > 10, "{stdout}");
}
