//! The generated documents are never edited by hand. `METRICS.md` is
//! rendered from the `schema!` tables: a metric added, renamed or
//! re-documented without regenerating it fails here. `EXPERIMENTS.md`
//! carries one generated block per experiment holding that experiment's
//! golden table, and the prose around a block may only quote numbers the
//! block contains. Regenerate both with
//! `cargo run --release -p campuslab-bench --bin gen_golden`.

use campuslab_bench::{docs::with_fresh_blocks, EXPERIMENTS};

#[test]
fn committed_metrics_md_is_fresh() {
    assert_eq!(
        include_str!("../../../METRICS.md"),
        campuslab::testbed::metric_catalogue(),
        "METRICS.md is stale (cargo run --release -p campuslab-bench --bin gen_golden)"
    );
}

/// The `== table ==` section of a committed golden.
fn golden_table(id: &str) -> Option<&'static str> {
    let path = format!("{}/golden/{id}.golden", env!("CARGO_MANIFEST_DIR"));
    let golden: &'static str = String::leak(std::fs::read_to_string(path).ok()?);
    let table = golden.strip_prefix("== table ==\n")?;
    Some(&table[..table.find("\n== prom ==\n")?])
}

/// Every run of three or more digits in `text`, thousands separators
/// (a comma between a digit and exactly three more, "87,743") closed up.
fn digit_runs(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let digit_at = |i: usize| chars.get(i).is_some_and(char::is_ascii_digit);
    let mut runs = vec![String::new()];
    for (i, &c) in chars.iter().enumerate() {
        let separator = c == ','
            && i > 0
            && digit_at(i - 1)
            && (1..=3).all(|k| digit_at(i + k))
            && !digit_at(i + 4);
        if c.is_ascii_digit() {
            runs.last_mut().expect("never empty").push(c);
        } else if !separator {
            runs.push(String::new());
        }
    }
    runs.retain(|r| r.len() >= 3);
    runs
}

#[test]
fn committed_experiments_md_is_fresh() {
    let md = include_str!("../../../EXPERIMENTS.md");
    assert!(
        with_fresh_blocks(md, golden_table) == md,
        "an EXPERIMENTS.md block differs from its golden's table \
         (cargo run --release -p campuslab-bench --bin gen_golden)"
    );
    for (id, _, _) in EXPERIMENTS {
        let heading = format!("\n## {id} \u{2014} ");
        let section = md.split_once(&heading).unwrap_or_else(|| panic!("no section for {id}")).1;
        let section = section.split("\n## ").next().expect("split yields one piece");
        let (prose, _) = section
            .split_once(&format!("<!-- exp:{id} -->"))
            .unwrap_or_else(|| panic!("{id}'s section has no generated block"));
        // Everything from **Measured:** to the block is the measured claim.
        let (_, measured) = prose
            .split_once("**Measured:**")
            .unwrap_or_else(|| panic!("{id}'s section has no **Measured:** paragraph before its block"));
        let table = golden_table(id).unwrap_or_else(|| panic!("no golden for {id}"));
        for run in digit_runs(measured) {
            assert!(
                table.contains(&run),
                "{id}: **Measured:** quotes {run}, which its golden table does not contain"
            );
        }
    }
}

#[test]
fn digit_runs_close_up_thousands_separators() {
    assert_eq!(
        digit_runs("87,743 packets, 32 segments, 1,000,001 TCAM, 0.999, 9.39 ms, in 2019, 1,2"),
        ["87743", "1000001", "999", "2019"]
    );
}
