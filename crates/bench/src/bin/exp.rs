//! Regenerates one experiment table by registry id (see EXPERIMENTS.md),
//! or with `all` every table in report order — fanned out across cores
//! (each experiment is internally seeded, so the tables are identical to a
//! sequential run; `CAMPUSLAB_JOBS=1` forces one) — plus, when a path
//! follows, the combined report written there.
//!
//! ```sh
//! cargo run --release -p campuslab-bench --bin exp -- E14
//! cargo run --release -p campuslab-bench --bin exp -- all target/report.txt
//! ```

fn main() {
    let mut args = std::env::args().skip(1);
    let wanted = args.next();
    if wanted.as_deref() == Some("all") {
        return all(args.next());
    }
    let registry = campuslab_bench::all();
    let Some((_, _, run)) = registry
        .iter()
        .find(|(id, _, _)| Some(*id) == wanted.as_deref())
    else {
        eprintln!("usage: exp <id> | exp all [report-path]");
        for (id, title, _) in &registry {
            eprintln!("  {id:<4} {title}");
        }
        std::process::exit(2);
    };
    println!("{}", run());
}

fn all(out_path: Option<String>) {
    let started = std::time::Instant::now();
    let reports = campuslab_bench::runner::run_all();
    let wall = started.elapsed();
    let mut combined = String::new();
    let mut cpu = std::time::Duration::ZERO;
    for report in &reports {
        let header = format!(
            "\n================ {}: {} ================\n\n",
            report.id, report.title
        );
        print!("{header}");
        println!("{}", report.body);
        println!("[{} regenerated in {:?}]", report.id, report.elapsed);
        combined.push_str(&header);
        combined.push_str(&report.body);
        combined.push('\n');
        cpu += report.elapsed;
    }
    eprintln!(
        "regenerated {} experiments in {wall:?} wall ({cpu:?} of experiment time)",
        reports.len()
    );
    if let Some(path) = out_path {
        std::fs::write(&path, combined).expect("write report file");
        eprintln!("combined report written to {path}");
    }
    // Observatory export: every instrumented experiment's metrics dump and
    // sim-time trace, as one JSON file (path via CAMPUSLAB_OBS_JSON).
    let bundles: Vec<_> = reports.iter().filter_map(|r| r.obs.as_ref()).collect();
    match campuslab_bench::obs_export::write_obs_json(&bundles) {
        Ok(path) => eprintln!(
            "observatory export ({} experiments) written to {path}",
            bundles.len()
        ),
        Err(e) => eprintln!("observatory export failed: {e}"),
    }
}
