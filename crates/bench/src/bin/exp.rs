//! Regenerates one experiment table by id (see EXPERIMENTS.md), or with
//! `all` every table in report order — fanned out across cores (each
//! experiment is internally seeded, so the bytes are identical to a
//! sequential run; `CAMPUSLAB_JOBS=1` forces one). Two optional paths
//! follow `all`: the combined text report, then the Observatory export
//! (`{id, prom, spans}` per experiment with telemetry). No path, no file.
//! Nothing is timed here: `time exp all` is the shell's job.
//!
//! ```sh
//! cargo run --release -p campuslab-bench --bin exp -- E14
//! cargo run --release -p campuslab-bench --bin exp -- all target/report.txt target/obs.json
//! ```

use campuslab_bench::{obs_export::render_obs_json, runner, EXPERIMENTS};

fn main() {
    let mut args = std::env::args().skip(1);
    let wanted = args.next();
    if wanted.as_deref() == Some("all") {
        return all(args.next(), args.next());
    }
    let Some((_, _, run)) = EXPERIMENTS.iter().find(|(id, _, _)| Some(*id) == wanted.as_deref())
    else {
        eprintln!("usage: exp <id> | exp all [report-path] [obs-json-path]");
        for (id, title, _) in &EXPERIMENTS {
            eprintln!("  {id:<4} {title}");
        }
        std::process::exit(2);
    };
    println!("{}", run().table);
}

fn all(report_path: Option<String>, obs_path: Option<String>) {
    let reports = runner::run_all();
    let mut combined = String::new();
    for report in &reports {
        combined.push_str(&format!(
            "\n================ {}: {} ================\n\n{}\n",
            report.id, report.title, report.obs.table
        ));
    }
    print!("{combined}");
    if let Some(path) = report_path {
        std::fs::write(&path, combined).expect("write report file");
        eprintln!("combined report written to {path}");
    }
    if let Some(path) = obs_path {
        let json = render_obs_json(reports.iter().map(|r| (r.id, &r.obs)));
        std::fs::write(&path, json).expect("write observatory export");
        eprintln!("observatory export written to {path}");
    }
}
