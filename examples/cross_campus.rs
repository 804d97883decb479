//! Cross-campus reproducibility (paper §5): "using such open-sourced
//! learning algorithms and training them with data from some other campus
//! networks (each with its own data store) suggests a viable path for
//! tackling the much-debated reproducibility problem".
//!
//! Three simulated campuses — web-heavy Hillside, research-heavy Bayview,
//! streaming-heavy Northtech — each run the *same* open-sourced
//! development loop on their *private* data stores. Every resulting
//! deployable model is then evaluated on every campus's held-out data.
//!
//! ```sh
//! cargo run --release --example cross_campus
//! ```

use campuslab::control::DevLoopConfig;
use campuslab::testbed::{cross_campus, CampusSite};

fn main() {
    println!("== Cross-campus reproducibility protocol ==\n");
    let sites = CampusSite::default_trio();
    for site in &sites {
        println!(
            "  campus '{}' ({}), app mix: {}",
            site.name,
            site.scenario.campus.campus_prefix(),
            site.scenario
                .workload
                .mix
                .iter()
                .map(|(c, w)| format!("{} {:.0}%", c.name(), w * 100.0))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!("\nrunning the shared development loop privately at each campus...");
    let (result, _) = cross_campus(&sites, &DevLoopConfig::default());

    println!("\nattack-class F1, model trained at row / evaluated at column:\n");
    print!("{:<12}", "");
    for name in &result.names {
        print!("{name:>12}");
    }
    println!();
    for (i, name) in result.names.iter().enumerate() {
        print!("{name:<12}");
        for j in 0..result.names.len() {
            print!("{:>12.3}", result.f1[i][j]);
        }
        println!("   ({} border records)", result.records[i]);
    }
    println!(
        "\nmean in-campus F1:    {:.3}\nmean cross-campus F1: {:.3}",
        result.mean_in_campus(),
        result.mean_cross_campus()
    );
    println!("\nthe shape to notice: models transfer (the amplification signature is");
    println!("structural), but each campus's own model fits its own traffic best —");
    println!("which is exactly the paper's argument for per-campus data stores plus");
    println!("shared, open-sourced algorithms.");
}
