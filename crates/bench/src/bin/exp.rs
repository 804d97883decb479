//! Regenerates one experiment table by registry id (see EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p campuslab-bench --bin exp -- E14
//! ```

fn main() {
    let registry = campuslab_bench::all();
    let wanted = std::env::args().nth(1);
    let Some((_, _, run)) = registry.iter().find(|(id, _, _)| Some(*id) == wanted.as_deref())
    else {
        eprintln!("usage: exp <id>");
        for (id, title, _) in &registry {
            eprintln!("  {id:<4} {title}");
        }
        std::process::exit(2);
    };
    println!("{}", run());
}
