use campuslab_perfledger::harness::{measure, traced, RunConfig};
use campuslab_perfledger::report::{
    print_metrics, result_line, run_aa, run_all, REROUTING_ENV, SPECIFIC_PREFIX,
};
use campuslab_perfledger::workloads;
use std::process::ExitCode;

const USAGE: &str = "\
usage: perfledger [--seed N] [--repeats N] [--traced | --aa] [--smoke]
       perfledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]

  (no --workload)  every workload end to end (a child process each), then
                   every workload's traced pass
  --traced         the traced passes only
  --aa             the end-to-end set twice, compared against the bounds;
                   writes out/aa.json
  --smoke          a 3 s campus day, one set-up, one measured iteration
  --workload NAME  run one workload and end with its result line
  --trace 0|1      0: end-to-end metrics, tracing off (default);
                   1: that workload's traced pass, per-layer metrics
  --seed N         picks the attacked host (default 42)
  --repeats N      measured iterations after the warm-up (default 5)
  --seconds S      instead: iterate for S seconds, three times at least
";

struct Args {
    workload: Option<&'static workloads::Spec>,
    cfg: RunConfig,
    trace: bool,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        cfg: RunConfig {
            seed: 42,
            repeats: 5,
            seconds: 0.0,
            smoke: false,
        },
        trace: false,
        aa: false,
    };
    let mut repeats_given = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(workloads::find(&name).ok_or_else(|| {
                    let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => args.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--repeats" => {
                args.cfg.repeats = value()?.parse().map_err(|e| format!("--repeats: {e}"))?;
                if !(1..=1000).contains(&args.cfg.repeats) {
                    return Err("--repeats must be between 1 and 1000".into());
                }
                repeats_given = true;
            }
            "--seconds" => {
                args.cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&args.cfg.seconds) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => args.trace = true,
            "--aa" => args.aa = true,
            "--smoke" => args.cfg.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.cfg.smoke {
        (args.cfg.repeats, args.cfg.seconds) = (1, 0.0);
    } else if args.cfg.seconds > 0.0 && !repeats_given {
        args.cfg.repeats = 3;
    }
    if args.aa && (args.trace || args.workload.is_some()) {
        return Err("--aa runs the whole end-to-end set; it takes no --workload or --trace".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprint!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists: these would reroute `Network::run` and the
    // worker pool away from the defaults the benchmark measures.
    for name in REROUTING_ENV {
        std::env::remove_var(name);
    }

    let Some(spec) = args.workload else {
        let outcome = if args.aa {
            run_aa(args.cfg)
        } else {
            run_all(args.cfg, !args.trace)
        };
        return match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    };

    let (values, tally) = if args.trace {
        let traced = traced(spec, args.cfg);
        println!(
            "{}: seed {}, registered layer metrics account for {:.1} % of the traced wall-clock",
            spec.name,
            args.cfg.seed,
            traced.accounted_share * 100.0
        );
        print_metrics(&traced.values);
        (traced.values, traced.tally)
    } else {
        let measured = measure(spec, args.cfg);
        println!(
            "{}: seed {}, digest {:016x}, {} measured iterations: {}",
            spec.name,
            args.cfg.seed,
            measured.tally.digest(),
            measured.walls.len(),
            measured
                .walls
                .iter()
                .map(|w| format!("{w:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        print_metrics(&measured.values);
        print_metrics(&measured.specific);
        println!(
            "{SPECIFIC_PREFIX}{}",
            result_line(&measured.specific, &measured.tally)
        );
        (measured.values, measured.tally)
    };
    for failure in &tally.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", result_line(&values, &tally));
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
