//! `e2ebench` — the compiled half of the end-to-end campaign benchmark.
//!
//! ```text
//! e2ebench gen SEED DIR                      # write every workload's specs
//! e2ebench check-sweep SPEC STUDY REPORT     # check a sweep_study report
//! e2ebench check-fleet SPEC REPORT           # check a fleet_study report
//! e2ebench trace INPUTS WORKLOAD SPANS       # traced replay; per-layer JSON
//! ```
//!
//! `e2ebench/run.py` drives these; see `e2ebench/README.md`.

mod check;
mod spec;
mod trace;

use std::path::PathBuf;

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("e2ebench: {message}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| -> &str {
        args.get(i).map(String::as_str).unwrap_or_else(|| fail("missing argument"))
    };
    let outcome = match arg(0) {
        "gen" => {
            let seed: u64 = arg(1).parse().unwrap_or_else(|_| fail("SEED must be a number"));
            spec::write(&spec::generate(seed), &PathBuf::from(arg(2)))
                .map(|()| format!("wrote the inputs of seed {seed}"))
                .map_err(|e| e.to_string())
        }
        "check-sweep" => (|| {
            check::check_sweep(
                &check::read_spec(arg(1))?,
                &check::read_spec(arg(2))?,
                &check::read_report(arg(3))?,
            )
        })(),
        "check-fleet" => {
            (|| check::check_fleet(&check::read_spec(arg(1))?, &check::read_report(arg(2))?))()
        }
        "trace" => trace::run(&PathBuf::from(arg(1)), arg(2), &PathBuf::from(arg(3))),
        other => fail(format!("unknown command {other}")),
    };
    match outcome {
        Ok(message) => println!("{message}"),
        Err(message) => fail(message),
    }
}
