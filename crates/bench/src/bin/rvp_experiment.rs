//! `rvp-experiment NAME [WORKLOAD ...] [--realloc]` prints one entry of
//! [`rvp_bench::experiments`] on its default workloads or on the ones
//! named; `--realloc` reallocates registers before `probe_plan`. The
//! budgets, sampling, scale and trace store come from the `RVP_*`
//! environment ([`rvp_bench::runner_from_env`]).

use std::process::ExitCode;

use rvp_bench::experiments::{find, EXPERIMENTS};
use rvp_core::{by_name_or_err, fatal, fatal_sim, EXIT_CONFIG, EXIT_USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let realloc = args.iter().any(|a| a == "--realloc");
    let names: Vec<&str> = args.iter().map(String::as_str).filter(|a| *a != "--realloc").collect();
    let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let Some((name, workloads)) = names.split_first().filter(|(name, _)| !name.starts_with('-'))
    else {
        eprintln!("usage: rvp-experiment NAME [WORKLOAD ...] [--realloc]");
        eprintln!("names: {}", known.join(", "));
        return ExitCode::from(EXIT_USAGE);
    };
    let experiment = find(name)
        .ok_or_else(|| format!("unknown experiment {name:?} (known: {})", known.join(", ")));
    let workloads: Result<Vec<_>, _> = workloads.iter().map(|w| by_name_or_err(w)).collect();
    let (experiment, workloads) = match (experiment, workloads) {
        (Ok(experiment), Ok(workloads)) => (experiment, workloads),
        (Err(e), _) | (_, Err(e)) => {
            return fatal("rvp-experiment", "unknown name", EXIT_CONFIG, &[("error", e.into())])
        }
    };
    match experiment.run(&rvp_bench::runner_from_env(), &workloads, realloc) {
        Ok(report) => {
            print!("{}", report.text);
            ExitCode::SUCCESS
        }
        Err(e) => fatal_sim("rvp-experiment", &e, &[("experiment", (*name).into())]),
    }
}
