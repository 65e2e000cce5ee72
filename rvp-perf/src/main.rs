//! `rvp-perf`: the repository's benchmark.
//!
//! ```text
//! rvp-perf run   [--workload NAME] [--seed N] [--seconds N] [--trace 0|1 | --traced]
//! rvp-perf ab    --parent DIR --change DIR --workload NAME [--pairs N] [--seed N] [--seconds N]
//! rvp-perf bless
//! ```
//!
//! `run` drives the simulator's real entry points from outside — the
//! sibling `rvp-grid` and `rvp-serve` executables next to this one —
//! on four workloads (`grid-detailed`, `grid-sampled`, `serve-cold`,
//! `serve-hot`; all of them when `--workload` is omitted). It first
//! re-checks the 30 golden cells, then measures for `--seconds`, checks
//! every output against `expected.json` or an in-process re-simulation,
//! prints every metric with its unit and sample count, and ends with
//! one JSON result line. `--trace 1` (or `--traced`) is the separate
//! traced run: it prints the per-layer metrics instead and writes one
//! Chrome trace per workload. The exit code is non-zero when any check
//! fails.
//!
//! `ab` runs `--pairs` interleaved pairs of one workload against two
//! directories of simulator executables (a parent and a change build)
//! and reports each metric's medians, quartiles and verdict.
//!
//! `bless` regenerates `expected.json` from the current simulator. Run
//! it only after an intentional model change.
//!
//! Every file a run writes lives under `rvp-perf-runs/` in the target
//! directory holding this executable: a work directory per run,
//! removed when the run ends, and the traced runs' Chrome traces.

mod ab;
mod calib;
mod check;
mod gen;
mod grid;
mod http;
mod probe;
mod report;
mod serve;
mod stats;
mod sut;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rvp_core::Json;

use crate::check::GridExpectation;
use crate::report::{Outcome, END_TO_END, PER_LAYER};

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const BENCH_WORKLOADS: [&str; 4] = ["grid-detailed", "grid-sampled", "serve-cold", "serve-hot"];

/// Worker threads the programs under test run with (`RVP_THREADS`,
/// `--workers`): one per core of the two-core hosts the benchmark is
/// sized for, which also bounds the load to two client threads.
pub const SUT_WORKERS: usize = 2;

/// Measured seconds per run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 25;

const USAGE: &str = "usage: rvp-perf run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]\n       \
                     rvp-perf ab --parent DIR --change DIR --workload NAME [--pairs N] [--seed N] [--seconds N]\n       \
                     rvp-perf bless";

/// Where one run finds the programs under test and keeps its files.
pub struct Ctx {
    /// Directory holding `rvp-grid` and `rvp-serve`.
    pub bins: PathBuf,
    /// This run's scratch directory, removed on drop.
    pub work: PathBuf,
    /// Where traced runs write their Chrome traces.
    pub trace_dir: PathBuf,
}

impl Ctx {
    fn new(bins: &Path, tag: &str) -> std::io::Result<Ctx> {
        let target = own_dir()?.parent().map(Path::to_owned).unwrap_or_default();
        let out = target.join("rvp-perf-runs");
        let work = out.join("work").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work)?;
        Ok(Ctx { bins: bins.to_owned(), work, trace_dir: out.join("traces") })
    }

    /// The `rvp-grid` executable.
    pub fn grid_bin(&self) -> PathBuf {
        self.bins.join("rvp-grid")
    }

    /// The `rvp-serve` executable.
    pub fn serve_bin(&self) -> PathBuf {
        self.bins.join("rvp-serve")
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// The directory of this executable (the build's `release/`).
fn own_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?.canonicalize()?;
    exe.parent()
        .map(Path::to_owned)
        .ok_or_else(|| std::io::Error::other("executable has no directory"))
}

/// One run of one workload.
pub fn run_workload(ctx: &Ctx, workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    use serve::Kind;
    match (workload, traced) {
        ("grid-detailed", false) => grid::run(ctx, &grid::DETAILED, seed, seconds),
        ("grid-detailed", true) => grid::traced(ctx, &grid::DETAILED, seed),
        ("grid-sampled", false) => grid::run(ctx, &grid::SAMPLED, seed, seconds),
        ("grid-sampled", true) => grid::traced(ctx, &grid::SAMPLED, seed),
        ("serve-cold", false) => serve::run(ctx, Kind::Cold, seed, seconds),
        ("serve-cold", true) => serve::traced(ctx, Kind::Cold, seed, seconds),
        ("serve-hot", false) => serve::run(ctx, Kind::Hot, seed, seconds),
        ("serve-hot", true) => serve::traced(ctx, Kind::Hot, seed, seconds),
        _ => unreachable!("workload names are validated at parse time"),
    }
}

/// Parsed command-line flags.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    parent: Option<PathBuf>,
    change: Option<PathBuf>,
    pairs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { seed: 1, seconds: DEFAULT_SECONDS, pairs: 10, ..Args::default() };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |v: &String| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !BENCH_WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?} (known: {})",
                        BENCH_WORKLOADS.join(", ")
                    ));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?.max(1),
            "--trace" => match value()?.as_str() {
                "0" => parsed.traced = false,
                "1" => parsed.traced = true,
                other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            "--traced" => parsed.traced = true,
            "--parent" => parsed.parent = Some(value()?.into()),
            "--change" => parsed.change = Some(value()?.into()),
            "--pairs" => parsed.pairs = number(value()?)?.max(1) as usize,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

/// Fails unless `dir` holds both programs under test.
fn check_bins(dir: &Path) -> Result<(), String> {
    for bin in ["rvp-grid", "rvp-serve"] {
        if !dir.join(bin).is_file() {
            return Err(format!(
                "{} not found; build the simulator first",
                dir.join(bin).display()
            ));
        }
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let bins = own_dir().map_err(|e| e.to_string())?;
    check_bins(&bins)?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let golden = check::golden_mismatches(&root);
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => BENCH_WORKLOADS.to_vec(),
    };
    let kind = if args.traced { PER_LAYER } else { END_TO_END };
    let mut all_correct = true;
    for (i, &workload) in workloads.iter().enumerate() {
        let ctx = Ctx::new(&bins, workload).map_err(|e| e.to_string())?;
        let mut outcome = run_workload(&ctx, workload, args.seed, args.seconds as f64, args.traced);
        drop(ctx);
        if i == 0 {
            outcome.tally(30, golden.len() as u64);
            if !golden.is_empty() {
                outcome.notes.push(format!("golden cells differ: {}", golden.join(", ")));
            }
        }
        let missing = outcome.missing(kind);
        if !missing.is_empty() {
            outcome.notes.push(format!("not measured: {}", missing.join(", ")));
        }
        print!("{}", outcome.render(workload, kind));
        let line = outcome.result_json(kind);
        all_correct &= line.get("correct").and_then(Json::as_bool) == Some(true);
        println!("{line}");
    }
    Ok(all_correct)
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json`.
fn bounds(root: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).map_err(|e| e.to_string())?;
    let json = Json::parse(&text).map_err(|e| e.to_string())?;
    Ok(json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_owned(), m.get("bound")?.as_f64()?)))
        .collect())
}

fn cmd_ab(args: &Args) -> Result<bool, String> {
    let (Some(parent), Some(change), Some(workload)) = (&args.parent, &args.change, &args.workload)
    else {
        return Err("ab needs --parent, --change and --workload".to_owned());
    };
    check_bins(parent)?;
    check_bins(change)?;
    let bounds = bounds(&std::env::current_dir().map_err(|e| e.to_string())?)?;
    let mut per_metric: BTreeMap<&str, ab::Pairs> = BTreeMap::new();
    let mut failed = 0;
    for pair in 0..args.pairs {
        let seed = args.seed + pair as u64;
        let order = if pair % 2 == 0 { [true, false] } else { [false, true] };
        let mut values: [Option<Outcome>; 2] = [None, None];
        for is_parent in order {
            let bins = if is_parent { parent } else { change };
            let tag = format!("ab-{}-{pair}", if is_parent { "parent" } else { "change" });
            let ctx = Ctx::new(bins, &tag).map_err(|e| e.to_string())?;
            let outcome = run_workload(&ctx, workload, seed, args.seconds as f64, false);
            failed += outcome.failed;
            eprintln!(
                "pair {pair} {}: {}",
                if is_parent { "parent" } else { "change" },
                END_TO_END
                    .iter()
                    .filter_map(|s| Some(format!(
                        "{} {:.4}",
                        s.name,
                        outcome.metrics.get(s.name)?.value
                    )))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            values[usize::from(!is_parent)] = Some(outcome);
        }
        let [Some(p), Some(c)] = values else { unreachable!("both sides ran") };
        for spec in END_TO_END {
            if let (Some(pv), Some(cv)) = (p.metrics.get(spec.name), c.metrics.get(spec.name)) {
                let entry = per_metric.entry(spec.name).or_default();
                entry.parent.push(pv.value);
                entry.change.push(cv.value);
            }
        }
    }
    println!("== ab {workload}: {} pairs from seed {}", args.pairs, args.seed);
    let mut verdicts = Vec::new();
    for spec in END_TO_END {
        let Some(pairs) = per_metric.get(spec.name) else { continue };
        let bound = bounds.get(spec.name).copied().unwrap_or(0.0);
        let verdict = pairs.verdict(spec.better, bound);
        let q = |xs: &[f64]| stats::quartiles(xs).unwrap_or([f64::NAN; 3]);
        let (pq, cq) = (q(&pairs.parent), q(&pairs.change));
        let (wins, losses) = pairs.wins(spec.better);
        println!(
            "  {:<14} parent {:.4} [{:.4}, {:.4}]  change {:.4} [{:.4}, {:.4}] {:<8} \
             change won {wins}, lost {losses} of {}; bound {bound}: {}",
            spec.name,
            pq[1],
            pq[0],
            pq[2],
            cq[1],
            cq[0],
            cq[2],
            spec.unit,
            pairs.parent.len(),
            verdict.name()
        );
        verdicts.push((spec.name.to_owned(), Json::from(verdict.name())));
    }
    println!(
        "{}",
        Json::obj([
            ("workload", workload.as_str().into()),
            ("pairs", (args.pairs as u64).into()),
            ("failed", failed.into()),
            ("verdicts", Json::Obj(verdicts)),
        ])
    );
    Ok(failed == 0)
}

fn cmd_bless() -> Result<bool, String> {
    let bins = own_dir().map_err(|e| e.to_string())?;
    check_bins(&bins)?;
    let ctx = Ctx::new(&bins, "bless").map_err(|e| e.to_string())?;
    let workloads = gen::WORKLOADS.to_vec();
    let schemes = gen::paper_scheme_labels();
    let mut blessed = Vec::new();
    for spec in [grid::DETAILED, grid::SAMPLED] {
        let dir = ctx.work.join(spec.name);
        let sweep = grid::sweep(&ctx, &spec, &dir, &workloads, &schemes, None)
            .map_err(|e| format!("{}: {e}", spec.name))?;
        let mut e =
            GridExpectation { config: Some(spec.config_json()), ..GridExpectation::default() };
        for (stem, cell) in &sweep.cells {
            let digest = check::stats_digest(cell).ok_or_else(|| format!("{stem} has no stats"))?;
            e.digests.insert(stem.clone(), digest);
        }
        if spec.sample.is_some() {
            let reference = grid::GridSpec { sample: None, ..spec };
            let refs: Vec<String> =
                grid::REFERENCE_SCHEMES.iter().map(|s| (*s).to_owned()).collect();
            let dir = ctx.work.join("reference");
            let sweep = grid::sweep(&ctx, &reference, &dir, &workloads, &refs, None)
                .map_err(|e| format!("reference sweep: {e}"))?;
            for (stem, cell) in &sweep.cells {
                let ipc = cell.get("stats").and_then(|s| s.get("ipc")).and_then(Json::as_f64);
                e.reference_ipc
                    .insert(stem.clone(), ipc.ok_or_else(|| format!("{stem} has no ipc"))?);
            }
        }
        println!(
            "{}: {} digests, {} reference IPCs",
            spec.name,
            e.digests.len(),
            e.reference_ipc.len()
        );
        blessed.push((spec.name, e));
    }
    check::write_expected(&blessed).map_err(|e| e.to_string())?;
    println!("wrote {}", check::EXPECTED_PATH);
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rvp-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "run" => cmd_run(&args),
        "ab" => cmd_ab(&args),
        "bless" => cmd_bless(),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rvp-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_run_flags_parse() {
        let a = parse_args(&argv("--workload serve-hot --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-hot"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 12, true));
        let b = parse_args(&argv("--trace 0")).unwrap();
        assert_eq!((b.seed, b.seconds, b.traced, b.pairs), (1, DEFAULT_SECONDS, false, 10));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    #[test]
    fn default_seconds_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(json.get("run_seconds").and_then(Json::as_u64), Some(DEFAULT_SECONDS));
    }
}
