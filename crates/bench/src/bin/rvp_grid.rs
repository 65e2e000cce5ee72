//! `rvp-grid`: the full (workload × scheme) grid, in parallel and
//! crash-safe.
//!
//! Runs every paper scheme over every workload on the shared
//! longest-job-first executor ([`rvp_bench::executor`]), streaming one
//! JSON file per cell to the output directory as it completes, then
//! prints a throughput summary. Cells that hand the timing core the
//! same input (an `srvp_*` marking no load and `no_predict`, say) share
//! one simulation through the runner's run memo; the summary reports
//! `simulations: N for M cells`.
//!
//! ```text
//! rvp-grid [OUT_DIR] [--workloads A,B,...] [--schemes A,B,...] \
//!          [--source MODE] [--sample SPEC] [--scale N] \
//!          [--metrics-out FILE] [--trace-out FILE] \
//!          [--resume] [--retries N] [--cell-timeout SECS]
//! ```
//!
//! `OUT_DIR` defaults to `RVP_JSON_DIR`, then `results/`.
//! `--workloads` restricts the grid to the named workloads and
//! `--schemes` to the named registry schemes — any label the scheme
//! registry knows, paper or zoo, optionally with predictor parameters
//! (`drvp_all:entries=4096`); the default is the paper's 15 (CI runs a
//! small subset of both this way). `--source` picks the committed-stream
//! source for measurement runs: `shared` (default — each workload's
//! trace is captured once up front and fanned out in memory to every
//! scheme cell) or `live` (re-emulate inside every cell, the
//! pre-refactor behaviour). `--metrics-out` enables the optional
//! instrumentation (time series + per-PC telemetry) on every cell — the
//! artifacts land inside the cell JSONs — and writes a copy of the
//! grid summary to FILE.
//! `--sample SPEC` measures every cell by SimPoint-style sampled
//! simulation (`auto`, or `interval=N,warmup=N,dims=N,max_k=N,seed=N`)
//! and `--scale N` multiplies every workload's outer pass counts —
//! together they make paper-scale sweeps (100M+ committed instructions
//! per cell) tractable. A sampled sweep prewarms each workload's
//! sampling plan, windows and train profile instead of its trace, on
//! any source, and reads no full trace. Sampled cells land in
//! `<workload>-<scheme>.sampled.json` files and both knobs are part of
//! the cell key, so sampled and detailed sweeps never resume into each
//! other.
//! `--trace-out` arms the span tracer for the whole run and writes the
//! collected spans (prewarm, schedule, per-cell run/attempt/write, and
//! the simulator's phase spans) to FILE: Chrome trace-event JSON by
//! default — open it in Perfetto or `chrome://tracing` — or
//! folded-stack text when FILE ends in `.folded`.
//!
//! ## Crash safety and containment
//!
//! Each completed cell is published, as it lands, to the cell store in
//! `OUT_DIR/cache/` ([`ResultCache`]: one checksummed entry per
//! [`Runner::cell_key`](rvp_core::Runner::cell_key)) and exported as
//! `OUT_DIR/<workload>-<scheme>.json`; both writes and the summary are
//! atomic (temp file + fsync + rename). After a crash or SIGKILL,
//! `--resume` looks every planned cell up in the store, exports each
//! hit whose bytes verify and re-runs the rest — so it also reuses the
//! cells of a sweep over other schemes or on another source, and
//! re-runs any cell whose knobs (`--metrics-out` included) changed.
//! Without `--resume` the store is written, never read. A cell that
//! fails is contained, not fatal: panics are caught, a `--cell-timeout`
//! watchdog bounds hangs, transient I/O faults are retried (up to
//! `--retries` extra attempts with backoff), and a cell that still
//! fails is recorded as *poisoned* in the summary's `failures` section.
//! The sweep always finishes; a poisoned cell turns the exit code into
//! 20 and emits a one-line JSON diagnostic on stderr.
//!
//! ## The summary
//!
//! `OUT_DIR/grid_summary.json` holds the cell, failure, resume and
//! throughput counts, the per-cell wall times below, and under
//! `"metrics"` the runner's registry samples (per-workload source
//! tallies and evictions) in the `name{labels}`-keyed shape of the
//! daemon's `/metrics`; `rvp-report` renders both with one renderer.
//!
//! ## Cost-model scheduling
//!
//! Every run records per-cell wall times into `OUT_DIR/grid_summary.json`
//! (under `"cell_seconds"`, keeping the prior times of cells it did not
//! plan), and the next run seeds the executor's cost model with them,
//! so the grid runs longest-job-first: on a pool the
//! makespan is set by whatever is still running at the end, so the
//! expensive cells must start first. Cells with no recorded timing are
//! estimated from their instruction budget at the mean observed
//! seconds-per-instruction rate (and with no history at all every
//! estimate is equal, which keeps the grid order).
//!
//! The usual budget overrides (`RVP_MEASURE_INSTS`,
//! `RVP_PROFILE_INSTS`) apply, `RVP_TRACE_DIR` names a directory that
//! keeps sampling plans across sweeps, `RVP_THREADS` caps the worker
//! count, and `RVP_FAIL` arms the deterministic fault-injection
//! schedule (chaos testing).
//! Failures are also emitted as structured events through the
//! `RVP_LOG` facade.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rvp_bench::cache::ResultCache;
use rvp_bench::executor::{CostModel, Executor};
use rvp_bench::grid::{
    cell_file_name, run_one_cell, write_atomic, write_cell, CellOptions, CellRun, CellSuccess,
    GridCell, PoisonedCell,
};
use rvp_bench::runner_from_env;
use rvp_core::{
    all_workloads, by_name_or_err, fatal, log, paper_schemes, CancelToken, Json, MetricsRegistry,
    ObsConfig, Runner, SampleSpec, SchemeSpec, SourceMode, Workload, EXIT_CONFIG, EXIT_IO,
    EXIT_POISONED, EXIT_USAGE,
};

fn worker_count(cells: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cap = std::env::var("RVP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(hw);
    cap.min(cells).max(1)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rvp-grid [OUT_DIR] [--workloads A,B,...] [--schemes A,B,...] \
         [--source live|shared] [--sample auto|interval=N,...] [--scale N] \
         [--metrics-out FILE] [--trace-out FILE] \
         [--resume] [--retries N] [--cell-timeout SECS]"
    );
    ExitCode::from(EXIT_USAGE)
}

/// The file (in the output directory) per-cell wall times persist in,
/// read back by the next run's longest-job-first schedule.
const SUMMARY_FILE: &str = "grid_summary.json";

/// The per-cell wall times of a previous run's summary, if any, by
/// label.
fn prior_cell_seconds(out_dir: &Path) -> HashMap<String, f64> {
    let Ok(text) = std::fs::read_to_string(out_dir.join(SUMMARY_FILE)) else {
        return HashMap::new();
    };
    let Ok(json) = Json::parse(&text) else {
        log::warn(
            "rvp-grid",
            "unreadable prior grid summary; scheduling from instruction budgets",
            &[("path", out_dir.join(SUMMARY_FILE).display().to_string().into())],
        );
        return HashMap::new();
    };
    let cells = json.get("cell_seconds").and_then(Json::as_obj).into_iter().flatten();
    cells.filter_map(|(label, secs)| Some((label.clone(), secs.as_f64()?))).collect()
}

/// Restores `cell` from the store for `--resume`: its verified bytes,
/// exported to `out_dir`. `None` — run the cell — on a miss, an entry
/// that failed its checksum, or an export that failed.
fn restore(
    store: &ResultCache,
    runner: &Runner,
    out_dir: &Path,
    cell: &GridCell,
    prior: &HashMap<String, f64>,
) -> Option<CellSuccess> {
    let text = store.get(runner.cell_key(&cell.workload, &cell.scheme)).ok()??;
    let file = cell_file_name(cell.workload.name(), cell.scheme.label(), runner.sampling.is_some());
    write_atomic(&out_dir.join(file), text.as_bytes()).ok()?;
    let label = cell.label();
    Some(CellSuccess { seconds: prior.get(&label).copied(), label, result: None, retries: 0 })
}

fn main() -> ExitCode {
    let mut out_dir: Option<PathBuf> = None;
    let mut only: Option<Vec<String>> = None;
    let mut only_schemes: Option<Vec<String>> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut source: Option<SourceMode> = None;
    let mut sample: Option<SampleSpec> = None;
    let mut scale: Option<u64> = None;
    let mut resume = false;
    let mut opts = CellOptions::default();

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workloads" => match it.next() {
                Some(list) => {
                    only = Some(list.split(',').map(|s| s.trim().to_owned()).collect());
                }
                None => return usage(),
            },
            "--schemes" => match it.next() {
                Some(list) => {
                    only_schemes = Some(list.split(',').map(|s| s.trim().to_owned()).collect());
                }
                None => return usage(),
            },
            "--source" => match it.next().as_deref().and_then(SourceMode::parse) {
                Some(mode) => source = Some(mode),
                None => return usage(),
            },
            "--sample" => match it.next().as_deref().map(SampleSpec::parse) {
                Some(Ok(spec)) => sample = Some(spec),
                Some(Err(e)) => {
                    return fatal(
                        "rvp-grid",
                        "bad --sample spec",
                        EXIT_USAGE,
                        &[("error", e.into())],
                    );
                }
                None => return usage(),
            },
            "--scale" => match it.next().and_then(|v| v.parse::<u64>().ok()).filter(|&n| n > 0) {
                Some(n) => scale = Some(n),
                None => return usage(),
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(p.into()),
                None => return usage(),
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p.into()),
                None => return usage(),
            },
            "--resume" => resume = true,
            "--retries" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.retries = n,
                None => return usage(),
            },
            "--cell-timeout" => match it.next().and_then(|v| v.parse().ok()) {
                Some(secs) => opts.timeout_secs = secs,
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            other if !other.starts_with('-') && out_dir.is_none() => out_dir = Some(a.into()),
            _ => return usage(),
        }
    }
    let out_dir = out_dir
        .or_else(|| std::env::var("RVP_JSON_DIR").ok().filter(|d| !d.is_empty()).map(Into::into))
        .unwrap_or_else(|| "results".into());
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        return fatal(
            "rvp-grid",
            "cannot create output directory",
            EXIT_IO,
            &[("dir", out_dir.display().to_string().into()), ("error", e.to_string().into())],
        );
    }

    let workloads: Vec<Workload> = match &only {
        None => all_workloads().to_vec(),
        Some(names) => {
            let mut selected = Vec::new();
            for name in names {
                // The registry-listing error, mirroring unknown-scheme UX.
                match by_name_or_err(name) {
                    Ok(wl) => selected.push(wl),
                    Err(e) => {
                        return fatal(
                            "rvp-grid",
                            "unknown workload",
                            EXIT_CONFIG,
                            &[("error", e.into())],
                        );
                    }
                }
            }
            selected
        }
    };

    // Default to the paper's 15 figure configurations; `--schemes`
    // accepts anything in the registry, predictor parameters included.
    let schemes: Vec<SchemeSpec> = match &only_schemes {
        None => paper_schemes(),
        Some(names) => {
            let mut selected = Vec::new();
            for name in names {
                match SchemeSpec::parse(name) {
                    Ok(spec) => selected.push(spec),
                    Err(e) => {
                        return fatal(
                            "rvp-grid",
                            "unknown scheme",
                            EXIT_CONFIG,
                            &[("error", e.into())],
                        );
                    }
                }
            }
            selected
        }
    };

    let mut runner = runner_from_env();
    if let Some(mode) = source {
        runner.source_mode = mode;
    }
    if let Some(spec) = sample {
        runner.sampling = Some(spec);
    }
    if let Some(n) = scale {
        runner.workload_scale = n;
    }
    if metrics_out.is_some() {
        runner.obs = ObsConfig::standard();
    }
    if trace_out.is_some() {
        rvp_core::span::arm(rvp_core::span::DEFAULT_RING_CAPACITY);
    }
    let mut cells: Vec<GridCell> = workloads
        .iter()
        .flat_map(|wl| {
            schemes.iter().map(|scheme| GridCell { workload: wl.clone(), scheme: scheme.clone() })
        })
        .collect();

    let store = match ResultCache::open(&out_dir) {
        Ok(store) => Arc::new(store),
        Err(e) => {
            return fatal(
                "rvp-grid",
                "cannot open the cell store",
                EXIT_IO,
                &[("dir", out_dir.display().to_string().into()), ("error", e.to_string().into())],
            );
        }
    };
    // Resume: export every planned cell the store holds, verified, and
    // run the rest.
    let prior = prior_cell_seconds(&out_dir);
    let planned: HashSet<String> = cells.iter().map(GridCell::label).collect();
    let mut restored: Vec<CellSuccess> = Vec::new();
    if resume {
        cells.retain(|cell| match restore(&store, &runner, &out_dir, cell, &prior) {
            Some(done) => {
                restored.push(done);
                false
            }
            None => true,
        });
    }

    let budget = runner.measure_insts;
    let costs = CostModel::default();
    let known = {
        let mut span = rvp_core::span!("grid.schedule", { cells: cells.len() });
        for (label, secs) in &prior {
            costs.observe(label, budget, *secs);
        }
        let known = cells.iter().filter(|c| costs.knows(&c.label())).count();
        span.add_field("known", known);
        known
    };
    let workers = worker_count(cells.len());

    println!(
        "rvp-grid: {} workloads x {} schemes = {} cells on {} threads ({} source) -> {}",
        workloads.len(),
        schemes.len(),
        cells.len() + restored.len(),
        workers,
        runner.source_mode.name(),
        out_dir.display()
    );
    if let Some(spec) = &runner.sampling {
        let (interval, warmup) = spec.resolve(runner.measure_insts);
        println!(
            "sampling: {interval}-inst intervals, {warmup}-inst warmup, \
             dims {}, max_k {}, workload scale x{}",
            spec.dims, spec.max_k, runner.workload_scale
        );
    } else if runner.workload_scale > 1 {
        println!("workload scale: x{}", runner.workload_scale);
    }
    if resume {
        println!(
            "resume: {} cells restored from the cell store, {} to run",
            restored.len(),
            cells.len()
        );
        log::info(
            "rvp-grid",
            "resuming from the cell store",
            &[
                ("restored", (restored.len() as u64).into()),
                ("remaining", (cells.len() as u64).into()),
            ],
        );
    }
    println!(
        "schedule: longest-job-first, {known}/{} cells from prior timings, \
         the rest from instruction budgets",
        cells.len()
    );

    let start = Instant::now();
    let runner = Arc::new(runner);
    let successes: Arc<Mutex<Vec<CellSuccess>>> = Arc::default();
    let poisoned: Arc<Mutex<Vec<PoisonedCell>>> = Arc::default();
    // Prewarm tasks report nothing; a cell reports its store key and
    // its run, which the completion makes durable inside its still-open
    // `grid.cell.run` span.
    let exec = {
        let (out_dir, store, successes, poisoned) =
            (out_dir.clone(), Arc::clone(&store), Arc::clone(&successes), Arc::clone(&poisoned));
        let on_done = move |run: Option<(u64, Result<CellRun, _>)>, _: Vec<()>| {
            let Some((key, run)) = run else { return };
            match run.and_then(|run| record_cell(&store, key, &out_dir, run, opts)) {
                Ok(done) => successes.lock().expect("successes lock").push(done),
                Err(p) => poisoned.lock().expect("poisoned lock").push(p),
            }
        };
        Executor::new("grid-worker", workers, costs, on_done)
    };

    // Pay every workload's trace capture — or, when sampling, its
    // sampling plan, windows and train profile — up front, in parallel,
    // so the cell fan-out below is pure timing simulation and no cell
    // waits on a peer (a no-op for a detailed sweep on the live source,
    // and skipped for workloads fully restored from the store). A
    // failed prewarm is not fatal: the cell itself will retry or fall
    // back and report properly.
    let pending: Vec<&Workload> = workloads
        .iter()
        .filter(|wl| cells.iter().any(|c| c.workload.name() == wl.name()))
        .collect();
    let prewarm = match (&runner.sampling, runner.source_mode) {
        _ if pending.is_empty() => None,
        (Some(_), _) => Some("sampling plans"),
        (None, SourceMode::Live) => None,
        (None, _) => Some("traces"),
    };
    if let Some(what) = prewarm {
        // A sampled cell's own work is short next to its workload's
        // train profile, so its peers would otherwise queue on the one
        // collecting it: a sampled sweep prewarms the profiles its cells
        // need too. They are the shorter tasks, so they go last, to even
        // out when the threads finish.
        let profiles = pending.iter().filter(|wl| {
            runner.sampling.is_some()
                && cells.iter().any(|c| c.workload.name() == wl.name() && c.scheme.needs_profile())
        });
        let tasks =
            pending.iter().map(|wl| (wl, "stream")).chain(profiles.map(|wl| (wl, "profile")));
        exec.submit(tasks.enumerate().map(|(i, (wl, kind))| {
            let (runner, wl) = (Arc::clone(&runner), (*wl).clone());
            (i as u64, 1.0, (), move |_: &CancelToken| {
                let _span = rvp_core::span!("grid.prewarm", { workload: wl.name(), kind });
                let prewarmed = match kind {
                    "profile" => runner.prewarm_profile(&wl),
                    _ => runner.prewarm_trace(&wl),
                };
                if let Err(e) = prewarmed {
                    log::warn(
                        "rvp-grid",
                        "prewarm failed",
                        &[("workload", wl.name().into()), ("error", e.to_string().into())],
                    );
                }
                None
            })
        }));
        exec.wait_idle();
        println!(
            "{what} prewarmed: {} workloads in {:.2}s",
            pending.len(),
            start.elapsed().as_secs_f64()
        );
    }
    exec.submit(cells.into_iter().enumerate().map(|(i, cell)| {
        let runner = Arc::clone(&runner);
        let cost = exec.costs().estimate(&cell.label(), budget);
        let key = runner.cell_key(&cell.workload, &cell.scheme);
        (i as u64, cost, (), move |_: &CancelToken| Some((key, run_one_cell(&runner, &cell, opts))))
    }));
    exec.wait_idle();
    exec.shutdown();

    let elapsed = start.elapsed();
    let mut successes = std::mem::take(&mut *successes.lock().expect("successes lock"));
    let mut poisoned = std::mem::take(&mut *poisoned.lock().expect("poisoned lock"));
    // The cells restored from the store count as completed cells, not
    // as simulated work.
    let resumed_cells = restored.len();
    successes.extend(restored);
    successes.sort_by(|a, b| a.label.cmp(&b.label));
    poisoned.sort_by(|a, b| a.label.cmp(&b.label));

    let simulated: u64 =
        successes.iter().filter_map(|s| s.result.as_ref()).map(|r| r.stats.committed).sum();
    let total_retries: u64 = successes.iter().map(|s| s.retries).sum::<u64>()
        + poisoned.iter().map(|p| p.attempts.saturating_sub(1)).sum::<u64>();
    println!(
        "\n{} cells in {:.2}s ({:.1} cells/s, {:.1}M simulated insts/s overall)",
        successes.len(),
        elapsed.as_secs_f64(),
        successes.len() as f64 / elapsed.as_secs_f64(),
        simulated as f64 / elapsed.as_secs_f64() / 1e6,
    );
    println!("profiles collected: {}", runner.profiles.len());
    println!("simulations: {} for {} cells", runner.runs.len(), successes.len());
    if !runner.source_counters.snapshot().is_empty() {
        let t = runner.source_counters.total();
        println!(
            "committed-stream sources ({}): {} captures, {} shared hits, {} live fallbacks",
            runner.source_mode.name(),
            t.captures,
            t.shared_hits,
            t.live_fallbacks
        );
    }
    let metrics = MetricsRegistry::new();
    runner.register_metrics(&metrics);
    let injected = rvp_fail::snapshot();
    let failures = Json::obj([
        ("count", (poisoned.len() as u64).into()),
        ("poisoned", Json::Arr(poisoned.iter().map(PoisonedCell::to_json).collect())),
        ("retries", total_retries.into()),
        (
            "injected",
            Json::Obj(injected.iter().map(|(site, n)| (site.clone(), (*n).into())).collect()),
        ),
    ]);
    // Cells this run did not plan keep their prior times for the next
    // run's schedule.
    let mut cell_seconds: BTreeMap<String, f64> =
        prior.into_iter().filter(|(label, _)| !planned.contains(label)).collect();
    cell_seconds.extend(successes.iter().filter_map(|s| Some((s.label.clone(), s.seconds?))));
    let summary = Json::obj([
        ("cells", (successes.len() as u64).into()),
        ("failures", failures),
        ("resumed_cells", (resumed_cells as u64).into()),
        ("elapsed_s", elapsed.as_secs_f64().into()),
        ("simulated_insts", simulated.into()),
        ("profiles", (runner.profiles.len() as u64).into()),
        ("simulations", (runner.runs.len() as u64).into()),
        ("source_mode", runner.source_mode.name().into()),
        (
            "cell_seconds",
            Json::Obj(cell_seconds.into_iter().map(|(label, secs)| (label, secs.into())).collect()),
        ),
        ("metrics", metrics.to_json()),
    ]);
    log::info(
        "rvp-grid",
        "grid complete",
        &[
            ("cells", (successes.len() as u64).into()),
            ("failures", (poisoned.len() as u64).into()),
            ("resumed", (resumed_cells as u64).into()),
            ("elapsed_s", elapsed.as_secs_f64().into()),
            ("simulated_insts", simulated.into()),
        ],
    );
    // The on-disk summary feeds the next run's schedule; `--metrics-out`
    // additionally mirrors it wherever CI wants the artifact.
    if let Err(e) = write_atomic(&out_dir.join(SUMMARY_FILE), format!("{summary}\n").as_bytes()) {
        log::warn(
            "rvp-grid",
            "cannot write grid summary",
            &[
                ("path", out_dir.join(SUMMARY_FILE).display().to_string().into()),
                ("error", e.to_string().into()),
            ],
        );
    }
    if let Some(path) = &metrics_out {
        if let Err(e) = write_atomic(path, format!("{summary}\n").as_bytes()) {
            return fatal(
                "rvp-grid",
                "cannot write metrics file",
                EXIT_IO,
                &[("path", path.display().to_string().into()), ("error", e.to_string().into())],
            );
        }
        println!("grid metrics written: {}", path.display());
    }
    if let Some(path) = &trace_out {
        let data = rvp_core::span::drain();
        match rvp_core::span::write_trace_file(path, &data) {
            Ok(()) => println!(
                "grid trace written: {} ({} spans, {} dropped)",
                path.display(),
                data.spans.len(),
                data.dropped
            ),
            Err(e) => {
                return fatal(
                    "rvp-grid",
                    "cannot write trace file",
                    EXIT_IO,
                    &[("path", path.display().to_string().into()), ("error", e.to_string().into())],
                );
            }
        }
    }
    if !poisoned.is_empty() {
        return fatal(
            "rvp-grid",
            "sweep completed with poisoned cells",
            EXIT_POISONED,
            &[
                ("poisoned", (poisoned.len() as u64).into()),
                ("cells", Json::Arr(poisoned.iter().map(|p| p.label.as_str().into()).collect())),
            ],
        );
    }
    ExitCode::SUCCESS
}

/// Makes one simulated cell durable in the store and the output
/// directory, and prints its line.
fn record_cell(
    store: &ResultCache,
    key: u64,
    out_dir: &Path,
    run: CellRun,
    opts: CellOptions,
) -> Result<CellSuccess, PoisonedCell> {
    let done = write_cell(store, key, out_dir, run, opts)?;
    if let Some(result) = &done.result {
        println!(
            "  {:<28} ipc {:.3}  coverage {:5.1}%  accuracy {:5.1}%",
            done.label,
            result.stats.ipc(),
            100.0 * result.stats.coverage(),
            100.0 * result.stats.accuracy()
        );
    }
    Ok(done)
}
