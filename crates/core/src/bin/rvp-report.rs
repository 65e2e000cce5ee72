//! `rvp-report` — render a directory of grid cell JSON files (written
//! by `rvp-grid` / `RVP_JSON_DIR`) as aligned text tables.
//!
//! ```text
//! rvp-report <RESULTS_DIR>
//! ```
//!
//! Sections:
//!
//! 1. an IPC table (scheme rows × workload columns, plus the mean),
//! 2. per-workload CPI stacks (% of cycles in each attribution bucket),
//! 3. observability highlights for cells carrying an instrumentation
//!    artifact (`obs`): warm-up vs. steady IPC and the costliest static
//!    instruction,
//! 4. a sampling section for cells that carry a `sampling` plan (the
//!    shape a `--sample` sweep writes into `*.sampled.json` files):
//!    interval size, chosen k, warmup length, detail share, the
//!    per-cluster representative weights, and — when the directory
//!    also holds the matching detailed cell — the sampled-vs-full
//!    IPC error,
//! 5. a resilience section from a grid summary in the directory:
//!    poisoned cells (with the attempts and error that killed them),
//!    total retries, resumed cells, any injected failpoint hits from
//!    a chaos run and the sweep's peak resident set (`peak_rss_mb`),
//! 6. a metrics section for every set of registry samples in the
//!    directory — a grid summary's `metrics` (per-workload source
//!    tallies, evictions) or an `rvp-serve` `/metrics` download (request,
//!    job, cache, governance and failpoint counters, latency
//!    quantiles) — one `name{labels} value` line per sample. A
//!    directory holding only serve metrics (the CI artifact case)
//!    renders without any cell files,
//! 7. a spans section for any Chrome trace-event JSON in the directory
//!    (written by `--trace-out` or downloaded from `GET /trace`):
//!    top spans by self time, the critical path under the longest
//!    root, and the per-job queue-wait vs exec-time breakdown.
//!
//! The binary is read-only: it never simulates, so it renders in
//! milliseconds even for a full 135-cell grid.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

use rvp_core::span::{self, FieldValue};
use rvp_core::{fatal, list_schemes, log, CpiBucket, Json, EXIT_CONFIG, EXIT_IO, EXIT_USAGE};

/// One parsed cell file.
struct Cell {
    workload: String,
    scheme: String,
    stats: Json,
    /// The `SamplePlan` object a sampled run embeds; `None` for
    /// detailed cells.
    sampling: Option<Json>,
}

fn usage() -> ExitCode {
    eprintln!("usage: rvp-report <RESULTS_DIR>");
    ExitCode::from(EXIT_USAGE)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [dir] = args.as_slice() else { return usage() };
    let cells = match load_cells(Path::new(dir)) {
        Ok(cells) => cells,
        Err(e) => {
            return fatal(
                "rvp-report",
                "cannot read results directory",
                EXIT_IO,
                &[("dir", dir.as_str().into()), ("error", e.to_string().into())],
            );
        }
    };
    if cells.is_empty() {
        // A serve-metrics or trace artifact directory has no cells;
        // render those sections alone rather than refusing.
        if print_metrics(Path::new(dir)) + print_spans(Path::new(dir)) > 0 {
            return ExitCode::SUCCESS;
        }
        return fatal(
            "rvp-report",
            "no cell JSON files found",
            EXIT_CONFIG,
            &[("dir", dir.as_str().into())],
        );
    }

    let workloads: Vec<String> =
        cells.iter().map(|c| c.workload.clone()).collect::<BTreeSet<_>>().into_iter().collect();
    let schemes = scheme_order(&cells);

    println!(
        "== rvp-report: {} cells, {} workloads x {} schemes ({dir}) ==",
        cells.len(),
        workloads.len(),
        schemes.len()
    );

    print_ipc_table(&cells, &workloads, &schemes);
    print_cpi_stacks(&cells, &workloads, &schemes);
    print_obs_highlights(&cells);
    print_sampling(&cells);
    print_resilience(Path::new(dir));
    print_metrics(Path::new(dir));
    print_spans(Path::new(dir));
    ExitCode::SUCCESS
}

/// Renders the spans section for every Chrome trace-event JSON file in
/// `dir` (a `traceEvents` key marks one): top spans by self time, the
/// critical path under the longest root, and — when the trace carries
/// serve-side spans — the per-job queue-wait vs exec-time breakdown.
/// Returns how many traces were rendered.
fn print_spans(dir: &Path) -> usize {
    let mut rendered = 0;
    for (path, json) in json_files(dir) {
        let Some(data) = json.get("traceEvents").and_then(|_| span::from_chrome_trace(&json))
        else {
            continue;
        };
        if data.spans.is_empty() {
            continue;
        }
        rendered += 1;
        println!(
            "\nspans ({}, {} spans, {} dropped)",
            path.display(),
            data.spans.len(),
            data.dropped
        );
        println!("{:>26} {:>8} {:>12}", "name", "count", "self_us");
        for (name, self_us, count) in span::self_time_by_name(&data).into_iter().take(10) {
            println!("{name:>26} {count:>8} {self_us:>12}");
        }
        if let Some(root) = span::roots(&data).first() {
            let chain: Vec<String> = span::critical_path(&data, root)
                .iter()
                .map(|s| format!("{} ({}us)", s.name, s.dur_us))
                .collect();
            println!("  critical path: {}", chain.join(" -> "));
        }
        // Queue-wait vs exec, keyed by the `job` correlation field the
        // daemon stamps onto both span kinds.
        let mut jobs: std::collections::BTreeMap<u64, (u64, u64)> =
            std::collections::BTreeMap::new();
        for s in &data.spans {
            let Some(FieldValue::U64(job)) = s.field("job") else { continue };
            let slot = jobs.entry(*job).or_default();
            match s.name.as_ref() {
                "serve.queue.wait" => slot.0 += s.dur_us,
                "serve.cell.exec" => slot.1 += s.dur_us,
                _ => {}
            }
        }
        if jobs.values().any(|&(wait, exec)| wait > 0 || exec > 0) {
            println!("{:>12} {:>14} {:>12} {:>7}", "job", "queue_wait_us", "exec_us", "wait%");
            for (job, (wait, exec)) in jobs {
                let total = wait + exec;
                let share = if total > 0 { 100.0 * wait as f64 / total as f64 } else { 0.0 };
                println!("{job:>12} {wait:>14} {exec:>12} {share:>6.1}%");
            }
        }
    }
    rendered
}

/// Every `*.json` file in `dir` that parses, sorted by path.
fn json_files(dir: &Path) -> Vec<(std::path::PathBuf, Json)> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .filter_map(|path| {
            let json = Json::parse(&std::fs::read_to_string(&path).ok()?).ok()?;
            Some((path, json))
        })
        .collect()
}

/// Renders every set of registry samples in `dir` — a grid summary's
/// `metrics` object or an `rvp-serve` `/metrics` download, both keyed
/// `name{labels}` with numeric values — one line per sample. Returns
/// how many sets were rendered.
fn print_metrics(dir: &Path) -> usize {
    let mut rendered = 0;
    for (path, json) in json_files(dir) {
        let Some(samples) = json.get("metrics").unwrap_or(&json).as_obj() else { continue };
        let registry =
            |(key, value): &(String, Json)| key.starts_with("rvp_") && value.as_f64().is_some();
        if samples.is_empty() || !samples.iter().all(registry) {
            continue;
        }
        rendered += 1;
        println!("\nmetrics ({})", path.display());
        let width = samples.iter().map(|(key, _)| key.len()).max().unwrap_or(0);
        for (key, value) in samples {
            println!("  {key:<width$} {value}");
        }
    }
    rendered
}

/// Parses every `*.json` file in `dir` that has the cell shape; files
/// with other shapes (e.g. grid summaries) are skipped with a debug
/// event, unreadable ones with a warning.
fn load_cells(dir: &Path) -> std::io::Result<Vec<Cell>> {
    let mut cells = Vec::new();
    let mut names: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    for path in names {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                log::warn(
                    "rvp-report",
                    "skipping unreadable file",
                    &[("path", path.display().to_string().into()), ("error", e.to_string().into())],
                );
                continue;
            }
        };
        let parsed = match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => {
                log::warn(
                    "rvp-report",
                    "skipping malformed JSON",
                    &[("path", path.display().to_string().into()), ("error", e.to_string().into())],
                );
                continue;
            }
        };
        let cell = (|| {
            Some(Cell {
                workload: parsed.get("workload")?.as_str()?.to_owned(),
                scheme: parsed.get("scheme")?.as_str()?.to_owned(),
                stats: parsed.get("stats")?.clone(),
                sampling: parsed.get("sampling").cloned(),
            })
        })();
        match cell {
            Some(c) => cells.push(c),
            None => log::debug(
                "rvp-report",
                "skipping non-cell JSON",
                &[("path", path.display().to_string().into())],
            ),
        }
    }
    Ok(cells)
}

/// Schemes in registry order (the paper's figures first, then the
/// zoo), then any labels the registry does not know — parameterized
/// cells, future schemes — alphabetically.
fn scheme_order(cells: &[Cell]) -> Vec<String> {
    let present: BTreeSet<&str> = cells.iter().map(|c| c.scheme.as_str()).collect();
    let mut out: Vec<String> = list_schemes()
        .iter()
        .map(|s| s.name)
        .filter(|l| present.contains(l))
        .map(str::to_owned)
        .collect();
    for s in present {
        if !out.iter().any(|o| o == s) {
            out.push(s.to_owned());
        }
    }
    out
}

/// When a cell exists both detailed and sampled (a `.json` next to a
/// `.sampled.json`), the main tables show the detailed one; the
/// sampling section compares the two.
fn find<'a>(cells: &'a [Cell], workload: &str, scheme: &str) -> Option<&'a Cell> {
    let mut matches = cells.iter().filter(|c| c.workload == workload && c.scheme == scheme);
    let first = matches.next()?;
    if first.sampling.is_none() {
        return Some(first);
    }
    Some(matches.find(|c| c.sampling.is_none()).unwrap_or(first))
}

fn stat_f64(stats: &Json, key: &str) -> Option<f64> {
    stats.get(key)?.as_f64()
}

fn print_ipc_table(cells: &[Cell], workloads: &[String], schemes: &[String]) {
    println!("\nIPC");
    print!("{:>22}", "");
    for wl in workloads {
        print!(" {wl:>8}");
    }
    println!(" {:>8}", "average");
    for scheme in schemes {
        print!("{scheme:>22}");
        let mut row = Vec::new();
        for wl in workloads {
            match find(cells, wl, scheme).and_then(|c| stat_f64(&c.stats, "ipc")) {
                Some(ipc) => {
                    print!(" {ipc:8.3}");
                    row.push(ipc);
                }
                None => print!(" {:>8}", "-"),
            }
        }
        if row.is_empty() {
            println!(" {:>8}", "-");
        } else {
            println!(" {:8.3}", row.iter().sum::<f64>() / row.len() as f64);
        }
    }
}

fn print_cpi_stacks(cells: &[Cell], workloads: &[String], schemes: &[String]) {
    for wl in workloads {
        println!("\nCPI stack (% of cycles), {wl}");
        print!("{:>22}", "");
        for bucket in CpiBucket::all() {
            print!(" {:>9}", bucket.key());
        }
        println!();
        for scheme in schemes {
            let Some(cell) = find(cells, wl, scheme) else { continue };
            let Some(cpi) = cell.stats.get("cpi") else { continue };
            let total: f64 = CpiBucket::all()
                .iter()
                .filter_map(|b| cpi.get(b.key()).and_then(Json::as_f64))
                .sum();
            print!("{scheme:>22}");
            for bucket in CpiBucket::all() {
                let cycles = cpi.get(bucket.key()).and_then(Json::as_f64).unwrap_or(0.0);
                if total > 0.0 {
                    print!(" {:9.1}", 100.0 * cycles / total);
                } else {
                    print!(" {:>9}", "-");
                }
            }
            println!();
        }
    }
}

fn print_obs_highlights(cells: &[Cell]) {
    let instrumented: Vec<&Cell> = cells.iter().filter(|c| c.stats.get("obs").is_some()).collect();
    if instrumented.is_empty() {
        return;
    }
    println!("\nobservability highlights ({} instrumented cells)", instrumented.len());
    println!(
        "{:>22} {:>10} {:>10} {:>8} {:>14}",
        "cell", "warmup_ipc", "steady_ipc", "dropped", "worst_pc(cost)"
    );
    for cell in instrumented {
        let obs = cell.stats.get("obs").expect("filtered");
        let samples = obs.get("samples").and_then(Json::as_arr).unwrap_or(&[]);
        let warmup = samples.first().and_then(|w| w.get("ipc")).and_then(Json::as_f64);
        let steady = steady_ipc(samples);
        let dropped = obs.get("dropped_windows").and_then(Json::as_u64).unwrap_or(0);
        let worst = obs
            .get("top_costly")
            .and_then(Json::as_arr)
            .and_then(<[Json]>::first)
            .and_then(|e| Some((e.get("pc")?.as_u64()?, e.get("costly")?.as_u64()?)));
        print!("{:>22}", format!("{}/{}", cell.workload, cell.scheme));
        match warmup {
            Some(v) => print!(" {v:10.3}"),
            None => print!(" {:>10}", "-"),
        }
        match steady {
            Some(v) => print!(" {v:10.3}"),
            None => print!(" {:>10}", "-"),
        }
        print!(" {dropped:8}");
        match worst {
            Some((pc, costly)) => println!(" {:>14}", format!("{pc}({costly})")),
            None => println!(" {:>14}", "-"),
        }
    }
}

/// Renders the sampling section for every cell carrying a `sampling`
/// plan: the interval size / k / warmup knobs, how much of the full
/// stream was simulated in detail, the representative-interval cluster
/// weights, and the sampled-vs-full IPC error whenever the directory
/// also holds the matching detailed cell.
fn print_sampling(cells: &[Cell]) {
    let sampled: Vec<&Cell> = cells.iter().filter(|c| c.sampling.is_some()).collect();
    if sampled.is_empty() {
        return;
    }
    println!("\nsampling ({} sampled cells)", sampled.len());
    println!(
        "{:>26} {:>9} {:>3} {:>8} {:>8} {:>8} {:>9} {:>7}",
        "cell", "interval", "k", "warmup", "detail%", "ipc", "full_ipc", "err%"
    );
    for cell in sampled {
        let plan = cell.sampling.as_ref().expect("filtered");
        let num = |key: &str| plan.get(key).and_then(Json::as_u64).unwrap_or(0);
        let intervals = plan.get("intervals").and_then(Json::as_arr).unwrap_or(&[]);
        let total = num("total_insts");
        let detail: u64 =
            intervals.iter().filter_map(|r| r.get("len").and_then(Json::as_u64)).sum();
        let share = if total > 0 { 100.0 * detail as f64 / total as f64 } else { 0.0 };
        let ipc = stat_f64(&cell.stats, "ipc");
        let full = cells
            .iter()
            .find(|c| {
                c.sampling.is_none() && c.workload == cell.workload && c.scheme == cell.scheme
            })
            .and_then(|c| stat_f64(&c.stats, "ipc"));
        print!(
            "{:>26} {:>9} {:>3} {:>8} {:>7.2}%",
            format!("{}/{}", cell.workload, cell.scheme),
            num("interval_insts"),
            num("k"),
            num("warmup_insts"),
            share
        );
        match ipc {
            Some(v) => print!(" {v:8.3}"),
            None => print!(" {:>8}", "-"),
        }
        match full {
            Some(v) => print!(" {v:9.3}"),
            None => print!(" {:>9}", "-"),
        }
        match (ipc, full) {
            (Some(s), Some(f)) if f > 0.0 => println!(" {:6.2}%", 100.0 * (s - f).abs() / f),
            _ => println!(" {:>7}", "-"),
        }
        let weights: Vec<String> = intervals
            .iter()
            .map(|r| {
                let rn = |key: &str| r.get(key).and_then(Json::as_u64).unwrap_or(0);
                let w = r.get("weight").and_then(Json::as_f64).unwrap_or(0.0);
                format!("c{}@{}:{:.3}", rn("cluster"), rn("index"), w)
            })
            .collect();
        println!("{:>26}   weights: {}", "", weights.join("  "));
    }
}

/// Renders the failure-containment section of any grid summary in
/// `dir` (a file with a structured `failures` object — the shape
/// `rvp-grid` writes): poisoned cells with the attempts and error that
/// ended them, retry and resume counters, and per-site injected-fault
/// counts from a chaos run, and the sweep's peak resident set when the
/// summary records one.
fn print_resilience(dir: &Path) {
    for (path, summary) in json_files(dir) {
        let Some(failures) = summary.get("failures").filter(|f| f.as_obj().is_some()) else {
            continue;
        };
        let count = |key: &str| failures.get(key).and_then(Json::as_u64).unwrap_or(0);
        let resumed = summary.get("resumed_cells").and_then(Json::as_u64).unwrap_or(0);
        let cancelled = failures
            .get("poisoned")
            .and_then(Json::as_arr)
            .map(|list| {
                list.iter()
                    .filter(|p| p.get("cancelled").and_then(Json::as_bool) == Some(true))
                    .count()
            })
            .unwrap_or(0);
        println!("\nresilience ({})", path.display());
        println!(
            "  poisoned {}  cancelled {}  retries {}  resumed {}",
            count("count"),
            cancelled,
            count("retries"),
            resumed
        );
        if let Some(mb) = summary.get("peak_rss_mb").and_then(Json::as_f64) {
            println!("  peak_rss_mb {mb:.1}");
        }
        if let Some(poisoned) = failures.get("poisoned").and_then(Json::as_arr) {
            if !poisoned.is_empty() {
                println!("{:>22} {:>9}  error", "cell", "attempts");
                for p in poisoned {
                    let text = |key: &str| p.get(key).and_then(Json::as_str).unwrap_or("?");
                    let squashed = if p.get("cancelled").and_then(Json::as_bool) == Some(true) {
                        " [cancelled]"
                    } else {
                        ""
                    };
                    println!(
                        "{:>22} {:>9}  {}{}",
                        text("cell"),
                        p.get("attempts").and_then(Json::as_u64).unwrap_or(0),
                        text("error"),
                        squashed
                    );
                }
            }
        }
        if let Some(Json::Obj(injected)) = failures.get("injected") {
            if !injected.is_empty() {
                println!("  injected faults:");
                for (site, n) in injected {
                    println!("{site:>26} {}", n.as_u64().unwrap_or(0));
                }
            }
        }
    }
}

/// Committed-weighted IPC over all but the first retained window;
/// mirrors `ObsReport::steady_ipc` on the JSON side.
fn steady_ipc(samples: &[Json]) -> Option<f64> {
    let rest = samples.get(1..)?;
    let cycles: f64 = rest.iter().filter_map(|w| w.get("cycles").and_then(Json::as_f64)).sum();
    let committed: f64 =
        rest.iter().filter_map(|w| w.get("committed").and_then(Json::as_f64)).sum();
    (cycles > 0.0).then(|| committed / cycles)
}
