//! The two grid workloads: whole 9 × 15 sweeps through the real
//! `rvp-grid` executable, repeated until the run's time is up.
//!
//! `grid-detailed` is the canonical sweep on the default shared source:
//! most of its time is the cycle core. `grid-sampled` is the sampled
//! path — workloads stretched fourfold and measured by SimPoint-style
//! sampling on the live source — where functional emulation (BBV
//! profiling and window extraction) outweighs the cycle core. The two
//! bracket every simulator-side optimization: one workload exercises
//! it, the other predicts no change.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use rvp_core::{Json, SampleSpec};

use crate::calib::Probe;
use crate::check::{stats_digest, GridExpectation};
use crate::probe::{self, ProbeInput};
use crate::report::Outcome;
use crate::stats::{median, range_ms};
use crate::sut::{self, Sut};
use crate::{gen, Ctx, SUT_WORKERS};

/// One grid workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct GridSpec {
    /// Benchmark workload name.
    pub name: &'static str,
    /// `RVP_MEASURE_INSTS`: committed instructions measured per cell.
    pub measure_insts: u64,
    /// `RVP_PROFILE_INSTS`: committed instructions profiled per workload.
    pub profile_insts: u64,
    /// `--scale`: workload outer-pass multiplier.
    pub scale: u64,
    /// The `--sample` spec, or `None` to measure every instruction in
    /// detail.
    pub sample: Option<&'static str>,
    /// Re-emulate inside every cell (`--source live`) instead of
    /// sharing one captured trace per workload, whose decoded form at
    /// paper scale would not fit in memory.
    pub live_source: bool,
    /// Measurement budget of the traced run's in-process probe, whose
    /// cycle-core layer holds the decoded trace in memory.
    pub probe_insts: u64,
    /// Workloads the traced run's probe covers.
    pub probe_workloads: &'static [&'static str],
}

/// The canonical detailed sweep: 135 cells, about 1.1 s on two threads
/// — short, so a run holds many sweeps to take the median of.
pub const DETAILED: GridSpec = GridSpec {
    name: "grid-detailed",
    measure_insts: 100_000,
    profile_insts: 500_000,
    scale: 1,
    sample: None,
    live_source: false,
    probe_insts: 100_000,
    probe_workloads: &gen::WORKLOADS,
};

/// The scaled sampled sweep: 135 cells representing about 300M
/// committed instructions, in about 2 s. At most four phases per cell
/// keep the detailed windows a minority of the work, as they are at
/// paper scale.
pub const SAMPLED: GridSpec = GridSpec {
    name: "grid-sampled",
    measure_insts: 2_500_000,
    profile_insts: 500_000,
    scale: 4,
    sample: Some("max_k=4"),
    live_source: true,
    probe_insts: 1_000_000,
    probe_workloads: &["li", "m88ksim", "su2cor"],
};

/// Schemes of the sampled grid's detailed IPC references.
pub const REFERENCE_SCHEMES: [&str; 2] = ["no_predict", "drvp_all_dead_lv"];

/// Timed sweeps per run at the least.
const MIN_SWEEPS: usize = 3;

/// Cells in every sweep: nine workloads by the fifteen paper schemes.
const GRID_CELLS: u64 = 135;

/// Longest a single sweep may take, set-up included, before it is
/// killed: some twenty times a normal sweep, and short enough that a
/// hung one still ends the run within the benchmark's time limit.
const SWEEP_TIMEOUT: Duration = Duration::from_secs(60);

impl GridSpec {
    /// The knobs `expected.json` was blessed under.
    pub fn config_json(&self) -> Json {
        Json::obj([
            ("measure_insts", self.measure_insts.into()),
            ("profile_insts", self.profile_insts.into()),
            ("scale", self.scale.into()),
            ("sample", self.sample.map_or(Json::Null, Json::from)),
            ("live_source", self.live_source.into()),
        ])
    }

    /// The sampling knobs the probe uses for this grid.
    fn sample_spec(&self) -> SampleSpec {
        self.sample.map_or_else(SampleSpec::default, |s| {
            SampleSpec::parse(s).expect("grid sample specs parse")
        })
    }

    /// The stdout line marking the end of set-up: trace prewarm on the
    /// shared source, the schedule line on the live source (which has
    /// nothing to prewarm).
    fn ready_line(&self) -> &'static str {
        if self.live_source {
            "schedule:"
        } else {
            "traces prewarmed"
        }
    }
}

/// The parts of `grid_summary.json` the benchmark reads.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSummary {
    /// Cells completed.
    pub cells: u64,
    /// Cells poisoned.
    pub poisoned: u64,
    /// The sweep's own makespan, seconds.
    pub elapsed_s: f64,
    /// Committed instructions simulated (represented, when sampled).
    pub simulated_insts: u64,
    /// Per-cell wall seconds, by `workload/scheme` label.
    pub cell_seconds: BTreeMap<String, f64>,
}

impl GridSummary {
    /// Parses a `grid_summary.json` text; `None` when a field is
    /// missing or mistyped.
    pub fn parse(text: &str) -> Option<GridSummary> {
        let json = Json::parse(text).ok()?;
        Some(GridSummary {
            cells: json.get("cells")?.as_u64()?,
            poisoned: json.get("failures")?.get("count")?.as_u64()?,
            elapsed_s: json.get("elapsed_s")?.as_f64()?,
            simulated_insts: json.get("simulated_insts")?.as_u64()?,
            cell_seconds: json
                .get("cell_seconds")?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
        })
    }
}

/// One finished sweep.
#[derive(Debug)]
pub struct Sweep {
    /// When `rvp-grid` was spawned.
    pub started: Instant,
    /// When it was seen gone.
    pub exited: Instant,
    /// Spawn to the ready line, seconds.
    pub setup_s: f64,
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Seconds `rvp-grid` and this process were busy or ready to run
    /// meanwhile ([`sut::busy_seconds`]).
    pub busy_s: f64,
    /// Peak resident set of `rvp-grid`, MB.
    pub peak_rss_mb: f64,
    /// The trace prewarm time `rvp-grid` printed, when it prewarmed.
    pub prewarm_s: Option<f64>,
    /// The sweep's summary file.
    pub summary: GridSummary,
    /// Cell JSONs by file stem (`<workload>-<scheme>`).
    pub cells: BTreeMap<String, Json>,
}

/// Runs one sweep of `spec` over the given orders into `out`.
///
/// # Errors
///
/// Fails when `rvp-grid` cannot be spawned, exits non-zero, misses its
/// ready line or leaves no readable summary.
pub fn sweep(
    ctx: &Ctx,
    spec: &GridSpec,
    out: &Path,
    workloads: &[&str],
    schemes: &[String],
    trace_out: Option<&Path>,
) -> io::Result<Sweep> {
    std::fs::create_dir_all(out)?;
    let mut cmd = sut::command(&ctx.grid_bin());
    cmd.arg(out)
        .arg("--workloads")
        .arg(workloads.join(","))
        .arg("--schemes")
        .arg(schemes.join(","))
        .env("RVP_THREADS", SUT_WORKERS.to_string())
        .env("RVP_MEASURE_INSTS", spec.measure_insts.to_string())
        .env("RVP_PROFILE_INSTS", spec.profile_insts.to_string())
        .stderr(std::fs::File::create(out.join("stderr.log"))?);
    if spec.scale > 1 {
        cmd.arg("--scale").arg(spec.scale.to_string());
    }
    if let Some(sample) = spec.sample {
        cmd.arg("--sample").arg(sample);
    }
    if spec.live_source {
        cmd.args(["--source", "live"]);
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }

    sut::settle_disk(out)?;
    let busy_before = sut::busy_seconds(&[]);
    let mut sut = Sut::spawn(cmd)?;
    let (line, ready_at) = sut.wait_for_line(spec.ready_line(), SWEEP_TIMEOUT)?;
    let (status, exited_at) = sut.wait(SWEEP_TIMEOUT.saturating_sub(sut.started.elapsed()))?;
    // The reaped `rvp-grid` now counts among this process's children.
    let busy_s = sut::busy_seconds(&[]) - busy_before;
    if !status.success() {
        return Err(io::Error::other(format!("rvp-grid exited with {status}")));
    }
    let summary = std::fs::read_to_string(out.join("grid_summary.json"))
        .ok()
        .and_then(|text| GridSummary::parse(&text))
        .ok_or_else(|| io::Error::other("rvp-grid left no readable grid_summary.json"))?;
    let mut cells = BTreeMap::new();
    for entry in std::fs::read_dir(out)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        let stem = name.strip_suffix(".sampled.json").or_else(|| name.strip_suffix(".json"));
        let Some(stem) = stem.filter(|s| *s != "grid_summary") else { continue };
        let text = std::fs::read_to_string(out.join(&name))?;
        let cell = Json::parse(&text).map_err(|e| io::Error::other(format!("{name}: {e}")))?;
        cells.insert(stem.to_owned(), cell);
    }
    Ok(Sweep {
        started: sut.started,
        exited: exited_at,
        setup_s: (ready_at - sut.started).as_secs_f64(),
        wall_s: (exited_at - sut.started).as_secs_f64(),
        busy_s,
        peak_rss_mb: sut.peak_rss_mb(),
        prewarm_s: prewarm_seconds(&line),
        summary,
        cells,
    })
}

/// The seconds in a `traces prewarmed: N workloads in 0.17s` line.
fn prewarm_seconds(line: &str) -> Option<f64> {
    line.contains("traces prewarmed")
        .then(|| line.rsplit(" in ").next()?.trim().strip_suffix('s')?.parse().ok())
        .flatten()
}

/// Largest relative IPC error of the sampled cells against their
/// detailed references, and the cell it occurs in. Reported, not
/// judged: the blessed digests already pin every sampled statistic.
fn worst_ipc_error(expected: &GridExpectation, sweep: &Sweep) -> (f64, String) {
    let mut worst = (0.0f64, String::new());
    for (stem, reference) in &expected.reference_ipc {
        let got = sweep.cells.get(stem).and_then(|c| c.get("stats")?.get("ipc")?.as_f64());
        let err = got.map_or(f64::INFINITY, |ipc| (ipc - reference).abs() / reference);
        if err > worst.0 {
            worst = (err, stem.clone());
        }
    }
    worst
}

/// Checks a sweep against the blessed digests, tallying one attempt per
/// cell of the grid.
fn judge(expected: &GridExpectation, sweep: &Sweep, out: &mut Outcome) {
    let mut bad: u64 = expected
        .digests
        .iter()
        .filter(|(stem, want)| sweep.cells.get(*stem).and_then(stats_digest) != Some(**want))
        .count() as u64;
    bad += sweep.cells.keys().filter(|stem| !expected.digests.contains_key(*stem)).count() as u64;
    bad += sweep.summary.poisoned;
    out.tally(GRID_CELLS, bad.min(GRID_CELLS));
    if bad > 0 {
        out.notes.push(format!("{bad} cells differ from expected.json"));
    }
}

fn stale_config_note(spec: &GridSpec, expected: &GridExpectation, out: &mut Outcome) {
    if expected.config.as_ref() != Some(&spec.config_json()) {
        out.notes.push(format!(
            "expected.json was blessed under another {} configuration; \
             every cell will mismatch until `rvp-perf bless` runs",
            spec.name
        ));
    }
}

/// The untraced run: sweeps while the next one should end within
/// `seconds` (and at least [`MIN_SWEEPS`] timed ones), each checked
/// cell by cell.
///
/// Every sweep of a run writes into one directory, as a user rerunning
/// a sweep does, so from the second sweep on `rvp-grid` schedules the
/// cells longest-job-first from the previous sweep's timings. The first
/// sweep, which runs them in the seed's order, is checked but not
/// timed: on the sampled grid that order decides how long workers wait
/// for each other's sampling plans, and moves the sweep's time by a
/// fifth from seed to seed.
pub fn run(ctx: &Ctx, spec: &GridSpec, seed: u64, seconds: f64) -> Outcome {
    let expected = GridExpectation::load(spec.name);
    let mut out = Outcome::default();
    stale_config_note(spec, &expected, &mut out);
    let (workloads, schemes) = gen::grid_order(seed);
    let start = Instant::now();
    let dir = ctx.work.join(spec.name);
    let mut sweeps: Vec<Sweep> = Vec::new();
    let probe = Probe::start();
    // Start another sweep only while it is expected to end in time.
    let expected_end =
        |sweeps: &[Sweep]| start.elapsed().as_secs_f64() + sweeps.last().map_or(0.0, |s| s.wall_s);
    while sweeps.len() <= MIN_SWEEPS || expected_end(&sweeps) < seconds {
        match sweep(ctx, spec, &dir, &workloads, &schemes, None) {
            Ok(s) => {
                judge(&expected, &s, &mut out);
                sweeps.push(s);
            }
            Err(e) => {
                // The run is incorrect already; end it rather than
                // spend the time limit on more failing sweeps.
                out.tally(GRID_CELLS, GRID_CELLS);
                out.notes.push(format!("sweep {} failed: {e}", sweeps.len()));
                break;
            }
        }
    }
    let calib = probe.finish();
    let _ = std::fs::remove_dir_all(&dir);
    let Some((first, sweeps)) = sweeps.split_first().filter(|(_, timed)| !timed.is_empty()) else {
        return out;
    };
    // Each timed sweep is one sub-run, read at the nominal host speed of
    // the probe slices timed during it. Times are medians over them.
    let n = sweeps.len();
    let col = |f: fn(&Sweep) -> f64| sweeps.iter().map(f).collect::<Vec<f64>>();
    let walls = col(|s| s.wall_s);
    let setups = col(|s| s.setup_s);
    let nominal: Vec<f64> =
        sweeps.iter().map(|s| calib.at_nominal(s.started, s.exited, s.busy_s)).collect();
    // Set-up is too short to hold many slices; it is read at the speed
    // of its whole sweep.
    let nominal_setups: Vec<f64> =
        sweeps.iter().map(|s| calib.cpu_at_nominal(s.started, s.exited, s.setup_s)).collect();
    let wall = median(&nominal).unwrap_or(f64::NAN);
    let insts = median(&col(|s| s.summary.simulated_insts as f64)).unwrap_or(f64::NAN);
    out.set("setup_s", median(&nominal_setups).unwrap_or(f64::NAN), n);
    out.set("ops_per_s", 1.0 / wall, n);
    out.set("minsts_per_s", insts / wall / 1e6, n);
    out.set("peak_rss_mb", median(&col(|s| s.peak_rss_mb)).unwrap_or(f64::NAN), n);
    out.notes.push(format!(
        "{n} timed sweeps of {} cells after a {:.3} s first one; sweep wall best {:.3} s, \
         median {:.3} s, worst {:.3} s; busy share {:.2}; median at nominal speed {wall:.3} s",
        sweeps[0].summary.cells,
        first.wall_s,
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        median(&walls).unwrap_or(f64::NAN),
        walls.iter().copied().fold(0.0, f64::max),
        median(
            &sweeps
                .iter()
                .map(|s| {
                    let own = s.busy_s - calib.probe_seconds(s.started, s.exited);
                    own / (SUT_WORKERS as f64 * s.wall_s)
                })
                .collect::<Vec<_>>()
        )
        .unwrap_or(f64::NAN),
    ));
    out.notes.push(calib.note());
    out.notes.push(format!("set-up {}", range_ms(&setups)));
    if spec.sample.is_some() {
        let (err, stem) = worst_ipc_error(&expected, &sweeps[0]);
        out.notes.push(format!(
            "ipc_err_max {err:.5} (at {stem}) against {} detailed references",
            expected.reference_ipc.len()
        ));
    }
    out
}

/// The traced run: one sweep with `--trace-out`, then the in-process
/// layer probe over this workload's inputs. Writes one Chrome trace
/// holding both.
pub fn traced(ctx: &Ctx, spec: &GridSpec, seed: u64) -> Outcome {
    let expected = GridExpectation::load(spec.name);
    let mut out = Outcome::default();
    stale_config_note(spec, &expected, &mut out);
    let (workloads, schemes) = gen::grid_order(seed);

    let dir = ctx.work.join("traced");
    let trace_path = ctx.work.join("rvp-grid.trace.json");
    let sut_trace = match sweep(ctx, spec, &dir, &workloads, &schemes, Some(&trace_path)) {
        Ok(s) => {
            judge(&expected, &s, &mut out);
            let sum_cells: f64 = s.summary.cell_seconds.values().sum();
            out.notes.push(format!(
                "grid makespan {:.3} s, cell time sum {:.3} s, prewarm {}",
                s.summary.elapsed_s,
                sum_cells,
                s.prewarm_s.map_or("none".to_owned(), |p| format!("{p:.3} s")),
            ));
            std::fs::read_to_string(&trace_path).ok().and_then(|t| Json::parse(&t).ok())
        }
        Err(e) => {
            out.tally(1, 1);
            out.notes.push(format!("traced sweep failed: {e}"));
            None
        }
    };
    let _ = std::fs::remove_dir_all(&dir);

    let probe_workloads: Vec<&'static str> =
        workloads.iter().copied().filter(|w| spec.probe_workloads.contains(w)).collect();
    let mut bodies = Vec::new();
    for wl in &probe_workloads {
        let mut body = vec![
            ("workloads", Json::arr([Json::from(*wl)])),
            ("schemes", Json::arr(schemes.iter().map(|s| Json::from(s.as_str())))),
            ("measure_insts", spec.measure_insts.into()),
            ("profile_insts", spec.profile_insts.into()),
            ("wait", true.into()),
        ];
        if let Some(sample) = spec.sample {
            body.push(("sample", sample.into()));
            body.push(("scale", spec.scale.into()));
        }
        bodies.push(Json::obj(body));
    }
    let input = ProbeInput {
        workloads: probe_workloads,
        measure_insts: spec.probe_insts,
        sample: spec.sample_spec(),
        profile_insts: spec.profile_insts,
        scale: spec.scale,
        response_widths: vec![schemes.len(); bodies.len()],
        request_bodies: bodies,
    };
    probe::finish_traced(ctx, spec.name, "rvp-grid", sut_trace, &input, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_summary_parses_the_fields_the_benchmark_reads() {
        let text = r#"{"cells":2,"failures":{"count":0,"poisoned":[],"retries":0},
            "resumed_cells":0,"elapsed_s":1.25,"simulated_insts":800000,"profiles":1,
            "source_mode":"shared","cell_seconds":{"li/lvp":0.5,"li/no_predict":0.25}}"#;
        let s = GridSummary::parse(text).unwrap();
        assert_eq!(s.cells, 2);
        assert_eq!(s.poisoned, 0);
        assert_eq!(s.elapsed_s, 1.25);
        assert_eq!(s.simulated_insts, 800_000);
        assert_eq!(s.cell_seconds.get("li/lvp"), Some(&0.5));
        assert_eq!(s.cell_seconds.len(), 2);
        assert_eq!(GridSummary::parse(r#"{"cells":2}"#), None);
        assert_eq!(GridSummary::parse("not json"), None);
    }

    #[test]
    fn prewarm_line_yields_seconds() {
        assert_eq!(prewarm_seconds("traces prewarmed: 9 workloads in 0.17s"), Some(0.17));
        assert_eq!(prewarm_seconds("schedule: longest-job-first, 0/135 cells"), None);
    }
}
