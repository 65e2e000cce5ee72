use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rvp_emu::Committed;
use rvp_isa::Program;
use rvp_json::{Json, ToJson};
use rvp_obs::log;
use rvp_profile::{Fig1Row, PlanScope, PredictionPlan, Profile, ProfileConfig};
use rvp_realloc::{reallocate, ReallocOptions};
use rvp_sample::{combine_weighted, SamplePlan, SampleSpec, SampleWindow};
use rvp_trace::{program_hash, Fnv1a, TraceInput, TraceMeta, TraceStore};
use rvp_uarch::TraceColumns;
use rvp_uarch::{
    ObsConfig, PlanMode, Recovery, Scheme, SharedSource, SimError, SimStats, Simulator, UarchConfig,
};
use rvp_workloads::{Input, Workload};

use crate::memo::Memo;
use crate::sampling::{build_plan, extract_plan_windows, sample_key, SamplingCaches};
use crate::schemes::{PlanSource, SchemeSpec};

/// Result of one (workload, scheme) simulation.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Label of the scheme simulated ([`SchemeSpec::label`]).
    pub scheme: String,
    /// Timing and prediction statistics.
    pub stats: SimStats,
    /// The sampling plan behind the stats, when the cell was measured
    /// by sampled simulation ([`Runner::sampling`]); `None` for a full
    /// detailed run.
    pub sampling: Option<Arc<SamplePlan>>,
}

impl ToJson for RunResult {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workload", self.workload.into()),
            ("scheme", self.scheme.as_str().into()),
            ("stats", self.stats.to_json()),
        ];
        if let Some(plan) = &self.sampling {
            fields.push(("sampling", plan.to_json()));
        }
        Json::obj(fields)
    }
}

/// Cache key for a collected profile: (workload, input, instruction
/// budget, workload scale). The program itself is a pure function of
/// (workload, input, scale), so it needs no separate key component.
type ProfileKey = (&'static str, Input, u64, u64);

/// A thread-safe memo of collected [`Profile`]s, shared by clones of a
/// [`Runner`].
///
/// `Runner::run` needs the train profile for most schemes, and a figure
/// column runs every scheme over the same workload — without the cache
/// the (expensive) profile is recollected per scheme.
pub type ProfileCache = Memo<ProfileKey, Arc<Profile>>;

/// A thread-safe memo of whole simulations by run fingerprint
/// ([`Runner::run`]), shared by clones of a [`Runner`]: the stats and,
/// for a sampled cell, the plan behind them.
pub type RunMemo = Memo<u64, (SimStats, Option<Arc<SamplePlan>>)>;

/// Where a measurement run's committed-instruction stream comes from.
///
/// Value misprediction never changes architectural state, so every
/// scheme × recovery cell of a workload consumes the *same* committed
/// stream; both modes produce bit-identical [`SimStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceMode {
    /// Re-emulate the workload inside every cell (the pre-refactor
    /// behaviour, and the fallback whenever no trace can serve).
    Live,
    /// Decode the committed trace once per workload into an
    /// columnar [`TraceColumns`] shared by every cell — the default: a grid
    /// pays for functional emulation once per workload, not per cell.
    #[default]
    Shared,
}

impl SourceMode {
    /// Stable lowercase name (CLI flag values and summary JSON).
    pub fn name(self) -> &'static str {
        match self {
            SourceMode::Live => "live",
            SourceMode::Shared => "shared",
        }
    }

    /// Parses a [`SourceMode::name`] back; `None` for anything else.
    pub fn parse(s: &str) -> Option<SourceMode> {
        match s {
            "live" => Some(SourceMode::Live),
            "shared" => Some(SourceMode::Shared),
            _ => None,
        }
    }
}

/// Cache key for a shared decoded trace: (workload, input, budget,
/// scale) — the same key shape as [`ProfileKey`], and for the same
/// reason.
type TraceKey = (&'static str, Input, u64, u64);

/// A thread-safe memo of decoded in-memory traces, shared by clones of
/// a [`Runner`] exactly like [`ProfileCache`]: grid threads racing on
/// the *same* workload decode it once while different workloads decode
/// in parallel.
///
/// With a byte budget set ([`SharedTraceCache::set_budget_bytes`],
/// accounted via [`TraceColumns::approx_bytes`]), the least-recently
/// used traces are dropped after each materialization until the cache
/// fits — threads still holding an evicted trace keep their `Arc` (the
/// memory frees when the last one drops); the next request for that
/// key simply re-materializes.
#[derive(Clone, Default)]
pub struct SharedTraceCache {
    traces: Memo<TraceKey, Arc<TraceColumns>>,
    /// `(last use, bytes)` of every materialized trace, by key.
    resident: Arc<Mutex<HashMap<TraceKey, (u64, u64)>>>,
    tick: Arc<AtomicU64>,
    budget_bytes: Arc<AtomicU64>,
    evicted: Arc<AtomicU64>,
}

impl SharedTraceCache {
    /// Returns the cached trace for `key`, materializing it with
    /// `capture` on first use; the flag reports whether this call did
    /// the capture. Failures are returned and not cached. A capture
    /// over the budget drops least-recently-used traces, never the one
    /// just materialized nor one whose fill is in flight.
    fn get_or_capture(
        &self,
        key: TraceKey,
        capture: impl FnOnce() -> Result<Arc<TraceColumns>, SimError>,
    ) -> Result<(Arc<TraceColumns>, bool), SimError> {
        let mut captured = false;
        let trace = self.traces.get_or_try_init(key, || {
            captured = true;
            capture()
        })?;
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut resident = self.resident.lock().expect("trace cache poisoned");
        if !captured {
            if let Some(entry) = resident.get_mut(&key) {
                entry.0 = tick;
            }
            return Ok((trace, false));
        }
        resident.insert(key, (tick, trace.approx_bytes()));
        let budget = self.budget_bytes.load(Ordering::Relaxed);
        if budget > 0 {
            let entries = resident.iter().map(|(key, &(last_use, bytes))| (last_use, *key, bytes));
            let entries = entries.collect();
            let evicted = rvp_trace::evict_lru("shared.traces", entries, budget, &key, |victim| {
                let gone = self.traces.remove(victim);
                if gone {
                    resident.remove(victim);
                }
                gone
            });
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok((trace, true))
    }

    /// Sets the resident-byte budget (`0` = ungoverned). Shared across
    /// clones, so one call governs every runner of a grid or daemon.
    pub fn set_budget_bytes(&self, bytes: u64) {
        self.budget_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Traces dropped by the budget governor so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Number of materialized traces.
    pub fn len(&self) -> usize {
        self.resident.lock().expect("trace cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the materialized traces, as the budget accounts them.
    pub fn resident_bytes(&self) -> u64 {
        let resident = self.resident.lock().expect("trace cache poisoned");
        resident.values().map(|(_, bytes)| bytes).sum()
    }
}

impl fmt::Debug for SharedTraceCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedTraceCache({} entries)", self.len())
    }
}

/// Per-workload tally of how measurement runs were fed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceTally {
    /// Traces decoded into memory for this workload.
    pub captures: u64,
    /// Measurement runs served from a shared in-memory trace.
    pub shared_hits: u64,
    /// Measurement runs that fell back to live emulation despite a
    /// trace-backed mode: register-reallocated programs (no trace
    /// describes the transformed stream).
    pub live_fallbacks: u64,
}

impl ToJson for SourceTally {
    fn to_json(&self) -> Json {
        Json::obj([
            ("captures", self.captures.into()),
            ("shared_hits", self.shared_hits.into()),
            ("live_fallbacks", self.live_fallbacks.into()),
        ])
    }
}

/// Thread-safe per-workload [`SourceTally`] counters, shared by clones
/// of a [`Runner`] (and so across grid threads).
#[derive(Clone, Default)]
pub struct SourceCounters {
    tallies: Arc<Mutex<HashMap<&'static str, SourceTally>>>,
}

impl SourceCounters {
    fn bump(&self, workload: &'static str, f: impl FnOnce(&mut SourceTally)) {
        let mut tallies = self.tallies.lock().expect("source counters poisoned");
        f(tallies.entry(workload).or_default());
    }

    /// All tallies, sorted by workload name.
    pub fn snapshot(&self) -> Vec<(&'static str, SourceTally)> {
        let tallies = self.tallies.lock().expect("source counters poisoned");
        let mut out: Vec<_> = tallies.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// The tallies as unified-registry samples (`rvp_source_*_total`,
    /// one labelled sample per workload).
    pub fn metrics(&self) -> Vec<rvp_obs::Metric> {
        let mut out = Vec::new();
        for (workload, tally) in self.snapshot() {
            out.push(
                rvp_obs::Metric::counter("rvp_source_captures_total", tally.captures)
                    .with_label("workload", workload),
            );
            out.push(
                rvp_obs::Metric::counter("rvp_source_shared_hits_total", tally.shared_hits)
                    .with_label("workload", workload),
            );
            out.push(
                rvp_obs::Metric::counter("rvp_source_live_fallbacks_total", tally.live_fallbacks)
                    .with_label("workload", workload),
            );
        }
        out
    }

    /// Sum over all workloads.
    pub fn total(&self) -> SourceTally {
        self.snapshot().into_iter().fold(SourceTally::default(), |mut acc, (_, t)| {
            acc.captures += t.captures;
            acc.shared_hits += t.shared_hits;
            acc.live_fallbacks += t.live_fallbacks;
            acc
        })
    }
}

impl fmt::Debug for SourceCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.total();
        write!(
            f,
            "SourceCounters(captures {}, shared_hits {}, live_fallbacks {})",
            t.captures, t.shared_hits, t.live_fallbacks
        )
    }
}

/// One cell, prepared for measurement by [`Runner::run`].
struct PreparedCell {
    /// The unmarked, unreallocated ref program: sampled cells key and
    /// build their plan on it, whatever the cell simulates.
    base: Program,
    /// The program the cell simulates when it is not `base`: `rvp_`
    /// marked, or register-reallocated.
    transformed: Option<Program>,
    /// The scheme the timing core runs.
    scheme: Scheme,
    /// Whether `transformed` is a register reallocation (its committed
    /// records differ from `base`'s).
    reallocated: bool,
}

/// Executes paper experiments: profile on train, measure on ref.
#[derive(Debug, Clone)]
pub struct Runner {
    /// Machine configuration (Table 1 by default).
    pub config: UarchConfig,
    /// Value-misprediction recovery model (the paper uses selective
    /// reissue everywhere except Figure 4).
    pub recovery: Recovery,
    /// Profile threshold for candidate selection (0.80; Figure 4 uses
    /// 0.90).
    pub threshold: f64,
    /// Committed-instruction budget for profiling runs.
    pub profile_insts: u64,
    /// Committed-instruction budget for measurement runs.
    pub measure_insts: u64,
    /// When set, measurement runs are *sampled*: the committed stream
    /// is BBV-profiled and clustered into phases, one representative
    /// interval per phase is simulated in detail after functional
    /// warmup, and whole-run stats are reconstructed by weight. `None`
    /// (the default) measures every committed instruction in detail.
    pub sampling: Option<SampleSpec>,
    /// Multiplier on every workload's outer pass counts
    /// ([`Workload::program_scaled`]); 1 (the default) is the seed-era
    /// program. A few hundred reaches the paper's 100M+ committed
    /// instructions — pair with [`Runner::sampling`] to keep such runs
    /// tractable.
    pub workload_scale: u64,
    /// Memos of sampling plans and extracted windows, shared across
    /// clones (and therefore across the threads of a parallel grid).
    pub samples: SamplingCaches,
    /// Memo of collected profiles, shared across clones (and therefore
    /// across the threads of a parallel grid).
    pub profiles: ProfileCache,
    /// Memo of simulations by run fingerprint, shared across clones:
    /// cells that hand the timing core the same input simulate once
    /// ([`Runner::run`]); `runs.len()` counts the distinct simulations.
    pub runs: RunMemo,
    /// On-disk committed-trace cache; when present, profiles are
    /// collected by replaying traces instead of re-running the emulator.
    /// Defaults to the `RVP_TRACE_DIR` environment variable.
    pub traces: Option<TraceStore>,
    /// Where measurement runs get their committed stream (shared
    /// in-memory traces by default).
    pub source_mode: SourceMode,
    /// Memo of decoded in-memory traces, shared across clones (and
    /// therefore across the threads of a parallel grid).
    pub shared_traces: SharedTraceCache,
    /// Per-workload capture / shared-hit / live-fallback telemetry,
    /// shared across clones.
    pub source_counters: SourceCounters,
    /// Optional instrumentation for measurement runs (time-series
    /// sampling and per-PC telemetry). Off by default; the CPI stack is
    /// always collected.
    pub obs: ObsConfig,
    /// Cooperative cancellation handle. When set, measurement cycle
    /// loops and the sampling passes poll it on an amortized schedule
    /// and fail fast with [`SimError::Cancelled`]; `None` (the default)
    /// costs nothing.
    pub cancel: Option<rvp_obs::CancelToken>,
}

impl Default for Runner {
    fn default() -> Runner {
        let shared_traces = SharedTraceCache::default();
        // Resource governance knob: cap the resident bytes of decoded
        // shared traces (`RVP_SHARED_TRACE_BUDGET_MB`); unset or 0
        // leaves the cache ungoverned, the seed-era behavior.
        if let Some(mb) = std::env::var("RVP_SHARED_TRACE_BUDGET_MB")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|mb| *mb > 0)
        {
            shared_traces.set_budget_bytes(mb * 1024 * 1024);
        }
        Runner {
            config: UarchConfig::table1(),
            recovery: Recovery::Selective,
            threshold: 0.8,
            profile_insts: 1_500_000,
            measure_insts: 400_000,
            sampling: None,
            workload_scale: 1,
            samples: SamplingCaches::default(),
            profiles: ProfileCache::default(),
            runs: RunMemo::default(),
            traces: TraceStore::from_env(),
            source_mode: SourceMode::default(),
            shared_traces,
            source_counters: SourceCounters::default(),
            obs: ObsConfig::off(),
            cancel: None,
        }
    }
}

impl Runner {
    /// A runner for the 16-wide machine of Figure 8.
    pub fn wide16() -> Runner {
        Runner { config: UarchConfig::wide16(), ..Runner::default() }
    }

    /// The workload's program at this runner's [`Runner::workload_scale`].
    pub fn program_for(&self, wl: &Workload, input: Input) -> Program {
        wl.program_scaled(input, self.workload_scale)
    }

    /// Fails fast with [`SimError::Cancelled`] if this runner's token
    /// has fired — called between the coarse stages of a cell (profile,
    /// plan, window, measure) so cancellation lands promptly even when
    /// the current stage is not a polled cycle loop.
    fn check_cancel(&self) -> Result<(), SimError> {
        if let Some(token) = &self.cancel {
            if let Some(reason) = token.poll() {
                return Err(SimError::Cancelled { cycle: 0, committed: 0, reason });
            }
        }
        Ok(())
    }

    /// The train-input profile used by every profile-guided scheme,
    /// memoized in [`Runner::profiles`] (and served from the trace cache
    /// when one is configured).
    fn train_profile_for(&self, wl: &Workload, train: &Program) -> Result<Arc<Profile>, SimError> {
        let key = (wl.name(), Input::Train, self.profile_insts, self.workload_scale);
        self.profiles.get_or_try_init(key, || {
            self.collect_profile(wl.name(), Input::Train, train, self.profile_insts).map(Arc::new)
        })
    }

    /// Collects a profile, replaying a cached trace when a [`TraceStore`]
    /// is configured. The store replaces a trace that fails mid-read
    /// with a fresh capture; a second failure falls back to live
    /// emulation. The trace subsystem can slow an experiment down but
    /// never fail it.
    fn collect_profile(
        &self,
        name: &'static str,
        input: Input,
        program: &Program,
        budget: u64,
    ) -> Result<Profile, SimError> {
        let _span = rvp_obs::span!("runner.profile", { workload: name, budget });
        let cfg = ProfileConfig { max_insts: budget, min_execs: 32 };
        if let Some(store) = &self.traces {
            let meta = TraceMeta::for_program(name, trace_input(input), budget, program);
            match store.read_or_capture(program, &meta, |reader| {
                Profile::collect_stream(program, &cfg, reader)
            }) {
                Ok(profile) => return Ok(profile),
                Err(e) => log::warn(
                    "rvp_core::runner",
                    "trace replay failed; falling back to live emulation",
                    &[("workload", name.into()), ("error", e.to_string().into())],
                ),
            }
        }
        Profile::collect(program, &cfg).map_err(SimError::Emu)
    }

    /// The register reallocation `drvp_all_realloc` applies.
    fn realloc_options(&self) -> ReallocOptions {
        ReallocOptions {
            threshold: self.threshold,
            scope: PlanScope::AllInsts,
            use_dead: true,
            use_lv: true,
        }
    }

    /// Runs one (workload, scheme) cell.
    ///
    /// The cell's program and scheme are prepared first (profile, plan,
    /// `rvp_` marking or reallocation), then the simulation is looked up
    /// in [`Runner::runs`] under the cell's run fingerprint
    /// ([`Runner::run_fingerprint`]): cells that resolve to the same
    /// machine input — `srvp_*` levels marking the same loads, assist
    /// plans with the same relations, an `srvp_*` marking nothing and
    /// `no_predict` — simulate once and share the stats. A peer's
    /// failure is not shared: a cell that waited on it runs itself,
    /// after re-checking its own cancel token.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; these indicate workload or model
    /// bugs, not expected outcomes.
    pub fn run(&self, wl: &Workload, scheme: &SchemeSpec) -> Result<RunResult, SimError> {
        self.check_cancel()?;
        let cell = self.prepare(wl, scheme)?;
        let key = self.fingerprint(&cell);
        let PreparedCell { base, transformed, scheme: sim_scheme, reallocated } = cell;
        let program = transformed.as_ref().unwrap_or(&base);
        let (stats, sampling) = self.runs.get_or_try_init(key, || -> Result<_, SimError> {
            // This cell may have waited out a peer's failed run; its
            // own token may have fired meanwhile.
            self.check_cancel()?;
            Ok(match self.sampling {
                Some(spec) => {
                    let (stats, plan) =
                        self.measure_sampled(wl, &base, program, sim_scheme, &spec, reallocated)?;
                    (stats, Some(plan))
                }
                None => (self.measure(wl, program, sim_scheme, reallocated)?, None),
            })
        })?;
        Ok(RunResult { workload: wl.name(), scheme: scheme.label().to_owned(), stats, sampling })
    }

    /// The run fingerprint of one (workload, scheme) cell under this
    /// runner: the key [`Runner::run`] memoizes its simulation under.
    ///
    /// # Errors
    ///
    /// Propagates errors from preparing the cell (the train profile).
    pub fn run_fingerprint(&self, wl: &Workload, scheme: &SchemeSpec) -> Result<u64, SimError> {
        Ok(self.fingerprint(&self.prepare(wl, scheme)?))
    }

    /// Builds what a cell simulates: the ref program (marked or
    /// reallocated, as the scheme asks) and the machine's [`Scheme`].
    fn prepare(&self, wl: &Workload, scheme: &SchemeSpec) -> Result<PreparedCell, SimError> {
        let info = scheme.info();
        let base = self.program_for(wl, Input::Ref);
        let train = self.program_for(wl, Input::Train);
        if base.len() != train.len() {
            return Err(SimError::StructureMismatch {
                train_len: train.len(),
                ref_len: base.len(),
            });
        }
        let profile =
            if scheme.needs_profile() { Some(self.train_profile_for(wl, &train)?) } else { None };

        let mut sim_scheme = match scheme.build_predictor() {
            Some(p) => Scheme::new(scheme.label().to_owned(), info.scope, p),
            None => Scheme::no_predict(),
        };
        let mut transformed = None;
        match info.plan {
            PlanSource::NoPlan => {}
            PlanSource::Static(level) => {
                let profile = profile.as_ref().expect("profiled");
                let plan = profile.static_plan(&train, self.threshold, level);
                transformed = Some(mark_rvp_loads(&base, &plan));
                sim_scheme = sim_scheme.with_plan(plan, PlanMode::Exhaustive);
            }
            PlanSource::Assist(assist) => {
                let profile = profile.as_ref().expect("profiled");
                let plan = profile.assist_plan(&train, self.threshold, info.scope, assist);
                sim_scheme = sim_scheme.with_plan(plan, PlanMode::Overlay);
            }
            PlanSource::Realloc => {
                // Actually transform the program; the hardware then runs
                // the plain predictor with no oracle plan.
                let profile = profile.as_ref().expect("profiled");
                transformed = Some(reallocate(&base, profile, &self.realloc_options()).program);
            }
        }
        Ok(PreparedCell {
            base,
            transformed,
            scheme: sim_scheme,
            reallocated: info.plan == PlanSource::Realloc,
        })
    }

    /// FNV-1a over everything the measurement of `cell` reads: the
    /// scheme's prediction part ([`Scheme::hash_prediction`]), the
    /// simulated program, the recovery model, the machine, the budget
    /// and the instrumentation, plus the sampling spec and base program
    /// for a sampled cell. The scheme label, the plan source, the
    /// source mode (every source is bit-identical) and the cancel token
    /// are left out.
    fn fingerprint(&self, cell: &PreparedCell) -> u64 {
        let program = cell.transformed.as_ref().unwrap_or(&cell.base);
        let simulated = program_hash(program);
        let mut h = Fnv1a::default();
        cell.scheme.hash_prediction(program, &self.config, &mut h);
        h.write_u64(simulated);
        let machine =
            format!("|{:?}|{}|{:?}|{:?}", self.recovery, self.measure_insts, self.config, self.obs);
        h.write(machine.as_bytes());
        if let Some(spec) = &self.sampling {
            h.write(spec.fingerprint_component().as_bytes());
            h.write_u64(match &cell.transformed {
                Some(_) => program_hash(&cell.base),
                None => simulated,
            });
        }
        h.finish()
    }

    /// Runs one timing simulation, feeding the committed stream per
    /// [`Runner::source_mode`]. A register-reallocated program always
    /// runs live — the transformation changes the instruction stream
    /// itself, so no captured trace describes it. (Profile-marked
    /// `rvp_` opcodes are fine: marking does not change semantics, so
    /// the unmarked base trace still matches.)
    fn measure(
        &self,
        wl: &Workload,
        program: &Program,
        sim_scheme: Scheme,
        reallocated: bool,
    ) -> Result<SimStats, SimError> {
        let name = wl.name();
        let mut sim = Simulator::new(self.config.clone(), sim_scheme, self.recovery)
            .with_obs(self.obs.clone());
        if let Some(token) = &self.cancel {
            sim = sim.with_cancel(token.clone());
        }
        let mode = if reallocated { SourceMode::Live } else { self.source_mode };
        let _span = rvp_obs::span!("runner.measure", { workload: name, source: mode.name() });

        match mode {
            SourceMode::Live => {
                if self.source_mode != SourceMode::Live {
                    self.source_counters.bump(name, |t| t.live_fallbacks += 1);
                }
                sim.run(program, self.measure_insts)
            }
            SourceMode::Shared => {
                let trace = self.shared_ref_trace(wl)?;
                self.source_counters.bump(name, |t| t.shared_hits += 1);
                let mut source = SharedSource::new(trace);
                sim.run_with_source(program, &mut source, self.measure_insts)
            }
        }
    }

    /// Runs one *sampled* timing simulation: plan and extract the
    /// representative windows ([`Runner::sample_windows`]), then per
    /// window run functional warmup followed by a detailed simulation of
    /// just that interval, and reconstruct whole-run stats by cluster
    /// weight.
    ///
    /// `base` is the workload's unmarked ref program and `program` the
    /// one simulated. Marking and reallocation leave every `pc →
    /// next_pc` transition as it was, so the plan comes from `base`.
    /// `rvp_` marking changes no committed record either, so a marked
    /// program runs over `base`'s windows, as it runs over the base
    /// trace in [`Runner::measure`]. A register-reallocated program
    /// renames destinations in its records, so it gets windows cut from
    /// its own stream under the same plan.
    fn measure_sampled(
        &self,
        wl: &Workload,
        base: &Program,
        program: &Program,
        sim_scheme: Scheme,
        spec: &SampleSpec,
        reallocated: bool,
    ) -> Result<(SimStats, Arc<SamplePlan>), SimError> {
        let name = wl.name();
        let _span = rvp_obs::span!("runner.measure", { workload: name, source: "sampled" });
        let stream = if reallocated { program } else { base };
        let (plan, windows) = self.sample_windows(name, base, stream, spec)?;

        let mut parts = Vec::with_capacity(windows.len());
        for w in windows.iter() {
            self.check_cancel()?;
            let _span = rvp_obs::span!("sample.interval", {
                workload: name,
                index: w.index as u64,
                start: w.start,
                insts: w.detail.len() as u64
            });
            let mut sim = Simulator::new(self.config.clone(), sim_scheme.clone(), self.recovery);
            if let Some(token) = &self.cancel {
                sim = sim.with_cancel(token.clone());
            }
            let warm = sim.functional_warmup(program, &w.warmup);
            let mut source = SharedSource::new(Arc::clone(&w.detail));
            let stats =
                sim.run_warmed_with_source(program, &mut source, w.detail.len() as u64, &warm)?;
            parts.push((w.weight, stats));
        }
        Ok((combine_weighted(plan.total_insts, &parts), plan))
    }

    /// The sampling plan built from `base` and the windows it cuts from
    /// `stream`'s committed records, each memoized in
    /// [`Runner::samples`]: the plan under `base`'s hash (and
    /// content-addressed on disk next to the trace store), the windows
    /// under `stream`'s, so every program with the same committed
    /// stream shares one window set.
    fn sample_windows(
        &self,
        name: &'static str,
        base: &Program,
        stream: &Program,
        spec: &SampleSpec,
    ) -> Result<(Arc<SamplePlan>, Arc<Vec<SampleWindow>>), SimError> {
        let budget = self.measure_insts;
        let (interval, warmup) = spec.resolve(budget);
        let key = |p: &Program| {
            sample_key(name, budget, rvp_trace::program_hash(p), interval, warmup, spec)
        };
        let cancel = self.cancel.as_ref();
        let plan_dir = self.traces.as_ref().map(|s| s.dir().join("plans"));
        let plan = self.samples.plan(key(base), plan_dir.as_deref(), || {
            build_plan(name, base, budget, interval, warmup, spec, cancel)
        })?;
        let windows =
            self.samples.windows(key(stream), || extract_plan_windows(&plan, stream, cancel))?;
        Ok((plan, windows))
    }

    /// The shared decoded ref trace for `wl`, materialized on first use
    /// (per (workload, input, budget) key): decoded from the on-disk
    /// store when one is configured — the store re-captures a trace
    /// that fails mid-read, and a second failure falls back to direct
    /// in-memory capture — else captured straight from the emulator.
    fn shared_ref_trace(&self, wl: &Workload) -> Result<Arc<TraceColumns>, SimError> {
        let name = wl.name();
        let key = (name, Input::Ref, self.measure_insts, self.workload_scale);
        let (trace, captured) = self.shared_traces.get_or_capture(key, || {
            let _span = rvp_obs::span!("runner.trace.load", { workload: name });
            let base = self.program_for(wl, Input::Ref);
            if let Some(store) = &self.traces {
                let meta = TraceMeta::for_program(name, TraceInput::Ref, self.measure_insts, &base);
                match store.read_or_capture(&base, &meta, |reader| {
                    reader.collect::<Result<Vec<Committed>, _>>()
                }) {
                    Ok(records) => return Ok(Arc::new(TraceColumns::from_records(&records))),
                    Err(e) => log::warn(
                        "rvp_core::runner",
                        "trace decode failed; capturing shared trace live",
                        &[("workload", name.into()), ("error", e.to_string().into())],
                    ),
                }
            }
            SharedSource::capture(&base, self.measure_insts)
        })?;
        if captured {
            self.source_counters.bump(name, |t| t.captures += 1);
        }
        Ok(trace)
    }

    /// Materializes what serves `wl`'s measurement runs ahead of time,
    /// so a grid can pay for it up front before fanning cells out to
    /// threads. Under [`Runner::sampling`] that is the base program's
    /// plan and windows, on any source: sampled cells never read a full
    /// trace. Otherwise it is the committed trace, and a no-op in
    /// [`SourceMode::Live`].
    ///
    /// # Errors
    ///
    /// Propagates emulator errors from a live capture or a sampling
    /// pass.
    pub fn prewarm_trace(&self, wl: &Workload) -> Result<(), SimError> {
        if let Some(spec) = &self.sampling {
            let base = self.program_for(wl, Input::Ref);
            return self.sample_windows(wl.name(), &base, &base, spec).map(drop);
        }
        match self.source_mode {
            SourceMode::Live => Ok(()),
            SourceMode::Shared => self.shared_ref_trace(wl).map(drop),
        }
    }

    /// Collects `wl`'s train profile ahead of time, so that cells of
    /// the workload that need it never wait while a peer collects it.
    ///
    /// # Errors
    ///
    /// Propagates emulator errors from the profiling run.
    pub fn prewarm_profile(&self, wl: &Workload) -> Result<(), SimError> {
        let train = self.program_for(wl, Input::Train);
        self.train_profile_for(wl, &train).map(drop)
    }

    /// Figure 1 measurement: register-value reuse of loads on the ref
    /// input.
    ///
    /// # Errors
    ///
    /// Propagates emulator errors.
    pub fn fig1(&self, wl: &Workload) -> Result<Fig1Row, SimError> {
        let program = self.program_for(wl, Input::Ref);
        let key = (wl.name(), Input::Ref, self.measure_insts, self.workload_scale);
        let profile = self.profiles.get_or_try_init(key, || {
            self.collect_profile(wl.name(), Input::Ref, &program, self.measure_insts).map(Arc::new)
        })?;
        Ok(profile.fig1())
    }
}

/// A fingerprint of everything that makes two runs of a (workload ×
/// scheme) grid comparable: the workloads, the schemes, the
/// committed-stream source, the instruction budgets, the profile
/// threshold and the recovery model. The grid manifest journals it in
/// its header (a manifest written under a different configuration must
/// not be resumed from), and the serve daemon keys its
/// content-addressed result cache with the single-cell case.
pub fn grid_config_fnv(workloads: &[Workload], schemes: &[SchemeSpec], runner: &Runner) -> u64 {
    let mut key = String::new();
    for wl in workloads {
        key.push_str(wl.name());
        key.push(',');
    }
    key.push('|');
    for s in schemes {
        key.push_str(s.label());
        key.push(',');
    }
    key.push_str(&format!(
        "|{}|{}|{}|{:.6}|{:?}",
        runner.source_mode.name(),
        runner.measure_insts,
        runner.profile_insts,
        runner.threshold,
        runner.recovery,
    ));
    // Sampled and scaled configurations extend the key *only when
    // active*, so every pre-sampling fingerprint — and the manifests
    // and cached results journalled under them — stays valid.
    if let Some(spec) = &runner.sampling {
        key.push('|');
        key.push_str(&spec.fingerprint_component());
    }
    if runner.workload_scale > 1 {
        key.push_str(&format!("|scale={}", runner.workload_scale));
    }
    rvp_trace::fnv1a(key.as_bytes())
}

/// `program` with the loads of a static plan marked in its text
/// (`rvp_` opcodes).
fn mark_rvp_loads(program: &Program, plan: &PredictionPlan) -> Program {
    program.map_insts(|pc, inst| {
        let inst = inst.clone();
        if plan.contains(pc) {
            inst.with_rvp()
        } else {
            inst
        }
    })
}

fn trace_input(input: Input) -> TraceInput {
    match input {
        Input::Train => TraceInput::Train,
        Input::Ref => TraceInput::Ref,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvp_workloads::by_name;

    fn quick_runner() -> Runner {
        Runner { profile_insts: 250_000, measure_insts: 120_000, ..Runner::default() }
    }

    fn spec(label: &str) -> SchemeSpec {
        SchemeSpec::parse(label).unwrap()
    }

    #[test]
    fn m88ksim_has_much_more_reuse_than_go() {
        let r = quick_runner();
        let m88k = r.run(&by_name("m88ksim").unwrap(), &spec("drvp_all")).unwrap();
        let go = r.run(&by_name("go").unwrap(), &spec("drvp_all")).unwrap();
        assert!(
            m88k.stats.coverage() > 2.0 * go.stats.coverage(),
            "m88k {:.3} vs go {:.3}",
            m88k.stats.coverage(),
            go.stats.coverage()
        );
    }

    #[test]
    fn drvp_accuracy_is_high() {
        let r = quick_runner();
        for name in ["m88ksim", "hydro2d"] {
            let res = r.run(&by_name(name).unwrap(), &spec("drvp_all")).unwrap();
            assert!(res.stats.accuracy() > 0.9, "{name}: accuracy {:.3}", res.stats.accuracy());
        }
    }

    #[test]
    fn dead_lv_assistance_increases_coverage() {
        let r = quick_runner();
        let wl = by_name("hydro2d").unwrap();
        let plain = r.run(&wl, &spec("drvp_all")).unwrap();
        let assisted = r.run(&wl, &spec("drvp_all_dead_lv")).unwrap();
        assert!(
            assisted.stats.coverage() >= plain.stats.coverage(),
            "assisted {:.3} < plain {:.3}",
            assisted.stats.coverage(),
            plain.stats.coverage()
        );
    }

    #[test]
    fn gabbay_has_lower_coverage_than_drvp() {
        // The paper's key comparison: register-indexed counters suffer
        // destructive interference that PC-indexed counters avoid.
        let r = quick_runner();
        let wl = by_name("m88ksim").unwrap();
        let drvp = r.run(&wl, &spec("drvp_all")).unwrap();
        let grp = r.run(&wl, &spec("Grp_all")).unwrap();
        assert!(
            grp.stats.coverage() < drvp.stats.coverage(),
            "Grp {:.3} !< dRVP {:.3}",
            grp.stats.coverage(),
            drvp.stats.coverage()
        );
    }

    #[test]
    fn prediction_never_changes_committed_count() {
        let r = quick_runner();
        let wl = by_name("ijpeg").unwrap();
        let base = r.run(&wl, &spec("no_predict")).unwrap();
        for scheme in [&spec("lvp"), &spec("drvp_all"), &spec("srvp_dead")] {
            let res = r.run(&wl, scheme).unwrap();
            assert_eq!(res.stats.committed, base.stats.committed, "{scheme:?}");
        }
    }

    #[test]
    fn fig1_fractions_are_monotone() {
        let r = quick_runner();
        for name in ["li", "mgrid"] {
            let row = r.fig1(&by_name(name).unwrap()).unwrap();
            let [same, dead, any, lvp] = row.fractions();
            assert!(same <= dead + 1e-12, "{name}");
            assert!(dead <= any + 1e-12, "{name}");
            assert!(any <= lvp + 1e-12, "{name}");
            assert!(lvp <= 1.0);
        }
    }

    #[test]
    fn train_profiles_are_memoized_per_workload() {
        let r = quick_runner();
        let wl = by_name("li").unwrap();
        r.run(&wl, &spec("drvp_all")).unwrap();
        r.run(&wl, &spec("srvp_dead")).unwrap();
        assert_eq!(r.profiles.len(), 1, "two runs must share one train profile");
    }

    #[test]
    fn trace_replay_run_matches_live_run() {
        let dir =
            std::env::temp_dir().join(format!("rvp-runner-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::new(&dir).unwrap();
        let wl = by_name("li").unwrap();
        let scheme = &spec("drvp_all_dead_lv");

        let live = Runner { traces: None, source_mode: SourceMode::Live, ..quick_runner() };
        let want = live.run(&wl, scheme).unwrap();

        // First traced runner captures train (profile) and ref
        // (measurement) traces, then replays them.
        let traced = Runner { traces: Some(store.clone()), ..quick_runner() };
        let replayed = traced.run(&wl, scheme).unwrap();
        assert_eq!(want.stats, replayed.stats);
        assert_eq!(store.counters().captures(), 2);

        // A fresh runner (empty profile and trace caches) hits the
        // on-disk traces.
        let warm = Runner { traces: Some(store.clone()), ..quick_runner() };
        let from_disk = warm.run(&wl, scheme).unwrap();
        assert_eq!(want.stats, from_disk.stats);
        assert!(store.counters().hits() >= 2);

        // Profiling the stored train trace reproduces the emulated
        // profile exactly.
        let train = warm.program_for(&wl, Input::Train);
        let cfg = ProfileConfig { max_insts: warm.profile_insts, min_execs: 32 };
        let meta = TraceMeta::for_program(wl.name(), TraceInput::Train, cfg.max_insts, &train);
        let emulated = Profile::collect(&train, &cfg).unwrap();
        let replayed = store
            .read_or_capture(&train, &meta, |reader| Profile::collect_stream(&train, &cfg, reader))
            .unwrap();
        assert!(emulated == replayed, "replayed train profile differs from the emulated one");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_source_modes_agree_and_are_counted() {
        let dir =
            std::env::temp_dir().join(format!("rvp-runner-source-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::new(&dir).unwrap();
        let wl = by_name("m88ksim").unwrap();

        let run_mode = |mode: SourceMode| {
            let r = Runner { traces: Some(store.clone()), source_mode: mode, ..quick_runner() };
            r.prewarm_trace(&wl).unwrap();
            let a = r.run(&wl, &spec("drvp_all")).unwrap();
            let b = r.run(&wl, &spec("no_predict")).unwrap();
            let fallback = r.run(&wl, &spec("drvp_all_realloc")).unwrap();
            (a.stats, b.stats, fallback.stats, r.source_counters.total())
        };

        let (la, lb, lf, lt) = run_mode(SourceMode::Live);
        let (sa, sb, sf, st) = run_mode(SourceMode::Shared);
        assert_eq!(la, sa);
        assert_eq!(lb, sb);
        assert_eq!(lf, sf);

        // Live mode counts nothing; the shared mode captures one trace
        // into memory at prewarm, serves two runs from it, and falls
        // back to live for the reallocated cell.
        assert_eq!(lt, SourceTally::default());
        assert_eq!(st, SourceTally { captures: 1, shared_hits: 2, live_fallbacks: 1 });

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Paper-scale methodology gate: for every paper scheme, sampled
    /// measurement must land within 2% relative IPC error of the full
    /// detailed run on multiple workloads.
    #[test]
    fn sampled_ipc_tracks_full_ipc_for_all_paper_schemes() {
        let full = quick_runner();
        let sampled = Runner {
            sampling: Some(SampleSpec {
                interval_insts: 20_000,
                max_k: 4,
                ..SampleSpec::default()
            }),
            ..quick_runner()
        };
        for name in ["m88ksim", "ijpeg"] {
            let wl = by_name(name).unwrap();
            for scheme in crate::schemes::paper_schemes() {
                let want = full.run(&wl, &scheme).unwrap();
                let got = sampled.run(&wl, &scheme).unwrap();
                let plan = got.sampling.as_ref().expect("sampled cell must carry its plan");
                assert!(
                    plan.sampled_insts() < full.measure_insts,
                    "{name}/{}: plan simulates the whole run in detail",
                    scheme.label()
                );
                assert_eq!(got.stats.committed, want.stats.committed);
                let err = (got.stats.ipc() - want.stats.ipc()).abs() / want.stats.ipc();
                assert!(
                    err <= 0.02,
                    "{name}/{}: sampled IPC {:.4} vs full {:.4} ({:.2}% error)",
                    scheme.label(),
                    got.stats.ipc(),
                    want.stats.ipc(),
                    100.0 * err
                );
            }
        }
    }

    /// The invariant behind planning once per workload: neither `rvp_`
    /// marking nor register reallocation changes a `pc → next_pc`
    /// transition, so both build the base program's plan, and marking
    /// changes no committed record, so it cuts the base windows.
    #[test]
    fn marked_and_reallocated_programs_sample_like_the_base_program() {
        let r = quick_runner();
        let sample = SampleSpec { interval_insts: 20_000, ..SampleSpec::default() };
        let (interval, warmup) = sample.resolve(r.measure_insts);
        let PlanSource::Static(level) = spec("srvp_live").info().plan else {
            panic!("srvp_live marks loads statically");
        };
        let plan_of = |name, program: &Program| {
            build_plan(name, program, r.measure_insts, interval, warmup, &sample, None).unwrap()
        };
        let records = |w: &SampleWindow| w.detail.records().collect::<Vec<_>>();
        for wl in rvp_workloads::all() {
            let name = wl.name();
            let base = r.program_for(&wl, Input::Ref);
            let train = r.program_for(&wl, Input::Train);
            let profile = r.train_profile_for(&wl, &train).unwrap();
            let marked = mark_rvp_loads(&base, &profile.static_plan(&train, r.threshold, level));
            let reallocated = reallocate(&base, &profile, &r.realloc_options()).program;

            let plan = plan_of(name, &base);
            assert_eq!(plan_of(name, &marked), plan, "{name}: marked plan differs");
            assert_eq!(plan_of(name, &reallocated), plan, "{name}: reallocated plan differs");

            let want = extract_plan_windows(&plan, &base, None).unwrap();
            let got = extract_plan_windows(&plan, &marked, None).unwrap();
            assert_eq!(got.len(), want.len(), "{name}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.index, g.start, g.cluster), (w.index, w.start, w.cluster), "{name}");
                assert_eq!(g.weight.to_bits(), w.weight.to_bits(), "{name}");
                assert_eq!(g.warmup, w.warmup, "{name}: warmup records differ");
                assert_eq!(records(g), records(w), "{name}: detail records differ");
            }
        }
    }

    /// Sampled cells reconstruct a CPI stack that still sums to the
    /// cycle count, and the plan/window memos are shared across scheme
    /// cells of a workload.
    #[test]
    fn sampled_cells_share_one_plan_per_workload() {
        let r = Runner {
            sampling: Some(SampleSpec { interval_insts: 20_000, ..SampleSpec::default() }),
            ..quick_runner()
        };
        let wl = by_name("li").unwrap();
        let a = r.run(&wl, &spec("no_predict")).unwrap();
        let b = r.run(&wl, &spec("drvp_all")).unwrap();
        assert_eq!(a.sampling, b.sampling, "scheme cells must share the workload's plan");
        assert_eq!(r.samples.plans_len(), 1);
        assert_eq!(r.samples.windows_len(), 1);
        for res in [&a, &b] {
            let s = &res.stats;
            let stack = s.cpi.base
                + s.cpi.reissue
                + s.cpi.dcache
                + s.cpi.queue_full
                + s.cpi.value_refetch
                + s.cpi.branch_mispredict
                + s.cpi.icache
                + s.cpi.fetch_stall;
            assert_eq!(s.cycles, stack, "combined CPI stack must sum to cycles");
        }
        // Marking and reallocation keep the base plan. Marking keeps the
        // committed stream too; reallocation renames destinations, so
        // its cell cuts its own windows.
        r.run(&wl, &spec("srvp_live")).unwrap();
        r.run(&wl, &spec("drvp_all_realloc")).unwrap();
        assert_eq!(r.samples.plans_len(), 1);
        assert_eq!(r.samples.windows_len(), 2);
    }

    /// The sampling plan is persisted content-addressed next to the
    /// trace store and reloaded by a fresh runner; a corrupt file is
    /// rebuilt, not trusted.
    #[test]
    fn sample_plan_is_cached_on_disk_and_reloaded() {
        let dir = std::env::temp_dir().join(format!("rvp-runner-plan-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::new(&dir).unwrap();
        let wl = by_name("li").unwrap();
        let sampled = || Runner {
            traces: Some(store.clone()),
            sampling: Some(SampleSpec { interval_insts: 20_000, ..SampleSpec::default() }),
            ..quick_runner()
        };

        let first = sampled().run(&wl, &spec("no_predict")).unwrap();
        let plans: Vec<_> = std::fs::read_dir(dir.join("plans"))
            .expect("plan dir exists after a sampled run")
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(plans.len(), 1, "one content-addressed plan file");

        // A fresh runner (cold in-memory caches) must load the same
        // plan from disk.
        let reloaded = sampled().run(&wl, &spec("no_predict")).unwrap();
        assert_eq!(first.sampling, reloaded.sampling);
        assert_eq!(first.stats, reloaded.stats);

        // Corruption is detected (plans are parsed, not trusted) and
        // the plan is rebuilt to the same content.
        std::fs::write(&plans[0], b"{ not a plan").unwrap();
        let rebuilt = sampled().run(&wl, &spec("no_predict")).unwrap();
        assert_eq!(first.sampling, rebuilt.sampling);
        assert_eq!(first.stats, rebuilt.stats);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sampled and scaled grids must never share a fingerprint with
    /// detailed seed-era grids (resume and the serve result cache key
    /// on it) — while an inactive sampling/scale config leaves the
    /// seed-era fingerprint untouched.
    #[test]
    fn sampled_and_scaled_cells_fingerprint_distinctly() {
        let wls = vec![by_name("li").unwrap()];
        let schemes = vec![spec("no_predict")];
        let base = quick_runner();
        let sampled = Runner { sampling: Some(SampleSpec::default()), ..quick_runner() };
        let scaled = Runner { workload_scale: 8, ..quick_runner() };
        let both =
            Runner { sampling: Some(SampleSpec::default()), workload_scale: 8, ..quick_runner() };
        let f = |r: &Runner| grid_config_fnv(&wls, &schemes, r);
        let fps = [f(&base), f(&sampled), f(&scaled), f(&both)];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "fingerprints {i} and {j} collide");
            }
        }
        // Different sampling knobs → different fingerprints too.
        let other_spec = Runner {
            sampling: Some(SampleSpec { max_k: 3, ..SampleSpec::default() }),
            ..quick_runner()
        };
        assert_ne!(f(&sampled), f(&other_spec));
    }

    /// The columnar (SoA) trace view must be bit-identical, record for
    /// record, with the AoS `Committed` streams the live source and the
    /// on-disk trace produce — the structure-of-arrays split is a layout change,
    /// never a value change.
    #[test]
    fn source_equivalence_soa_view_matches_aos_records() {
        use rvp_uarch::{CommittedSource, EmuSource};

        let dir = std::env::temp_dir().join(format!("rvp-runner-soa-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::new(&dir).unwrap();
        let wl = by_name("li").unwrap();
        let budget = 50_000u64;
        let program = wl.program(Input::Ref);

        // AoS reference stream straight from the live emulator source.
        let mut live = EmuSource::new(&program);
        let mut live_records: Vec<Committed> = Vec::new();
        while (live_records.len() as u64) < budget {
            match live.next_record().unwrap() {
                Some(rec) => live_records.push(rec),
                None => break,
            }
        }

        // AoS stream decoded back from the on-disk trace container.
        let meta = TraceMeta::for_program(wl.name(), TraceInput::Ref, budget, &program);
        let replay_records: Vec<Committed> =
            store.read_or_capture(&program, &meta, |reader| reader.collect()).unwrap();
        assert_eq!(live_records, replay_records);

        // The SoA view the shared source serves: identical records, and
        // the hot PC column agrees with the assembled record at every
        // index (the fetch stage trusts `peek_pc` alone).
        let columns = SharedSource::capture(&program, budget).unwrap();
        assert_eq!(columns.len(), live_records.len());
        let soa_records: Vec<Committed> = columns.records().collect();
        assert_eq!(soa_records, live_records);

        let mut shared = SharedSource::new(columns.clone());
        for want in &live_records {
            assert_eq!(shared.peek_pc().unwrap(), Some(want.pc));
            assert_eq!(shared.next_record().unwrap().as_ref(), Some(want));
        }
        assert_eq!(shared.next_record().unwrap(), None);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
