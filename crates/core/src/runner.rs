use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rvp_isa::Program;
use rvp_json::{Json, ToJson};
use rvp_obs::{Metric, MetricsRegistry};
use rvp_profile::{Fig1Row, PlanScope, PredictionPlan, Profile, ProfileConfig};
use rvp_realloc::{reallocate, ReallocOptions};
use rvp_sample::{combine_weighted, Checkpoints, SamplePlan, SampleSpec, SampleWindow};
use rvp_trace::{program_hash, Fnv1a, TraceStore};
use rvp_uarch::TraceColumns;
use rvp_uarch::{
    ObsConfig, PlanMode, Recovery, Scheme, SharedSource, SimError, SimStats, Simulator, UarchConfig,
};
use rvp_workloads::{Input, Workload};

use crate::memo::Memo;
use crate::sampling::{build_plan, sample_key, SamplingCaches};
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
/// budget, workload scale, [`program_hash`] of a transformed program).
/// The workload's own program is a pure function of (workload, input,
/// scale), so only a transformation of it needs the hash.
type ProfileKey = (&'static str, Input, u64, u64, Option<u64>);

/// A thread-safe memo of collected [`Profile`]s, shared by clones of a
/// [`Runner`].
///
/// `Runner::run` needs the train profile for most schemes, and a figure
/// column runs every scheme over the same workload — without the cache
/// the (expensive) profile is recollected per scheme.
pub type ProfileCache = Memo<ProfileKey, Arc<Profile>>;

/// A thread-safe memo of [`program_hash`]es of workload programs by
/// (workload, input, scale), shared by clones of a [`Runner`].
///
/// Hashing formats the whole program as assembly text (hundreds of
/// microseconds on the larger workloads), and [`Runner::run`] needs the
/// ref program's hash for every cell, memo hits included.
pub type ProgramHashCache = Memo<(&'static str, Input, u64), u64>;

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
    /// Re-emulate the workload inside every cell; register-reallocated
    /// cells always run this way, whatever the mode (no shared trace
    /// describes their transformed stream).
    Live,
    /// Capture the committed stream once per workload into a columnar
    /// [`TraceColumns`] shared by every cell — the default: a grid pays
    /// for functional emulation once per workload, not per cell.
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

/// Cache key for a shared in-memory trace: (workload, input, budget,
/// scale) — the same key shape as [`ProfileKey`], and for the same
/// reason.
type TraceKey = (&'static str, Input, u64, u64);

/// A thread-safe memo of captured in-memory traces, shared by clones of
/// a [`Runner`] exactly like [`ProfileCache`]: grid threads racing on
/// the *same* workload capture it once while different workloads
/// capture in parallel.
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
    /// Traces captured into memory for this workload.
    pub captures: u64,
    /// Measurement runs served from a shared in-memory trace.
    pub shared_hits: u64,
    /// Measurement runs that fell back to live emulation despite a
    /// trace-backed mode: register-reallocated programs (no trace
    /// describes the transformed stream).
    pub live_fallbacks: u64,
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
    /// [`program_hash`] of `base`.
    base_hash: u64,
    /// [`program_hash`] of the simulated program (`transformed`, or
    /// `base` when there is none).
    simulated_hash: u64,
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
    /// Memo of workload programs' hashes, shared across clones.
    pub program_hashes: ProgramHashCache,
    /// Memo of simulations by run fingerprint, shared across clones:
    /// cells that hand the timing core the same input simulate once
    /// ([`Runner::run`]); `runs.len()` counts the distinct simulations.
    pub runs: RunMemo,
    /// On-disk store of sampling plans: a sampled run loads its plan
    /// from here when one is stored and persists the plans it builds.
    /// Committed streams always come from the emulator. Defaults to the
    /// `RVP_TRACE_DIR` environment variable.
    pub traces: Option<TraceStore>,
    /// Where measurement runs get their committed stream (shared
    /// in-memory traces by default).
    pub source_mode: SourceMode,
    /// Memo of captured in-memory traces, shared across clones (and
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
            program_hashes: ProgramHashCache::default(),
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

    /// [`program_hash`] of `program`, which is [`Runner::program_for`]
    /// (`wl`, `input`), memoized in [`Runner::program_hashes`].
    fn program_hash_of(&self, wl: &Workload, input: Input, program: &Program) -> u64 {
        let key = (wl.name(), input, self.workload_scale);
        let hash = self
            .program_hashes
            .get_or_try_init(key, || Ok::<_, std::convert::Infallible>(program_hash(program)));
        hash.unwrap_or_else(|never| match never {})
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

    /// The profile of `wl`'s program on `input`, or of `transformed` (a
    /// transformation of that program, such as a register reallocation),
    /// over [`Runner::profile_insts`] committed instructions. It is
    /// memoized in [`Runner::profiles`]; the train program's profile is
    /// the one every profile-guided scheme plans from.
    ///
    /// # Errors
    ///
    /// Propagates emulator errors from the profiling run.
    pub fn profile(
        &self,
        wl: &Workload,
        input: Input,
        transformed: Option<&Program>,
    ) -> Result<Arc<Profile>, SimError> {
        self.memo_profile(wl, input, transformed, self.profile_insts)
    }

    /// [`Runner::profile`] over `budget` committed instructions.
    fn memo_profile(
        &self,
        wl: &Workload,
        input: Input,
        transformed: Option<&Program>,
        budget: u64,
    ) -> Result<Arc<Profile>, SimError> {
        let key = (wl.name(), input, budget, self.workload_scale, transformed.map(program_hash));
        self.profiles.get_or_try_init(key, || {
            let program =
                transformed.map_or_else(|| Cow::Owned(self.program_for(wl, input)), Cow::Borrowed);
            let _span = rvp_obs::span!("runner.profile", { workload: wl.name(), budget });
            let cfg = ProfileConfig { max_insts: budget, min_execs: 32 };
            Profile::collect(&program, &cfg).map(Arc::new).map_err(SimError::Emu)
        })
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
        let PreparedCell {
            base,
            transformed,
            base_hash,
            simulated_hash,
            scheme: sim_scheme,
            reallocated,
        } = cell;
        let program = transformed.as_ref().unwrap_or(&base);
        let (stats, sampling) = self.runs.get_or_try_init(key, || -> Result<_, SimError> {
            // This cell may have waited out a peer's failed run; its
            // own token may have fired meanwhile.
            self.check_cancel()?;
            Ok(match self.sampling {
                Some(spec) => {
                    // A reallocated program's records differ from the
                    // base's; every other cell replays the base stream.
                    let stream =
                        if reallocated { (program, simulated_hash) } else { (&base, base_hash) };
                    let (stats, plan) = self.measure_sampled(
                        wl,
                        (&base, base_hash),
                        program,
                        stream,
                        sim_scheme,
                        &spec,
                    )?;
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

    /// The content address of the cell JSON [`Runner::run`] returns
    /// for (`wl`, `scheme`): FNV-1a over everything that changes the
    /// cell's bytes — workload, scheme label, recovery model, profile
    /// threshold, both budgets, sampling spec, workload scale, machine
    /// and instrumentation. The source mode is left out (every source
    /// is bit-identical), as are the caches and the cancel token. It
    /// reads the knobs alone, so a cell is keyed before anything is
    /// built or profiled, and hashes their fields rather than their
    /// text: the daemon keys every cell of every request.
    pub fn cell_key(&self, wl: &Workload, scheme: &SchemeSpec) -> u64 {
        let mut h = Fnv1a::default();
        (wl.name(), scheme.label(), self.recovery, self.threshold.to_bits()).hash(&mut h);
        (self.measure_insts, self.profile_insts, self.sampling, self.workload_scale).hash(&mut h);
        (&self.config, &self.obs).hash(&mut h);
        h.finish()
    }

    /// Builds what a cell simulates: the ref program (marked or
    /// reallocated, as the scheme asks) and the machine's [`Scheme`].
    fn prepare(&self, wl: &Workload, scheme: &SchemeSpec) -> Result<PreparedCell, SimError> {
        let info = scheme.info();
        let base = self.program_for(wl, Input::Ref);
        let base_hash = self.program_hash_of(wl, Input::Ref, &base);
        let train = self.program_for(wl, Input::Train);
        if base.len() != train.len() {
            return Err(SimError::StructureMismatch {
                train_len: train.len(),
                ref_len: base.len(),
            });
        }
        let profile =
            if scheme.needs_profile() { Some(self.profile(wl, Input::Train, None)?) } else { None };

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
        let simulated_hash = transformed.as_ref().map_or(base_hash, program_hash);
        Ok(PreparedCell {
            base,
            transformed,
            base_hash,
            simulated_hash,
            scheme: sim_scheme,
            reallocated: info.plan == PlanSource::Realloc,
        })
    }

    /// FNV-1a over everything the measurement of `cell` reads: the
    /// scheme's prediction part ([`Scheme::hash_prediction`]), the
    /// simulated program, the recovery model, the machine, the budget,
    /// the instrumentation and the sampling spec, plus the base program
    /// for a sampled cell. The scheme label, the plan source, the
    /// source mode (every source is bit-identical) and the cancel token
    /// are left out. Like [`Runner::cell_key`], it hashes the knobs'
    /// fields rather than their text.
    fn fingerprint(&self, cell: &PreparedCell) -> u64 {
        let program = cell.transformed.as_ref().unwrap_or(&cell.base);
        let mut h = Fnv1a::default();
        cell.scheme.hash_prediction(program, &self.config, &mut h);
        h.write_u64(cell.simulated_hash);
        (self.recovery, self.measure_insts, &self.config, &self.obs, self.sampling).hash(&mut h);
        if self.sampling.is_some() {
            h.write_u64(cell.base_hash);
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
    /// program runs over `base`'s windows (`stream` is `base`), as it
    /// runs over the base trace in [`Runner::measure`]. A
    /// register-reallocated program renames destinations in its
    /// records, so it gets windows cut from its own stream (`stream` is
    /// `program`) under the same plan. Each program comes with its
    /// [`program_hash`].
    fn measure_sampled(
        &self,
        wl: &Workload,
        base: (&Program, u64),
        program: &Program,
        stream: (&Program, u64),
        sim_scheme: Scheme,
        spec: &SampleSpec,
    ) -> Result<(SimStats, Arc<SamplePlan>), SimError> {
        let name = wl.name();
        let _span = rvp_obs::span!("runner.measure", { workload: name, source: "sampled" });
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
    /// content-addressed on disk in [`Runner::traces`]), the windows
    /// under `stream`'s, so every program with the same committed
    /// stream shares one window set. Each program comes with its
    /// [`program_hash`].
    ///
    /// When this call runs the BBV pass and `stream` is `base`, the
    /// windows are cut from that pass's checkpoints; otherwise (a plan
    /// loaded from disk or built by a peer, a reallocated stream) they
    /// are cut from `stream`'s initial state in one forward pass.
    fn sample_windows(
        &self,
        name: &'static str,
        (base, base_hash): (&Program, u64),
        (stream, stream_hash): (&Program, u64),
        spec: &SampleSpec,
    ) -> Result<(Arc<SamplePlan>, Arc<Vec<SampleWindow>>), SimError> {
        let budget = self.measure_insts;
        let (interval, warmup) = spec.resolve(budget);
        let key = |hash| sample_key(name, budget, hash, interval, warmup, spec);
        let cancel = self.cancel.as_ref();
        let mut checkpoints = None;
        let plan = self.samples.plan(key(base_hash), self.traces.as_ref(), || {
            let (plan, kept) = build_plan(name, base, budget, interval, warmup, spec, cancel)?;
            checkpoints = Some(kept);
            Ok(plan)
        })?;
        let windows = self.samples.windows(key(stream_hash), || {
            let from = match checkpoints.take() {
                Some(kept) if stream_hash == base_hash => kept,
                _ => Checkpoints::initial(stream),
            };
            from.cut(&plan, cancel)
        })?;
        Ok((plan, windows))
    }

    /// The shared ref trace for `wl`, captured from the emulator on
    /// first use (per (workload, input, budget, scale) key).
    fn shared_ref_trace(&self, wl: &Workload) -> Result<Arc<TraceColumns>, SimError> {
        let name = wl.name();
        let key = (name, Input::Ref, self.measure_insts, self.workload_scale);
        let (trace, captured) = self.shared_traces.get_or_capture(key, || {
            let _span = rvp_obs::span!("runner.trace.load", { workload: name });
            SharedSource::capture(&self.program_for(wl, Input::Ref), self.measure_insts)
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
            let base = (&base, self.program_hash_of(wl, Input::Ref, &base));
            return self.sample_windows(wl.name(), base, base, spec).map(drop);
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
        self.profile(wl, Input::Train, None).map(drop)
    }

    /// Registers this runner's collectors with `registry`: the
    /// per-workload source tallies (`rvp_source_*_total{workload}`),
    /// the shared-trace evictions and, with a store, the plan-store
    /// evictions. The collectors read counters shared by every clone of
    /// the runner, so a grid or daemon registers once.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let sources = self.source_counters.clone();
        registry.register(move || {
            let mut out = Vec::new();
            for (workload, t) in sources.snapshot() {
                for (name, n) in [
                    ("rvp_source_captures_total", t.captures),
                    ("rvp_source_shared_hits_total", t.shared_hits),
                    ("rvp_source_live_fallbacks_total", t.live_fallbacks),
                ] {
                    out.push(Metric::counter(name, n).with_label("workload", workload));
                }
            }
            out
        });
        let shared = self.shared_traces.clone();
        registry.register(move || {
            vec![Metric::counter("rvp_shared_trace_evicted_total", shared.evicted())]
        });
        if let Some(store) = &self.traces {
            let evicted = store.evictions();
            registry.register(move || {
                vec![Metric::counter("rvp_trace_evicted_total", evicted.load(Ordering::Relaxed))]
            });
        }
    }

    /// Figure 1 measurement: register-value reuse of loads on the ref
    /// input.
    ///
    /// # Errors
    ///
    /// Propagates emulator errors.
    pub fn fig1(&self, wl: &Workload) -> Result<Fig1Row, SimError> {
        Ok(self.memo_profile(wl, Input::Ref, None, self.measure_insts)?.fig1())
    }
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
    fn the_ref_program_is_hashed_once_per_workload_across_clones() {
        let r = quick_runner();
        let wl = by_name("li").unwrap();
        r.run(&wl, &spec("no_predict")).unwrap();
        r.clone().run(&wl, &spec("drvp_all")).unwrap();
        assert_eq!(r.program_hashes.len(), 1, "clones share one hash memo");
        let base = r.program_for(&wl, Input::Ref);
        assert_eq!(r.program_hash_of(&wl, Input::Ref, &base), program_hash(&base));
        let scaled = Runner { workload_scale: 2, ..r.clone() };
        scaled.run(&wl, &spec("no_predict")).unwrap();
        assert_eq!(r.program_hashes.len(), 2, "the scale is part of the key");
    }

    #[test]
    fn all_source_modes_agree_and_are_counted() {
        let wl = by_name("m88ksim").unwrap();

        let run_mode = |mode: SourceMode| {
            let r = Runner { source_mode: mode, ..quick_runner() };
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
            build_plan(name, program, r.measure_insts, interval, warmup, &sample, None).unwrap().0
        };
        let records = |w: &SampleWindow| w.detail.records().collect::<Vec<_>>();
        for wl in rvp_workloads::all() {
            let name = wl.name();
            let base = r.program_for(&wl, Input::Ref);
            let train = r.program_for(&wl, Input::Train);
            let profile = r.profile(&wl, Input::Train, None).unwrap();
            let marked = mark_rvp_loads(&base, &profile.static_plan(&train, r.threshold, level));
            let reallocated = reallocate(&base, &profile, &r.realloc_options()).program;

            let plan = plan_of(name, &base);
            assert_eq!(plan_of(name, &marked), plan, "{name}: marked plan differs");
            assert_eq!(plan_of(name, &reallocated), plan, "{name}: reallocated plan differs");

            let want = Checkpoints::initial(&base).cut(&plan, None).unwrap();
            let got = Checkpoints::initial(&marked).cut(&plan, None).unwrap();
            assert_eq!(got.len(), want.len(), "{name}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.index, g.start, g.cluster), (w.index, w.start, w.cluster), "{name}");
                assert_eq!(g.weight.to_bits(), w.weight.to_bits(), "{name}");
                assert!(g.warmup.records().eq(w.warmup.records()), "{name}: warmup records differ");
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

    /// The sampling plan is persisted content-addressed in the store and
    /// reloaded by a fresh runner; a corrupt file is rebuilt, not
    /// trusted.
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

    /// A store holds sampling plans only: with one set, a detailed and
    /// a sampled cell give the stats of a runner without one, and the
    /// store directory gains no trace file, only `plans/plan-*.json`.
    #[test]
    fn a_store_holds_sampling_plans_and_no_traces() {
        let dir =
            std::env::temp_dir().join(format!("rvp-runner-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::new(&dir).unwrap();
        let (wl, scheme) = (by_name("li").unwrap(), spec("drvp_all_dead_lv"));
        let sample = Some(SampleSpec { interval_insts: 20_000, ..SampleSpec::default() });
        for sampling in [None, sample] {
            let bare = Runner { traces: None, sampling, ..quick_runner() };
            let stored = Runner { traces: Some(store.clone()), sampling, ..quick_runner() };
            let want = bare.run(&wl, &scheme).unwrap();
            assert_eq!(stored.run(&wl, &scheme).unwrap().stats, want.stats, "{sampling:?}");
        }

        let files = |dir: &std::path::Path| -> Vec<String> {
            let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap());
            entries.map(|e| e.file_name().to_string_lossy().into_owned()).collect()
        };
        assert_eq!(files(&dir), ["plans"], "the store root holds no trace");
        let plans = files(&dir.join("plans"));
        assert_eq!(plans.len(), 1, "{plans:?}");
        assert!(plans[0].starts_with("plan-") && plans[0].ends_with(".json"), "{plans:?}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stored plan edited on disk fails its checksum: the run rebuilds
    /// the plan, gives the cell a store-less runner gives, and rewrites
    /// the file.
    #[test]
    fn a_tampered_stored_plan_is_rebuilt_and_rewritten() {
        let dir = std::env::temp_dir().join(format!("rvp-plan-tamper-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::new(&dir).unwrap();
        let (wl, scheme) = (by_name("li").unwrap(), spec("no_predict"));
        let sampling = Some(SampleSpec { interval_insts: 20_000, ..SampleSpec::default() });
        let stored = || Runner { traces: Some(store.clone()), sampling, ..quick_runner() };
        let want = Runner { traces: None, sampling, ..quick_runner() }.run(&wl, &scheme).unwrap();
        stored().run(&wl, &scheme).unwrap();

        let plan = std::fs::read_dir(dir.join("plans")).unwrap().next().unwrap().unwrap().path();
        let good = std::fs::read_to_string(&plan).unwrap();
        let (sum, text) = good.split_once(' ').unwrap();
        let at = text.find("\"weight\":").unwrap() + "\"weight\":".len();
        let end = at + text[at..].find([',', '}']).unwrap();
        let edited = format!("{}0.95{}", &text[..at], &text[end..]);
        assert_ne!(edited, text);
        let still_a_plan = SamplePlan::from_json(&Json::parse(&edited).unwrap());
        assert!(still_a_plan.is_ok(), "only the checksum can catch this edit");
        std::fs::write(&plan, format!("{sum} {edited}")).unwrap();

        assert_eq!(stored().run(&wl, &scheme).unwrap().stats, want.stats);
        assert_eq!(std::fs::read_to_string(&plan).unwrap(), good, "the plan is rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The cell key is one per cell and knob setting: equal across
    /// committed-stream sources, which are bit-identical, and different
    /// for every knob that changes a cell's JSON.
    #[test]
    fn cell_key_covers_every_knob_but_the_source() {
        let (li, lvp) = (by_name("li").unwrap(), spec("lvp"));
        let key = |r: &Runner| r.cell_key(&li, &lvp);
        let base = quick_runner();
        let live = Runner { source_mode: SourceMode::Live, ..quick_runner() };
        assert_eq!(key(&base), key(&live), "the source mode is not part of the key");
        assert_eq!(key(&base), key(&quick_runner()), "the key is stable");

        let knobs = [
            Runner { recovery: Recovery::Refetch, ..quick_runner() },
            Runner { threshold: 0.9, ..quick_runner() },
            Runner { measure_insts: base.measure_insts + 1, ..quick_runner() },
            Runner { profile_insts: base.profile_insts + 1, ..quick_runner() },
            Runner { sampling: Some(SampleSpec::default()), ..quick_runner() },
            Runner {
                sampling: Some(SampleSpec { max_k: 3, ..SampleSpec::default() }),
                ..quick_runner()
            },
            Runner { workload_scale: 8, ..quick_runner() },
            Runner { config: UarchConfig::wide16(), ..quick_runner() },
            Runner { obs: ObsConfig::standard(), ..quick_runner() },
        ];
        let mut keys = vec![key(&base), base.cell_key(&by_name("go").unwrap(), &lvp)];
        keys.push(base.cell_key(&li, &spec("drvp_all")));
        keys.push(base.cell_key(&li, &spec("drvp_all:entries=4096")));
        keys.extend(knobs.iter().map(key));
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
    }

    /// The columnar (SoA) trace view must be bit-identical, record for
    /// record, with the AoS `Committed` stream the live source produces
    /// — the structure-of-arrays split is a layout change, never a
    /// value change.
    #[test]
    fn source_equivalence_soa_view_matches_aos_records() {
        use rvp_emu::Committed;
        use rvp_uarch::{CommittedSource, EmuSource};

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
    }
}
