//! Runner-side plumbing for SimPoint-style sampled measurement.
//!
//! The [`rvp_sample`] crate owns the methodology (BBV profiling,
//! clustering, window extraction, weighted reconstruction); this module
//! owns the *caching*. A sampling plan is a pure function of the
//! workload's control flow, and neither `rvp_` load marking nor
//! register reallocation changes a single `pc → next_pc` transition,
//! so the plan is keyed on (and built from) the *base* ref program:
//! every scheme cell of a workload column shares one plan. The
//! extracted windows are keyed on the program whose committed records
//! they carry — the base program for every scheme but a register
//! reallocation that renamed a destination — so marked programs share
//! the base windows too. Plans are memoized in memory and persisted
//! content-addressed in the runner's store, so re-running a sweep skips
//! the profiling pass entirely. A persisted plan is [`checksummed`]: one
//! that fails its checksum is rebuilt, never trusted.

use std::sync::Arc;

use rvp_emu::Emulator;
use rvp_isa::Program;
use rvp_json::{Json, ToJson};
use rvp_obs::log;
use rvp_sample::{
    BbvConfig, BbvProfiler, Checkpoints, SamplePlan, SampleSpec, SampleWindow, CANCEL_CHECK_MASK,
};
use rvp_trace::TraceStore;
use rvp_uarch::SimError;

use crate::journal::{checksummed, verified};
use crate::memo::Memo;

/// Content key for a sampling plan, or for the windows cut from one
/// program's committed stream: everything either is a function of,
/// hashed. The program hash covers the workload, input and scale factor
/// — and, in a window key, any register reallocation; the resolved
/// interval/warmup cover the auto knobs.
pub(crate) fn sample_key(
    workload: &str,
    budget: u64,
    program_hash: u64,
    interval: u64,
    warmup: u64,
    spec: &SampleSpec,
) -> u64 {
    let key = format!(
        "{workload}|{budget}|{program_hash:016x}|{interval}|{warmup}|{}",
        spec.fingerprint_component()
    );
    rvp_trace::fnv1a(key.as_bytes())
}

/// Thread-safe memos of sampling plans and extracted windows, shared by
/// clones of a [`crate::Runner`] exactly like its profile and trace
/// caches: grid threads racing on the same workload profile it once
/// while different workloads proceed in parallel. Neither memo is
/// bounded: every window set stays resident for the process's (or the
/// daemon's) lifetime.
#[derive(Clone, Default, Debug)]
pub struct SamplingCaches {
    plans: Memo<u64, Arc<SamplePlan>>,
    windows: Memo<u64, Arc<Vec<SampleWindow>>>,
}

impl SamplingCaches {
    /// The plan for `key`, from (in order) the in-memory memo, the
    /// trace store's persisted plans, or `build`. A freshly built plan
    /// is persisted best-effort — a read-only or full store slows the
    /// next sweep down but never fails this one.
    pub(crate) fn plan(
        &self,
        key: u64,
        store: Option<&TraceStore>,
        build: impl FnOnce() -> Result<SamplePlan, SimError>,
    ) -> Result<Arc<SamplePlan>, SimError> {
        self.plans.get_or_try_init(key, || {
            if let Some(plan) = store.and_then(|s| load_plan(s, key)) {
                return Ok(Arc::new(plan));
            }
            let plan = build()?;
            if let Some(s) = store {
                store_plan(s, key, &plan);
            }
            Ok(Arc::new(plan))
        })
    }

    /// The extracted windows for `key`, memoized like [`Self::plan`].
    /// A window set holds `k × (warmup + interval)` records in columns
    /// at 30 B each — a few MB at the default budgets, about 120 MB at
    /// the paper-scale defaults — worth sharing across every scheme cell
    /// whose committed stream they carry, not worth persisting
    /// (re-extraction is at most one streaming emulation pass).
    pub(crate) fn windows(
        &self,
        key: u64,
        extract: impl FnOnce() -> Result<Vec<SampleWindow>, SimError>,
    ) -> Result<Arc<Vec<SampleWindow>>, SimError> {
        self.windows.get_or_try_init(key, || extract().map(Arc::new))
    }

    /// Number of cached plans.
    pub fn plans_len(&self) -> usize {
        self.plans.len()
    }

    /// Number of cached window sets.
    pub fn windows_len(&self) -> usize {
        self.windows.len()
    }
}

/// The persisted plan `key`, if its file verifies against its checksum
/// and parses; anything else is a miss, so a damaged or edited plan is
/// rebuilt (and overwritten) rather than trusted.
fn load_plan(store: &TraceStore, key: u64) -> Option<SamplePlan> {
    let text = store.read_plan(key).ok()?;
    let plan = verified(&text).and_then(|text| Json::parse(text).ok());
    match plan.as_ref().map(SamplePlan::from_json) {
        Some(Ok(plan)) => Some(plan),
        _ => {
            log::warn(
                "rvp_core::sampling",
                "stored sampling plan fails its checksum or does not parse; rebuilding",
                &[("path", store.plan_path(key).display().to_string().into())],
            );
            None
        }
    }
}

fn store_plan(store: &TraceStore, key: u64, plan: &SamplePlan) {
    if let Err(e) = store.store_plan(key, &checksummed(&plan.to_json().to_string())) {
        log::warn(
            "rvp_core::sampling",
            "failed to persist sampling plan; it will be rebuilt next sweep",
            &[
                ("path", store.plan_path(key).display().to_string().into()),
                ("error", e.to_string().into()),
            ],
        );
    }
}

/// One full pipeline run up to the plan: stream the committed
/// instructions through the BBV profiler ([`sample.profile`] span),
/// keeping emulator [`Checkpoints`] on interval boundaries as it goes,
/// then cluster ([`sample.cluster`] span inside [`SamplePlan::build`]).
/// The profiler reads only `pc` and `next_pc`, so `program` may be the
/// base program of any marked or reallocated variant; the checkpoints,
/// though, resume `program`'s own stream only.
pub(crate) fn build_plan<'p>(
    workload: &'static str,
    program: &'p Program,
    budget: u64,
    interval: u64,
    warmup: u64,
    spec: &SampleSpec,
    cancel: Option<&rvp_obs::CancelToken>,
) -> Result<(SamplePlan, Checkpoints<'p>), SimError> {
    let mut checkpoints = Checkpoints::for_pass(program, budget, interval);
    let profile = {
        let _span = rvp_obs::span!("sample.profile", { workload, budget, interval });
        let cfg = BbvConfig { interval_insts: interval, dims: spec.dims, seed: spec.seed };
        let mut prof = BbvProfiler::new(program.len(), cfg);
        let mut emu = Emulator::new(program);
        let mut seen = 0u64;
        while seen < budget {
            if seen & CANCEL_CHECK_MASK == 0 {
                if let Some(reason) = cancel.and_then(rvp_obs::CancelToken::poll) {
                    return Err(SimError::Cancelled { cycle: 0, committed: seen, reason });
                }
            }
            checkpoints.observe(&emu);
            match emu.step().map_err(SimError::Emu)? {
                Some(rec) => {
                    prof.observe(rec.pc, rec.next_pc);
                    seen += 1;
                }
                None => break,
            }
        }
        prof.finish()
    };
    Ok((SamplePlan::build(&profile, spec, warmup), checkpoints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rvp_workloads::Input;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The plan loader on arbitrary file bytes: it never panics, and
        /// bytes that do not verify against their checksum are a miss.
        /// Half the cases are wrapped as checksummed records, so they
        /// verify and reach the JSON and plan parsers.
        #[test]
        fn plan_loader_never_panics_and_unverified_bytes_miss(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
            wrap in any::<bool>(),
        ) {
            let bytes = match wrap {
                true => checksummed(&String::from_utf8_lossy(&bytes)).into_bytes(),
                false => bytes,
            };
            let dir = std::env::temp_dir()
                .join(format!("rvp-plan-fuzz-{}", std::process::id()));
            let store = TraceStore::new(&dir).unwrap();
            std::fs::create_dir_all(dir.join("plans")).unwrap();
            std::fs::write(store.plan_path(7), &bytes).unwrap();
            let plan = load_plan(&store, 7);
            let _ = std::fs::remove_dir_all(&dir);
            if std::str::from_utf8(&bytes).ok().and_then(verified).is_none() {
                prop_assert!(plan.is_none());
            }
        }
    }

    /// Windows cut from the BBV pass's checkpoints are the windows a
    /// single forward pass cuts, record for record, at the `grid-sampled`
    /// configuration: every workload at scale 4, a 2.5M budget and
    /// `max_k=4`.
    #[test]
    fn windows_from_checkpoints_match_a_forward_pass() {
        let budget = 2_500_000;
        let spec = SampleSpec { max_k: 4, ..SampleSpec::default() };
        let (interval, warmup) = spec.resolve(budget);
        for wl in rvp_workloads::all() {
            let name = wl.name();
            let program = wl.program_scaled(Input::Ref, 4);
            let (plan, checkpoints) =
                build_plan(name, &program, budget, interval, warmup, &spec, None).unwrap();
            let got = checkpoints.cut(&plan, None).unwrap();
            let want = Checkpoints::initial(&program).cut(&plan, None).unwrap();
            assert_eq!(got.len(), want.len(), "{name}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.index, g.start, g.cluster), (w.index, w.start, w.cluster), "{name}");
                assert_eq!(g.weight.to_bits(), w.weight.to_bits(), "{name}");
                assert!(g.warmup.records().eq(w.warmup.records()), "{name}: warmup records differ");
                let warmup_start = g.start - g.warmup.len() as u64;
                assert_eq!(g.warmup.first_seq(), warmup_start, "{name}: warmup keeps its seqs");
                assert!(
                    g.detail.records().eq(w.detail.records()),
                    "{name}: detail records of window {} differ",
                    g.index
                );
            }
        }
    }

    /// A window set holds every record it replays in columns, warmup
    /// and detail alike, at 30 bytes a record: li at the `grid-sampled`
    /// configuration (scale 4, a 2.5M budget, `max_k=4`).
    #[test]
    fn a_window_set_costs_at_most_30_bytes_per_record() {
        let budget = 2_500_000;
        let spec = SampleSpec { max_k: 4, ..SampleSpec::default() };
        let (interval, warmup) = spec.resolve(budget);
        let program = rvp_workloads::by_name("li").unwrap().program_scaled(Input::Ref, 4);
        let (plan, checkpoints) =
            build_plan("li", &program, budget, interval, warmup, &spec, None).unwrap();
        let windows = checkpoints.cut(&plan, None).unwrap();
        let records: u64 = windows.iter().map(|w| (w.warmup.len() + w.detail.len()) as u64).sum();
        let bytes: u64 =
            windows.iter().map(|w| w.warmup.approx_bytes() + w.detail.approx_bytes()).sum();
        assert_eq!(records, plan.replayed_insts(), "every replayed record is held once per window");
        assert!(records > 0);
        assert!(bytes <= 30 * records, "{bytes} bytes for {records} records");
    }
}
