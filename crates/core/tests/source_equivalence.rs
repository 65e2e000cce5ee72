//! The [`rvp_core::SourceMode`] contract: live emulation and the shared
//! in-memory trace must produce bit-identical `SimStats` (CPI stacks
//! included) for every paper scheme under every recovery model. One
//! test per recovery so the matrix parallelizes.

use rvp_core::{
    by_name, paper_schemes, ProfileCache, Recovery, Runner, SourceMode, SourceTally, TraceStore,
    Workload,
};

const WORKLOADS: [&str; 2] = ["li", "hydro2d"];

fn runner(
    mode: SourceMode,
    recovery: Recovery,
    store: &TraceStore,
    profiles: &ProfileCache,
) -> Runner {
    Runner {
        recovery,
        profile_insts: 40_000,
        measure_insts: 20_000,
        profiles: profiles.clone(),
        traces: Some(store.clone()),
        source_mode: mode,
        ..Runner::default()
    }
}

fn add(sum: &mut SourceTally, t: SourceTally) {
    sum.captures += t.captures;
    sum.shared_hits += t.shared_hits;
    sum.live_fallbacks += t.live_fallbacks;
}

fn check_recovery(recovery: Recovery) {
    let dir = std::env::temp_dir()
        .join(format!("rvp-source-equivalence-{recovery:?}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::new(&dir).unwrap();
    // One profile collection per workload, shared by every runner.
    let profiles = ProfileCache::default();

    for name in WORKLOADS {
        let wl: Workload = by_name(name).unwrap();
        // One runner per (scheme, source): each runner's run memo then
        // holds one cell, so every cell really runs through every
        // source instead of sharing a peer's simulation.
        let mut shared_tally = SourceTally::default();
        for scheme in &paper_schemes() {
            let live = runner(SourceMode::Live, recovery, &store, &profiles);
            let shared = runner(SourceMode::Shared, recovery, &store, &profiles);
            let want = live.run(&wl, scheme).unwrap();
            let s = shared.run(&wl, scheme).unwrap();
            assert_eq!(want.stats, s.stats, "{name}/{}/{recovery:?}: shared", scheme.label());
            assert_eq!(live.source_counters.total().shared_hits, 0);
            add(&mut shared_tally, shared.source_counters.total());
        }

        // The trace-backed runner must actually have served from
        // traces: only the register-reallocated cell may run live.
        assert_eq!(shared_tally.live_fallbacks, 1, "{name}/{recovery:?}: shared fallbacks");
        assert_eq!(
            shared_tally.shared_hits,
            paper_schemes().len() as u64 - 1,
            "{name}/{recovery:?}: shared served runs"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sources_bit_identical_under_refetch() {
    check_recovery(Recovery::Refetch);
}

#[test]
fn sources_bit_identical_under_reissue() {
    check_recovery(Recovery::Reissue);
}

#[test]
fn sources_bit_identical_under_selective() {
    check_recovery(Recovery::Selective);
}
