//! The run memo behind [`Runner::run`]: cells whose run fingerprints
//! match share one simulation, so the fingerprint must cover everything
//! a simulation reads. These tests pin both halves: sharing never
//! changes a cell's stats, and changing any one input changes the key.

use rvp_core::{
    all_workloads, by_name, paper_schemes, Input, ObsConfig, PlanSource, Profile, ProfileConfig,
    Recovery, RunMemo, Runner, SampleSpec, SchemeSpec, SourceMode, UarchConfig, Workload,
};

fn quick() -> Runner {
    Runner { profile_insts: 40_000, measure_insts: 20_000, traces: None, ..Runner::default() }
}

fn spec(label: &str) -> SchemeSpec {
    SchemeSpec::parse(label).unwrap()
}

/// Every cell of `workloads` × the paper schemes, run once through one
/// shared runner and once through a runner with a fresh memo per cell
/// (the profile, trace and sampling caches stay shared: they are not
/// under test here), must produce the same stats and plan.
fn shared_memo_matches_fresh_runs(runner: &Runner, workloads: &[Workload]) {
    let schemes = paper_schemes();
    for wl in workloads {
        for scheme in &schemes {
            let shared = runner.run(wl, scheme).unwrap();
            let fresh =
                Runner { runs: RunMemo::default(), ..runner.clone() }.run(wl, scheme).unwrap();
            let cell = format!("{}/{}/{:?}", wl.name(), scheme.label(), runner.recovery);
            assert_eq!(shared.stats, fresh.stats, "{cell}: shared run memo changed the stats");
            assert_eq!(shared.sampling, fresh.sampling, "{cell}: shared run memo changed the plan");
        }
    }
    // Some cells must have shared a simulation, or this proves nothing.
    let cells = workloads.len() * schemes.len();
    assert!(runner.runs.len() < cells, "{} simulations for {cells} cells", runner.runs.len());
}

fn check_recovery(recovery: Recovery) {
    shared_memo_matches_fresh_runs(&Runner { recovery, ..quick() }, &all_workloads());
}

#[test]
fn shared_memo_matches_fresh_runs_under_refetch() {
    check_recovery(Recovery::Refetch);
}

#[test]
fn shared_memo_matches_fresh_runs_under_reissue() {
    check_recovery(Recovery::Reissue);
}

#[test]
fn shared_memo_matches_fresh_runs_under_selective() {
    check_recovery(Recovery::Selective);
}

#[test]
fn shared_memo_matches_fresh_runs_when_sampled() {
    let runner = Runner {
        measure_insts: 40_000,
        sampling: Some(SampleSpec { interval_insts: 5_000, max_k: 3, ..SampleSpec::default() }),
        ..quick()
    };
    let workloads = [by_name("go").unwrap(), by_name("m88ksim").unwrap()];
    shared_memo_matches_fresh_runs(&runner, &workloads);
}

/// An `srvp_*` level whose static plan marks no load never consults its
/// predictor, so it keys (and simulates) exactly like `no_predict`; a
/// marking that is not empty keys differently.
#[test]
fn empty_static_marking_keys_like_no_predict() {
    let r = quick();
    let cfg = ProfileConfig { max_insts: r.profile_insts, min_execs: 32 };
    let mut empty = 0;
    for wl in all_workloads() {
        let baseline = r.run_fingerprint(&wl, &spec("no_predict")).unwrap();
        let train = r.program_for(&wl, Input::Train);
        let profile = Profile::collect(&train, &cfg).unwrap();
        for scheme in paper_schemes() {
            let PlanSource::Static(level) = scheme.info().plan else {
                continue;
            };
            let marks_nothing = profile.static_plan(&train, r.threshold, level).is_empty();
            let key = r.run_fingerprint(&wl, &scheme).unwrap();
            assert_eq!(
                key == baseline,
                marks_nothing,
                "{}/{}: key {} no_predict's, marking {}empty",
                wl.name(),
                scheme.label(),
                if key == baseline { "equals" } else { "differs from" },
                if marks_nothing { "" } else { "not " },
            );
            empty += usize::from(marks_nothing);
        }
    }
    assert!(empty > 0, "no srvp_* level marks nothing at these budgets; the test proves nothing");
}

/// Changing any one input a simulation reads changes the key.
#[test]
fn every_simulation_input_changes_the_key() {
    let wl = by_name("li").unwrap();
    let key = |r: &Runner, label: &str| r.run_fingerprint(&wl, &spec(label)).unwrap();
    let base = quick();
    let want = key(&base, "lvp_all");
    let variants = [
        ("predictor params", key(&base, "lvp_all:entries=4096")),
        ("recovery", key(&Runner { recovery: Recovery::Refetch, ..quick() }, "lvp_all")),
        ("budget", key(&Runner { measure_insts: 30_000, ..quick() }, "lvp_all")),
        ("machine", key(&Runner { config: UarchConfig::wide16(), ..quick() }, "lvp_all")),
        ("obs config", key(&Runner { obs: ObsConfig::standard(), ..quick() }, "lvp_all")),
        ("sampling", key(&Runner { sampling: Some(SampleSpec::default()), ..quick() }, "lvp_all")),
        ("scheme", key(&base, "lvp")),
    ];
    for (what, got) in variants {
        assert_ne!(got, want, "changing the {what} kept the key");
    }
    let sampled = key(&Runner { sampling: Some(SampleSpec::default()), ..quick() }, "lvp_all");
    let sampled_k3 = key(
        &Runner { sampling: Some(SampleSpec { max_k: 3, ..SampleSpec::default() }), ..quick() },
        "lvp_all",
    );
    assert_ne!(sampled, sampled_k3, "changing the sampling spec kept the key");
    // The predictor enters the key by its canonical spec, so spelling
    // out a default parameter changes nothing.
    assert_eq!(key(&base, "lvp_all:entries=1024"), want);
}

/// The source mode is left out on purpose: every source feeds the core
/// the same committed stream.
#[test]
fn source_mode_does_not_change_the_key() {
    let wl = by_name("go").unwrap();
    let scheme = spec("drvp_all_dead_lv");
    let key = |mode| Runner { source_mode: mode, ..quick() }.run_fingerprint(&wl, &scheme);
    assert_eq!(key(SourceMode::Live).unwrap(), key(SourceMode::Shared).unwrap());
}

/// The shared in-memory trace cache under a budget that holds one ref
/// trace: measuring `li`, `go`, `li` must evict, keep resident bytes
/// within the budget beyond the trace just materialized, and give
/// `li`'s re-materialized trace the same stats. Each measurement gets a
/// fresh run memo, so the cache (not the memo) serves it.
#[test]
fn shared_trace_budget_evicts_lru_and_keeps_results() {
    let scheme = spec("no_predict");
    let li = by_name("li").unwrap();
    let go = by_name("go").unwrap();
    let probe = Runner { source_mode: SourceMode::Shared, ..quick() };
    probe.run(&li, &scheme).unwrap();
    let budget = probe.shared_traces.resident_bytes();
    assert!(budget > 0, "li materialized a shared trace");

    let runner = Runner { source_mode: SourceMode::Shared, ..quick() };
    runner.shared_traces.set_budget_bytes(budget);
    let mut li_stats = Vec::new();
    for wl in [&li, &go, &li] {
        let result = Runner { runs: RunMemo::default(), ..runner.clone() }.run(wl, &scheme);
        let cache = &runner.shared_traces;
        assert!(
            cache.resident_bytes() <= budget || cache.len() == 1,
            "{}: {} resident bytes over a {budget}-byte budget in {} traces",
            wl.name(),
            cache.resident_bytes(),
            cache.len()
        );
        if wl.name() == "li" {
            li_stats.push(result.unwrap().stats);
        }
    }
    assert!(runner.shared_traces.evicted() >= 1, "the budget evicted");
    assert_eq!(li_stats[0], li_stats[1], "li's re-materialized trace changed its stats");
}
