//! Integration tests spanning every crate: workloads -> emulator ->
//! profiler -> reallocation -> timing simulation.

use rvp_core::{
    reallocate, Emulator, Input, Profile, ProfileConfig, ReallocOptions, Runner, SchemeSpec,
};

fn quick_runner() -> Runner {
    Runner { profile_insts: 200_000, measure_insts: 100_000, ..Runner::default() }
}

/// The committed-instruction count is an architectural property: no
/// prediction scheme or recovery model may change it.
#[test]
fn schemes_never_change_architectural_behaviour() {
    let r = quick_runner();
    for name in ["li", "mgrid"] {
        let wl = rvp_core::by_name(name).unwrap();
        let base = r.run(&wl, &SchemeSpec::parse("no_predict").unwrap()).unwrap();
        for label in [
            "lvp",
            "lvp_all",
            "srvp_dead",
            "drvp_all",
            "drvp_all_dead_lv",
            "Grp_all",
            "drvp_all_realloc",
        ] {
            let res = r.run(&wl, &SchemeSpec::parse(label).unwrap()).unwrap();
            assert_eq!(
                res.stats.committed, base.stats.committed,
                "{name}/{label} changed the committed count"
            );
        }
    }
}

/// Store-stream equivalence: register reallocation may change register
/// names only — every memory write must be identical.
#[test]
fn reallocation_preserves_the_store_stream() {
    for wl in rvp_core::all_workloads() {
        let program = wl.program(Input::Train);
        let profile =
            Profile::collect(&program, &ProfileConfig { max_insts: 150_000, min_execs: 32 })
                .unwrap();
        let transformed = reallocate(&program, &profile, &ReallocOptions::default()).program;

        let stores = |p: &rvp_core::Program| -> Vec<(u64, u64)> {
            let mut emu = Emulator::new(p);
            let mut out = Vec::new();
            let mut n = 0u64;
            while let Some(c) = emu.step().unwrap() {
                if let Some(addr) = c.eff_addr {
                    if p.insts()[c.pc].is_store() {
                        out.push((addr, emu.memory().read_u64(addr & !7)));
                    }
                }
                n += 1;
                if n > 400_000 {
                    break;
                }
            }
            out
        };
        assert_eq!(
            stores(&program),
            stores(&transformed),
            "{}: reallocation changed a store",
            wl.name()
        );
    }
}

/// Figure 1's categories are cumulative by construction; verify on every
/// workload.
#[test]
fn fig1_categories_are_cumulative_everywhere() {
    let r = quick_runner();
    for wl in rvp_core::all_workloads() {
        let row = r.fig1(&wl).unwrap();
        let [same, dead, any, lvp] = row.fractions();
        assert!(same <= dead && dead <= any && any <= lvp && lvp <= 1.0, "{}", wl.name());
        assert!(row.loads > 1_000, "{} barely loads", wl.name());
    }
}

/// Static marking writes `rvp_` opcodes into the program text.
#[test]
fn static_marking_is_visible_in_the_disassembly() {
    let wl = rvp_core::by_name("m88ksim").unwrap();
    let train = wl.program(Input::Train);
    let profile =
        Profile::collect(&train, &ProfileConfig { max_insts: 150_000, min_execs: 32 }).unwrap();
    let plan = profile.static_plan(&train, 0.8, rvp_core::SrvpLevel::Dead);
    assert!(!plan.is_empty(), "m88ksim must have static candidates");
    let marked =
        train.map_insts(|pc, i| if plan.contains(pc) { i.clone().with_rvp() } else { i.clone() });
    assert!(marked.disassemble().contains("rvp_ld"));
}

/// Every workload round-trips through the textual assembler: parse(to_asm)
/// reproduces the instructions, data, procedures and entry point exactly.
#[test]
fn workloads_round_trip_through_the_assembler() {
    for wl in rvp_core::all_workloads() {
        let p1 = wl.program(Input::Train);
        let text = p1.to_asm();
        let p2 = rvp_core::parse_asm(&text).unwrap_or_else(|e| panic!("{}: {e}", wl.name()));
        assert_eq!(p1.insts(), p2.insts(), "{}", wl.name());
        assert_eq!(p1.data(), p2.data(), "{}", wl.name());
        assert_eq!(p1.entry(), p2.entry(), "{}", wl.name());
        assert_eq!(p1.procedures(), p2.procedures(), "{}", wl.name());
    }
}

/// Profiles transfer across inputs: the train-derived plan must keep its
/// accuracy on ref (the paper's cross-input methodology).
#[test]
fn train_profile_predicts_ref_behaviour() {
    let r = quick_runner();
    for name in ["m88ksim", "hydro2d", "turb3d"] {
        let wl = rvp_core::by_name(name).unwrap();
        let res = r.run(&wl, &SchemeSpec::parse("drvp_all_dead_lv").unwrap()).unwrap();
        assert!(
            res.stats.accuracy() > 0.85,
            "{name}: train-derived plan only {:.1}% accurate on ref",
            100.0 * res.stats.accuracy()
        );
    }
}
