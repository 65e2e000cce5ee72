//! Stored traces replay what the emulator commits. A train profile
//! collected from a stored train trace must equal the one collected
//! over the emulator, and a stored ref trace must decode to the
//! emulator's records: tools that store a stream with
//! `TraceStore::capture` and read it back with `TraceStore::open`
//! measure the same program the runner emulates.

use rvp_core::{
    by_name, Committed, CommittedSource, EmuSource, Input, Profile, ProfileConfig, TraceInput,
    TraceMeta, TraceStore,
};

#[test]
fn stored_traces_replay_the_emulated_profile_and_records() {
    let dir = std::env::temp_dir().join(format!("rvp-trace-replay-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::new(&dir).unwrap();
    let wl = by_name("li").unwrap();

    let train = wl.program(Input::Train);
    let cfg = ProfileConfig { max_insts: 250_000, min_execs: 32 };
    let meta = TraceMeta::for_program(wl.name(), TraceInput::Train, cfg.max_insts, &train);
    store.capture(&train, &meta).unwrap();
    let replayed = Profile::collect_stream(&train, &cfg, store.open(&meta).unwrap()).unwrap();
    let emulated = Profile::collect(&train, &cfg).unwrap();
    assert!(emulated == replayed, "replayed train profile differs from the emulated one");

    let program = wl.program(Input::Ref);
    let budget = 50_000;
    let meta = TraceMeta::for_program(wl.name(), TraceInput::Ref, budget, &program);
    store.capture(&program, &meta).unwrap();
    let stored: Vec<Committed> = store.open(&meta).unwrap().map(Result::unwrap).collect();
    let mut live = EmuSource::new(&program);
    let mut want = Vec::new();
    while (want.len() as u64) < budget {
        match live.next_record().unwrap() {
            Some(record) => want.push(record),
            None => break,
        }
    }
    assert_eq!(stored, want);

    let _ = std::fs::remove_dir_all(&dir);
}
