//! Round-trip and corruption tests for the on-disk trace format.
//!
//! The round-trip property drives synthetic committed streams through
//! `TraceWriter`/`TraceReader` over an in-memory cursor; the capture
//! tests run the real emulator. The corruption tests damage files on
//! disk — truncation, payload bit-flips, version skew, interrupted
//! captures, program-hash skew — and assert both the precise
//! `TraceError` and that `TraceStore::read_or_capture` silently
//! re-captures instead of surfacing the damage, whether the damage is
//! found at open or mid-read.

use std::io::Cursor;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rvp_emu::{Committed, Emulator, STACK_TOP};
use rvp_isa::analysis::abi;
use rvp_isa::{Program, ProgramBuilder, Reg, NUM_REGS};
use rvp_trace::{
    capture, StoreReader, TraceError, TraceInput, TraceMeta, TraceReader, TraceStore, TraceWriter,
    FORMAT_VERSION, FRAME_RECORDS,
};

/// A scratch directory unique to one test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("rvp-trace-test-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A program exercising every record shape — loads, stores, taken and
/// not-taken branches — long enough to span several frames.
fn looping_program(outer_iters: i64) -> Program {
    let (p, v, acc, n, outer) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4), Reg::int(5));
    let mut b = ProgramBuilder::new();
    b.data(0x1000, &[7, 11, 13, 17, 19, 23, 29, 31]);
    b.li(acc, 0).li(outer, outer_iters);
    b.label("outer");
    b.li(p, 0x1000).li(n, 8);
    b.label("inner");
    b.ld(v, p, 0);
    b.add(acc, acc, v);
    b.st(acc, p, 0);
    b.addi(p, p, 8);
    b.subi(n, n, 1);
    b.bnez(n, "inner");
    b.subi(outer, outer, 1);
    b.bnez(outer, "outer");
    b.halt();
    b.build().expect("valid program")
}

fn meta_for(program: &Program, budget: u64) -> TraceMeta {
    TraceMeta::for_program("looper", TraceInput::Train, budget, program)
}

/// The emulator's committed stream, bounded by `budget`.
fn emulated_stream(program: &Program, budget: u64) -> Vec<Committed> {
    let mut emu = Emulator::new(program);
    let mut out = Vec::new();
    while (out.len() as u64) < budget {
        match emu.step().expect("emulation") {
            Some(c) => out.push(c),
            None => break,
        }
    }
    out
}

fn replayed_stream(reader: impl Iterator<Item = Result<Committed, TraceError>>) -> Vec<Committed> {
    reader.map(|r| r.expect("decode")).collect()
}

/// A [`TraceStore::read_or_capture`] reader that decodes every record.
fn read_all(reader: StoreReader) -> Result<Vec<Committed>, TraceError> {
    reader.collect()
}

#[test]
fn capture_replay_reproduces_committed_stream() {
    let dir = TempDir::new("roundtrip");
    let program = looping_program(300);
    let budget = 1 << 20;
    let want = emulated_stream(&program, budget);
    assert!(
        want.len() > 3 * FRAME_RECORDS,
        "program too short ({} records) to span several frames",
        want.len()
    );

    let meta = meta_for(&program, budget);
    let path = dir.path().join("trace.rvpt");
    let captured = capture(&program, &meta, &path).expect("capture");
    assert_eq!(captured, want.len() as u64);

    let reader = TraceReader::open(&path).expect("open");
    assert_eq!(reader.meta(), &meta);
    assert_eq!(reader.record_count(), want.len() as u64);
    assert_eq!(replayed_stream(reader), want);
}

#[test]
fn capture_respects_budget_mid_frame() {
    let dir = TempDir::new("budget");
    let program = looping_program(300);
    // Deliberately not a multiple of the frame size.
    let budget = FRAME_RECORDS as u64 + 123;
    let want = emulated_stream(&program, budget);
    assert_eq!(want.len() as u64, budget);

    let meta = meta_for(&program, budget);
    let path = dir.path().join("trace.rvpt");
    assert_eq!(capture(&program, &meta, &path).expect("capture"), budget);
    assert_eq!(replayed_stream(TraceReader::open(&path).expect("open")), want);
}

/// Expands generated `(dst_selector, value, pc, misc)` tuples into a
/// committed stream consistent with the codec's shadow-register
/// reconstruction: `old_value` is whatever the destination last held.
fn build_records(specs: &[(u8, u64, u32, u8)]) -> Vec<Committed> {
    let mut shadow = [0u64; NUM_REGS];
    shadow[abi::SP.index()] = STACK_TOP;
    specs
        .iter()
        .enumerate()
        .map(|(seq, &(dsel, value, pc, misc))| {
            let pc = pc as usize >> 12; // keep pcs small-ish, like real programs
            let dst = (dsel % 4 != 0).then(|| Reg::from_index(dsel as usize % NUM_REGS));
            let (old_value, new_value) = match dst {
                Some(d) => {
                    let old = shadow[d.index()];
                    // Same-value writes must be common enough to cover
                    // the FLAG_SAME_VALUE path.
                    let new = if misc & 1 != 0 { old } else { value };
                    shadow[d.index()] = new;
                    (old, new)
                }
                None => (0, 0),
            };
            let eff_addr = (misc & 2 != 0).then_some(value ^ 0x1234);
            let taken = match misc & 0b1100 {
                0b0000 => None,
                0b0100 => Some(false),
                _ => Some(true),
            };
            let next_pc = if misc & 16 != 0 { pc + 1 } else { value as usize & 0xffff };
            Committed { seq: seq as u64, pc, next_pc, dst, old_value, new_value, eff_addr, taken }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn writer_reader_round_trip(
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u32>(), any::<u8>()),
            0..6000,
        ),
    ) {
        let records = build_records(&specs);
        let meta = TraceMeta {
            workload: "synthetic".into(),
            input: TraceInput::Ref,
            budget: records.len() as u64,
            program_len: 1 << 16,
            program_hash: 0x5eed,
        };
        let mut file = Cursor::new(Vec::new());
        let mut writer = TraceWriter::new(&mut file, &meta).expect("writer");
        for r in &records {
            writer.append(r).expect("append");
        }
        prop_assert_eq!(writer.finish().expect("finish"), records.len() as u64);

        file.set_position(0);
        let reader = TraceReader::new(file).expect("reader");
        prop_assert_eq!(reader.meta(), &meta);
        let got = replayed_stream(reader);
        prop_assert_eq!(got, records);
    }
}

#[test]
fn truncated_file_is_detected() {
    let dir = TempDir::new("truncated");
    let program = looping_program(300);
    let meta = meta_for(&program, 1 << 20);
    let path = dir.path().join("trace.rvpt");
    capture(&program, &meta, &path).expect("capture");

    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");

    let reader = TraceReader::open(&path).expect("header is intact");
    let last = reader.last().expect("at least one item");
    assert!(matches!(last, Err(TraceError::Truncated)), "got {last:?}");
}

#[test]
fn corrupt_payload_is_detected_and_leaks_no_records() {
    let dir = TempDir::new("checksum");
    let program = looping_program(300);
    let meta = meta_for(&program, 1 << 20);
    let path = dir.path().join("trace.rvpt");
    capture(&program, &meta, &path).expect("capture");

    // Flip a byte inside the *first* frame's payload: past the fixed
    // header (18 bytes), meta and its checksum, the frame's two varint
    // prefixes and 8-byte checksum.
    let mut bytes = std::fs::read(&path).expect("read");
    let meta_len = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
    let first_payload = 18 + meta_len + 8 + 16;
    bytes[first_payload + 32] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted");

    let mut reader = TraceReader::open(&path).expect("header is intact");
    let first = reader.next().expect("one item");
    assert!(matches!(first, Err(TraceError::ChecksumMismatch { frame: 0 })), "got {first:?}");
    // The iterator fuses: no record of the damaged frame escapes.
    assert!(reader.next().is_none());
}

#[test]
fn version_skew_is_rejected() {
    let dir = TempDir::new("version");
    let program = looping_program(10);
    let meta = meta_for(&program, 1 << 20);
    let path = dir.path().join("trace.rvpt");
    capture(&program, &meta, &path).expect("capture");

    let mut bytes = std::fs::read(&path).expect("read");
    bytes[4] = bytes[4].wrapping_add(1);
    std::fs::write(&path, &bytes).expect("write skewed");

    match TraceReader::open(&path) {
        Err(TraceError::Version { found, expected }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(expected, FORMAT_VERSION);
        }
        Err(other) => panic!("expected version error, got {other:?}"),
        Ok(_) => panic!("expected version error, got a reader"),
    }
}

#[test]
fn interrupted_capture_is_rejected() {
    let dir = TempDir::new("unfinished");
    let program = looping_program(10);
    let meta = meta_for(&program, 1 << 20);
    let path = dir.path().join("trace.rvpt");

    let mut writer = TraceWriter::create(&path, &meta).expect("writer");
    for c in emulated_stream(&program, 100) {
        writer.append(&c).expect("append");
    }
    // Dropped without finish(): the record count keeps its sentinel.
    drop(writer);

    assert!(matches!(TraceReader::open(&path), Err(TraceError::Unfinished)));
}

#[test]
fn store_falls_back_on_version_skew() {
    let dir = TempDir::new("store-version");
    let store = TraceStore::new(dir.path()).expect("store");
    let program = looping_program(50);
    let meta = meta_for(&program, 1 << 20);
    store.capture(&program, &meta).expect("capture");

    let path = store.path_for(&meta);
    let mut bytes = std::fs::read(&path).expect("read");
    bytes[4] = bytes[4].wrapping_add(1);
    std::fs::write(&path, &bytes).expect("write skewed");
    assert!(matches!(store.open(&meta), Err(TraceError::Version { .. })));

    // The graceful-fallback path re-captures and serves a valid trace.
    let stream = store.read_or_capture(&program, &meta, read_all).expect("fallback");
    assert_eq!(stream, emulated_stream(&program, 1 << 20));
    assert_eq!(store.counters().fallbacks(), 1);
    assert_eq!(store.counters().captures(), 1);

    // And the replacement is a plain hit next time.
    store.read_or_capture(&program, &meta, read_all).expect("hit");
    assert_eq!(store.counters().hits(), 1);
    assert_eq!(store.counters().fallbacks(), 1);
}

#[test]
fn store_falls_back_on_header_truncation() {
    let dir = TempDir::new("store-truncated");
    let store = TraceStore::new(dir.path()).expect("store");
    let program = looping_program(50);
    let meta = meta_for(&program, 1 << 20);
    store.capture(&program, &meta).expect("capture");

    let path = store.path_for(&meta);
    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..10]).expect("truncate into header");
    assert!(matches!(store.open(&meta), Err(TraceError::HeaderCorrupt)));

    let count = store.read_or_capture(&program, &meta, |r| Ok(r.record_count())).expect("fallback");
    assert_eq!(count, emulated_stream(&program, 1 << 20).len() as u64);
    assert_eq!(store.counters().fallbacks(), 1);
}

#[test]
fn store_falls_back_on_program_hash_skew() {
    let dir = TempDir::new("store-hash");
    let store = TraceStore::new(dir.path()).expect("store");
    let old_program = looping_program(50);
    let new_program = looping_program(60); // same shape, different constants
    let budget = 1 << 20;
    let old_meta = meta_for(&old_program, budget);
    store.capture(&old_program, &old_meta).expect("capture old");

    // Same (workload, input, budget) key. File names carry the program
    // hash, so force the collision a foreign file would cause (a cache
    // copied in by hand): the stored program hash must still force a
    // re-capture.
    let meta = meta_for(&new_program, budget);
    std::fs::rename(store.path_for(&old_meta), store.path_for(&meta)).expect("collide");
    assert!(matches!(store.open(&meta), Err(TraceError::MetaMismatch { field: "program_hash" })));
    let hash = store.read_or_capture(&new_program, &meta, |r| Ok(r.meta().program_hash));
    assert_eq!(hash.expect("fallback"), meta.program_hash);
    let stream = store.read_or_capture(&new_program, &meta, read_all).expect("hit");
    assert_eq!(stream, emulated_stream(&new_program, budget));
    assert_eq!(store.counters().fallbacks(), 1);
}

/// Chaos tests reconfigure the process-global failpoint schedule, so
/// they must not interleave; the `thread=` filters additionally keep
/// them from cross-firing into the other tests of this binary.
static CHAOS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    CHAOS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn interrupted_store_write_leaves_no_partial_file() {
    let _guard = chaos_guard();
    let dir = TempDir::new("interrupted-write");
    let store = TraceStore::new(dir.path()).expect("store");
    let program = looping_program(300);
    let meta = meta_for(&program, 1 << 20);

    // Fail the first frame flush of this thread only: the capture dies
    // mid-file exactly as a full disk would kill it.
    rvp_fail::configure("seed=7;trace.writer.frame=io,thread=interrupted_store_write")
        .expect("valid spec");
    let result = store.capture(&program, &meta);
    rvp_fail::disable();
    assert!(matches!(result, Err(TraceError::Io(_))), "got {result:?}");

    // Neither a half-written trace nor a stray temp file survives.
    let leftovers: Vec<String> = std::fs::read_dir(dir.path())
        .expect("read dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(leftovers.is_empty(), "leftover files: {leftovers:?}");

    // The store still works once the fault clears.
    store.capture(&program, &meta).expect("clean capture");
    store.open(&meta).expect("replayable");
}

#[test]
fn corrupt_cached_trace_is_quarantined() {
    let _guard = chaos_guard();
    let dir = TempDir::new("quarantine");
    let store = TraceStore::new(dir.path()).expect("store");
    let program = looping_program(50);
    let meta = meta_for(&program, 1 << 20);
    store.capture(&program, &meta).expect("capture");

    // Truncate into the header: the next open rejects the file, moves
    // it into the quarantine directory and re-captures.
    let path = store.path_for(&meta);
    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..10]).expect("truncate into header");

    let stream = store.read_or_capture(&program, &meta, read_all).expect("fallback");
    assert_eq!(stream, emulated_stream(&program, 1 << 20));
    assert_eq!(store.counters().quarantined(), 1);
    assert_eq!(store.counters().fallbacks(), 1);

    let qdir = dir.path().join(rvp_trace::QUARANTINE_SUBDIR);
    let quarantined = std::fs::read_dir(&qdir).expect("quarantine dir exists").count();
    assert_eq!(quarantined, 1, "the corrupt bytes are preserved for inspection");
    // The rejected bytes can never be re-read from the cache path: the
    // recapture replaced the file wholesale.
    let fresh = std::fs::read(&path).expect("recaptured file");
    assert!(fresh.len() > 10);
}

#[test]
fn trace_failing_mid_read_is_quarantined_and_read_once_more() {
    let dir = TempDir::new("mid-read");
    let store = TraceStore::new(dir.path()).expect("store");
    let program = looping_program(300);
    let meta = meta_for(&program, 1 << 20);
    store.capture(&program, &meta).expect("capture");

    // Cut the file mid-frame: it still opens, and fails while decoding.
    let path = store.path_for(&meta);
    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).expect("truncate mid-stream");
    store.open(&meta).expect("the damage is past the header");

    let stream = store.read_or_capture(&program, &meta, read_all).expect("fallback");
    assert_eq!(stream, emulated_stream(&program, 1 << 20));
    let c = store.counters();
    assert_eq!((c.hits(), c.captures(), c.fallbacks(), c.quarantined()), (0, 1, 1, 1));
    assert_eq!(std::fs::read(&path).expect("recaptured"), bytes);

    // A reader that fails on the fresh capture too gets its error back
    // after exactly one more read; the caller decides what comes next.
    let mut reads = 0;
    let failed = store.read_or_capture(&program, &meta, |_| -> Result<(), TraceError> {
        reads += 1;
        Err(TraceError::Unfinished)
    });
    assert!(matches!(failed, Err(TraceError::Unfinished)), "got {failed:?}");
    assert_eq!(reads, 2);
    assert_eq!(store.counters().quarantined(), 2);
}

#[test]
fn concurrent_store_startups_tolerate_each_others_sweep() {
    // The serve daemon opens the store while grid runs may be starting
    // on the same directory: every startup sweeps stale temp files, so
    // a candidate can vanish between one sweeper's directory listing
    // and its unlink. Every startup must succeed regardless of who wins
    // each race, and all stale files must be gone afterwards.
    let dir = TempDir::new("concurrent-sweep");
    for round in 0..8 {
        for i in 0..64 {
            // A pid no live process on this machine plausibly owns.
            let fake_pid = 4_000_000 + i;
            let name = format!("wl-ref-{round}-{i}.rvpt.tmp.{fake_pid}");
            std::fs::write(dir.path().join(name), b"stale capture junk").expect("plant stale tmp");
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..8).map(|_| scope.spawn(|| TraceStore::new(dir.path()).map(drop))).collect();
            for h in handles {
                h.join().expect("no panic").expect("every concurrent startup succeeds");
            }
        });
        let leftovers: Vec<String> = std::fs::read_dir(dir.path())
            .expect("read dir")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stale temp files must be swept: {leftovers:?}");
    }
}

#[test]
fn programs_of_one_workload_at_two_scales_keep_separate_traces() {
    // A scaled and an unscaled sweep of one workload and budget used to
    // share one file name: each rejected, quarantined and re-captured
    // the other's trace on every alternation.
    let dir = TempDir::new("two-scales");
    let store = TraceStore::new(dir.path()).expect("store");
    let budget = 1 << 20;
    let programs = [looping_program(50), looping_program(100)];
    for program in &programs {
        store.capture(program, &meta_for(program, budget)).expect("capture");
    }
    for program in &programs {
        let stream = store.read_or_capture(program, &meta_for(program, budget), read_all);
        assert_eq!(stream.expect("hit"), emulated_stream(program, budget));
    }
    let counters = store.counters();
    assert_eq!((counters.hits(), counters.fallbacks(), counters.quarantined()), (2, 0, 0));
    assert!(!store.quarantine_dir().exists());
}

#[test]
fn concurrent_captures_of_one_trace_publish_one_complete_file() {
    let _guard = chaos_guard();
    let dir = TempDir::new("concurrent-capture");
    let store = TraceStore::new(dir.path()).expect("store");
    let program = looping_program(2000);
    let meta = meta_for(&program, 1 << 20);
    let temps = || -> usize {
        let entries = std::fs::read_dir(dir.path()).expect("read dir").filter_map(Result::ok);
        entries.filter(|e| e.file_name().to_string_lossy().contains(".tmp.")).count()
    };
    // Slow every frame write of the capture threads, so their temp
    // files stay in flight while another store opens the directory.
    rvp_fail::configure("seed=1;trace.writer.frame=delay5,thread=concurrent-capture")
        .expect("valid spec");
    let reopened_in_flight = std::thread::scope(|scope| {
        let captures: Vec<_> = (0..4)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("concurrent-capture-{i}"))
                    .spawn_scoped(scope, || store.capture(&program, &meta))
                    .expect("spawn")
            })
            .collect();
        // Opening a store sweeps stale temp files, but must spare the
        // temps of this process: their captures are in flight.
        while temps() == 0 {
            std::thread::yield_now();
        }
        TraceStore::new(dir.path()).expect("open during captures");
        let in_flight = temps();
        for capture in captures {
            capture.join().expect("no panic").expect("every capture succeeds");
        }
        in_flight
    });
    rvp_fail::disable();
    assert!(reopened_in_flight > 0, "the reopen raced no capture");
    let reader = store.open(&meta).expect("the published trace decodes");
    assert_eq!(replayed_stream(reader), emulated_stream(&program, 1 << 20));
    let names: Vec<String> = std::fs::read_dir(dir.path())
        .expect("read dir")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, vec![store.path_for(&meta).file_name().unwrap().to_string_lossy()]);
}
