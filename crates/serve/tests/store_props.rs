//! Property tests for the two parsers of the daemon's state directory:
//! the job journal's log (`Log::replay`) and the cell store's entries
//! (`ResultCache::get`). Both read bytes a crash, a full disk or a hand
//! edit may have mangled. The invariants under fuzz: never panic, and a
//! record whose bytes do not verify against their checksum is a miss —
//! dropped from the log, or re-simulated instead of served.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rvp_core::{checksummed, journal_line, verified, Json, Log};
use rvp_serve::ResultCache;

/// A scratch directory unique to one test case, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rvp-store-props-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes with no newline, so each one stays a single line of a log.
fn junk() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..96)
        .prop_map(|bytes| bytes.into_iter().map(|b| if b == b'\n' { b'x' } else { b }).collect())
}

/// One log line: a verifiable record, a torn one, a record with a
/// flipped payload byte, or junk.
#[derive(Debug, Clone)]
enum Line {
    Record(u64),
    Torn(u64),
    Flipped(u64),
    Junk(Vec<u8>),
}

fn line() -> impl Strategy<Value = Line> {
    prop_oneof![
        any::<u64>().prop_map(Line::Record),
        any::<u64>().prop_map(Line::Torn),
        any::<u64>().prop_map(Line::Flipped),
        junk().prop_map(Line::Junk),
    ]
}

fn header() -> Json {
    Json::obj([("kind", "header".into()), ("version", 1u64.into())])
}

fn record(n: u64) -> Json {
    Json::obj([("n", n.into())])
}

impl Line {
    fn bytes(&self) -> Vec<u8> {
        let text = |n: u64| journal_line(&record(n)).trim_end().to_owned();
        match self {
            Line::Record(n) => text(*n).into_bytes(),
            Line::Torn(n) => {
                let full = text(*n);
                full.as_bytes()[..full.len() / 2].to_vec()
            }
            Line::Flipped(n) => text(*n).replacen("\"n\":", "\"m\":", 1).into_bytes(),
            Line::Junk(bytes) => bytes.clone(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Log::replay` on an arbitrary journal: a file that is not UTF-8
    /// or whose first line is not the verified header is ignored
    /// wholesale; otherwise exactly the verifiable records come back,
    /// in order.
    #[test]
    fn log_replay_keeps_exactly_the_verified_records(
        headed in any::<bool>(),
        lines in proptest::collection::vec(line(), 0..12),
    ) {
        let dir = Scratch::new("log");
        let path = dir.path().join("log.jsonl");
        let mut file = Vec::new();
        if headed {
            file.extend_from_slice(journal_line(&header()).as_bytes());
        }
        for line in &lines {
            file.extend(line.bytes());
            file.push(b'\n');
        }
        std::fs::write(&path, &file).expect("write log");

        let replayed = Log::replay(&path, &header());
        if !headed || std::str::from_utf8(&file).is_err() {
            prop_assert_eq!(replayed, None);
        } else {
            // Junk verifies by chance once in 2^64 cases: only the
            // records written whole come back.
            let want: Vec<Json> = lines
                .iter()
                .filter_map(|line| match line {
                    Line::Record(n) => Some(record(*n)),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(replayed, Some(want));
        }
    }

    /// `ResultCache::get` on an arbitrary entry file: it never panics,
    /// serves an entry only when its bytes verify — and then exactly the
    /// verified text — and deletes an entry that does not.
    #[test]
    fn cell_store_serves_only_verified_entries(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        wrap in any::<bool>(),
    ) {
        // Half the cases are checksummed, so a hit is exercised too.
        let bytes = match wrap {
            true => checksummed(&String::from_utf8_lossy(&bytes)).into_bytes(),
            false => bytes,
        };
        let dir = Scratch::new("cache");
        let cache = ResultCache::open(dir.path()).expect("open cache");
        std::fs::write(cache.path_for(7), &bytes).expect("write entry");

        let got = cache.get(7).expect("an undamaged disk reads");
        let want = std::str::from_utf8(&bytes).ok().and_then(verified);
        prop_assert_eq!(got.as_deref(), want);
        prop_assert_eq!(cache.path_for(7).exists(), want.is_some());
    }
}
