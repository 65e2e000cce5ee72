//! Committed-instruction trace capture and replay.
//!
//! Every experiment in this reproduction consumes the same
//! committed-instruction stream — the sequence of [`rvp_emu::Committed`]
//! records the functional emulator produces. This crate captures that
//! stream to a compact on-disk format and replays it. Experiments read
//! the stream from the emulator, which is faster than decoding it back;
//! the format keeps the record codec honest (round trips, corruption
//! detection) and lets a tool store a stream and read it elsewhere.
//!
//! The format (see `DESIGN.md` for the byte-level layout):
//!
//! * a versioned header keyed by *(workload, input, instruction budget,
//!   program structure hash)* so stale traces are detected, not trusted;
//! * frames of up to [`FRAME_RECORDS`] records, each with a length
//!   prefix and an FNV-1a checksum, so truncation and corruption are
//!   caught at frame granularity;
//! * delta encoding inside frames: PCs and effective addresses are
//!   zigzag-varint deltas, destination old-values are reconstructed from
//!   a replayed shadow register file and never stored, and results equal
//!   to the prior register value (the paper's entire subject!) cost zero
//!   bytes.
//!
//! [`TraceWriter`] streams records to disk; [`TraceReader`] is an
//! allocation-free iterator over them; [`TraceStore`] is a directory of
//! traces keyed by their metadata, which rejects a stale or foreign
//! file at open, and of persisted sampling plans.
//!
//! The crate also owns the workspace's durable-store layer, the lowest
//! crate every persisting layer depends on: [`write_atomic`], the
//! byte-budgeted LRU directory [`BudgetDir`] that both the trace store
//! and the serve result cache hold, and the [`evict_lru`] policy the
//! in-memory shared-trace cache reuses.
//!
//! # Examples
//!
//! ```
//! use rvp_isa::{ProgramBuilder, Reg};
//! use rvp_trace::{capture, TraceMeta, TraceReader};
//!
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::int(1), 7);
//! b.addi(Reg::int(1), Reg::int(1), 1);
//! b.halt();
//! let program = b.build().unwrap();
//!
//! let dir = std::env::temp_dir().join("rvp-trace-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("doc.rvpt");
//! let meta = TraceMeta::for_program("doc", rvp_trace::TraceInput::Train, 100, &program);
//! capture(&program, &meta, &path).unwrap();
//!
//! let recorded: Vec<_> = TraceReader::open(&path)
//!     .unwrap()
//!     .collect::<Result<Vec<_>, _>>()
//!     .unwrap();
//! assert_eq!(recorded.len(), 3);
//! assert_eq!(recorded[1].new_value, 8);
//! ```

mod durable;
mod format;
mod reader;
mod store;
mod varint;
mod writer;

pub use durable::{evict_lru, write_atomic, BudgetDir, DISK_FULL_SITE};
pub use format::{program_hash, TraceError, TraceInput, TraceMeta, FORMAT_VERSION, FRAME_RECORDS};
pub use reader::TraceReader;
pub use store::{StoreReader, TraceStore};
pub use varint::{fnv1a, Fnv1a};
pub use writer::{capture, TraceWriter};
