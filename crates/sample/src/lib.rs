//! SimPoint-style phase sampling for paper-scale simulation.
//!
//! The paper evaluates each scheme over 300M–3B committed instructions
//! per benchmark; simulating that in detail for every (workload ×
//! scheme × recovery) grid cell is days of wall clock. Program behaviour
//! is phased, though: long runs revisit a small set of steady states,
//! so simulating one *representative* interval per phase and weighting
//! the results by phase population reconstructs whole-run IPC within a
//! few percent at a small fraction of the cost (Sherwood et al.'s
//! SimPoint methodology).
//!
//! The pipeline, one module per stage:
//!
//! 1. [`bbv`] — a cheap streaming pass over the committed stream slices
//!    it into fixed-size intervals and summarizes each as a basic-block
//!    execution-frequency vector, randomly projected down to ~16
//!    dimensions so clustering cost is independent of program size.
//! 2. [`kmeans`] — seeded, fully deterministic k-means++ over the
//!    projected vectors with a BIC-guided choice of k; one
//!    representative interval per cluster, weighted by how many
//!    instructions its cluster covers.
//! 3. [`windows`] — the representative intervals (plus a
//!    functional-warmup prefix each) are cut into shareable in-memory
//!    trace columns, resuming from emulator [`Checkpoints`] the BBV
//!    pass kept rather than re-emulating the stream from its head.
//! 4. [`combine`] — per-interval detailed [`rvp_uarch::SimStats`] are
//!    folded into a weighted whole-run estimate whose CPI stack still
//!    sums exactly to its cycle count.
//!
//! The [`plan::SamplePlan`] produced by stages 1–2 is a pure function
//! of (committed stream, sampling parameters); it serializes to canonical
//! JSON so callers can cache it next to the trace it describes.
//! Everything here is deterministic: same stream + same
//! [`plan::SampleSpec`] → bit-identical plan, windows and reconstruction.

pub mod bbv;
pub mod combine;
pub mod kmeans;
pub mod plan;
pub mod windows;

pub use bbv::{BbvConfig, BbvProfile, BbvProfiler};
pub use combine::combine_weighted;
pub use kmeans::{choose_k, kmeans, Kmeans};
pub use plan::{RepInterval, SamplePlan, SampleSpec};
pub use windows::{extract_windows, Checkpoints, SampleWindow, CANCEL_CHECK_MASK};
