//! Sweep request model: parse, validate, and map onto the simulation
//! grid's cell space.

use rvp_bench::grid::GridCell;
use rvp_core::{
    by_name_or_err, parse_recovery, recovery_name, Recovery, RunMemo, Runner, SampleSpec,
    SchemeSpec, Workload,
};
use rvp_json::Json;

/// Largest committed-instruction budget a request may ask for, per run.
/// Admission control bounds how many cells queue up; this bounds how
/// much work one cell can be.
pub const MAX_INSTS: u64 = 100_000_000;

/// Largest workload scale factor a request may ask for. Combined with
/// [`MAX_INSTS`] this bounds both how long a program is and how much of
/// it one cell may simulate.
pub const MAX_SCALE: u64 = 4_096;

/// A validated sweep request: the cross product of workloads and
/// schemes under one recovery model and one set of budget knobs.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Workloads to sweep (validated against the workload registry).
    pub workloads: Vec<Workload>,
    /// Schemes to sweep (validated against the scheme registry,
    /// [`rvp_core::list_schemes`], predictor parameters included).
    pub schemes: Vec<SchemeSpec>,
    /// Value-misprediction recovery model.
    pub recovery: Recovery,
    /// Profile threshold for candidate selection.
    pub threshold: f64,
    /// Committed-instruction budget for measurement runs.
    pub measure_insts: u64,
    /// Committed-instruction budget for profiling runs.
    pub profile_insts: u64,
    /// Sampled-measurement knobs (`"sample"`, a [`SampleSpec::parse`]
    /// string); `None` measures every committed instruction in detail.
    pub sampling: Option<SampleSpec>,
    /// Workload outer-pass scale factor (`"scale"`); 1 is the seed-era
    /// program.
    pub workload_scale: u64,
}

impl SweepSpec {
    /// Parses and validates a request body. Unknown names, bad types
    /// and out-of-range knobs are reported as a client error string
    /// (they become a 400, never a panic). Missing knobs default to
    /// `base`'s values; missing workload/scheme lists are an error —
    /// an accidental "sweep everything" is too expensive to imply.
    pub fn from_json(body: &Json, base: &Runner) -> Result<SweepSpec, String> {
        let workloads = match body.get("workloads").and_then(Json::as_arr) {
            None => return Err("missing \"workloads\" (array of workload names)".to_owned()),
            Some(names) => {
                let mut workloads = Vec::with_capacity(names.len());
                for name in names {
                    let name = name.as_str().ok_or("workload names must be strings")?;
                    // The registry error lists every known workload;
                    // forward it verbatim into the 400 body.
                    workloads.push(by_name_or_err(name)?);
                }
                workloads
            }
        };
        let schemes = match body.get("schemes").and_then(Json::as_arr) {
            None => return Err("missing \"schemes\" (array of scheme labels)".to_owned()),
            Some(labels) => {
                let mut schemes = Vec::with_capacity(labels.len());
                for label in labels {
                    let label = label.as_str().ok_or("scheme labels must be strings")?;
                    // The registry error already lists every known
                    // scheme; forward it verbatim into the 400 body.
                    schemes.push(SchemeSpec::parse(label)?);
                }
                schemes
            }
        };
        if workloads.is_empty() || schemes.is_empty() {
            return Err("\"workloads\" and \"schemes\" must be non-empty".to_owned());
        }
        let recovery = match body.get("recovery") {
            None => base.recovery,
            Some(v) => {
                let name = v.as_str().ok_or("\"recovery\" must be a string")?;
                parse_recovery(name).ok_or_else(|| {
                    format!("unknown recovery {name:?} (known: refetch, reissue, selective)")
                })?
            }
        };
        let threshold = match body.get("threshold") {
            None => base.threshold,
            Some(v) => v.as_f64().ok_or("\"threshold\" must be a number")?,
        };
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(format!("\"threshold\" must be in (0, 1], got {threshold}"));
        }
        let measure_insts = budget(body, "measure_insts", base.measure_insts)?;
        let profile_insts = budget(body, "profile_insts", base.profile_insts)?;
        let sampling = match body.get("sample") {
            None => base.sampling,
            Some(v) => {
                let text = v.as_str().ok_or("\"sample\" must be a spec string or \"auto\"")?;
                Some(SampleSpec::parse(text)?)
            }
        };
        let workload_scale = match body.get("scale") {
            None => base.workload_scale,
            Some(v) => {
                let n = v.as_u64().ok_or("\"scale\" must be a positive integer")?;
                if n == 0 || n > MAX_SCALE {
                    return Err(format!("\"scale\" must be in [1, {MAX_SCALE}], got {n}"));
                }
                n
            }
        };
        Ok(SweepSpec {
            workloads,
            schemes,
            recovery,
            threshold,
            measure_insts,
            profile_insts,
            sampling,
            workload_scale,
        })
    }

    /// Journal form; [`SweepSpec::from_json`] on the result round-trips.
    /// The sampling/scale knobs are emitted only when active, so
    /// journals written before they existed still round-trip.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workloads", Json::arr(self.workloads.iter().map(|w| Json::from(w.name())))),
            ("schemes", Json::arr(self.schemes.iter().map(|s| Json::from(s.label())))),
            ("recovery", recovery_name(self.recovery).into()),
            ("threshold", self.threshold.into()),
            ("measure_insts", self.measure_insts.into()),
            ("profile_insts", self.profile_insts.into()),
        ];
        if let Some(spec) = &self.sampling {
            fields.push(("sample", spec.to_spec_string().into()));
        }
        if self.workload_scale > 1 {
            fields.push(("scale", self.workload_scale.into()));
        }
        Json::obj(fields)
    }

    /// The cells of this sweep, in stable (workload-major) order.
    pub fn cells(&self) -> Vec<GridCell> {
        self.workloads
            .iter()
            .flat_map(|wl| {
                self.schemes
                    .iter()
                    .map(|scheme| GridCell { workload: wl.clone(), scheme: scheme.clone() })
            })
            .collect()
    }

    /// A runner for this sweep: `base`'s shared caches (profiles,
    /// in-memory traces, sampling-plan store — this is what makes the daemon
    /// multi-tenant) with this spec's knobs layered on top, and a fresh
    /// run memo ([`Runner::runs`]). Cells of one job that resolve to
    /// the same machine input simulate once; the memo drops with the
    /// job's last cell, so it needs no budget, and the result cache
    /// stays the daemon's only store across jobs. Its
    /// [`Runner::cell_key`] addresses the sweep's cells there.
    pub fn runner_for(&self, base: &Runner) -> Runner {
        let mut runner = base.clone();
        runner.runs = RunMemo::default();
        runner.recovery = self.recovery;
        runner.threshold = self.threshold;
        runner.measure_insts = self.measure_insts;
        runner.profile_insts = self.profile_insts;
        runner.sampling = self.sampling;
        runner.workload_scale = self.workload_scale;
        runner
    }
}

fn budget(body: &Json, key: &str, default: u64) -> Result<u64, String> {
    let insts = match body.get(key) {
        None => default,
        Some(v) => v.as_u64().ok_or_else(|| format!("{key:?} must be a non-negative integer"))?,
    };
    if insts == 0 || insts > MAX_INSTS {
        return Err(format!("{key:?} must be in [1, {MAX_INSTS}], got {insts}"));
    }
    Ok(insts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Runner {
        Runner { traces: None, ..Runner::default() }
    }

    fn parse(text: &str) -> Result<SweepSpec, String> {
        SweepSpec::from_json(&Json::parse(text).unwrap(), &base())
    }

    /// The cell-store address of `spec`'s first cell.
    fn first_key(spec: &SweepSpec) -> u64 {
        let cell = &spec.cells()[0];
        spec.runner_for(&base()).cell_key(&cell.workload, &cell.scheme)
    }

    #[test]
    fn spec_roundtrips_through_journal_json() {
        let spec = parse(
            r#"{"workloads":["li","go"],"schemes":["lvp","no_predict"],
                "recovery":"refetch","threshold":0.9,
                "measure_insts":50000,"profile_insts":80000}"#,
        )
        .unwrap();
        let again = SweepSpec::from_json(&spec.to_json(), &base()).unwrap();
        assert_eq!(again.to_json().to_string(), spec.to_json().to_string());
        assert_eq!(again.cells().len(), 4);
        // Identical specs address identical cells.
        assert_eq!(first_key(&spec), first_key(&again));
        // A different knob re-addresses every cell.
        let mut other = spec.clone();
        other.measure_insts += 1;
        assert_ne!(first_key(&spec), first_key(&other));
    }

    #[test]
    fn unknown_scheme_error_lists_the_whole_registry() {
        let err = parse(r#"{"workloads":["li"],"schemes":["nope"]}"#).unwrap_err();
        assert!(err.contains("unknown scheme \"nope\""), "{err}");
        for info in rvp_core::list_schemes() {
            assert!(err.contains(info.name), "400 body must name {:?}: {err}", info.name);
        }
    }

    #[test]
    fn parameterized_schemes_are_accepted_and_readdress_cells() {
        let plain = parse(r#"{"workloads":["li"],"schemes":["drvp_all"]}"#).unwrap();
        let tuned = parse(r#"{"workloads":["li"],"schemes":["drvp_all:entries=4096"]}"#).unwrap();
        assert_eq!(tuned.schemes[0].label(), "drvp_all:entries=4096");
        // The parameter tail is part of the cell's content address.
        assert_ne!(first_key(&plain), first_key(&tuned));
        // Invalid parameters are a 400, same as unknown names.
        assert!(parse(r#"{"workloads":["li"],"schemes":["drvp_all:bogus=1"]}"#).is_err());
        assert!(parse(r#"{"workloads":["li"],"schemes":["no_predict:entries=4"]}"#).is_err());
    }

    #[test]
    fn sampled_and_scaled_sweeps_round_trip_and_readdress_cells() {
        let plain = parse(r#"{"workloads":["li"],"schemes":["lvp"]}"#).unwrap();
        let sampled =
            parse(r#"{"workloads":["li"],"schemes":["lvp"],"sample":"interval=30000","scale":16}"#)
                .unwrap();
        assert_eq!(sampled.sampling.unwrap().interval_insts, 30_000);
        assert_eq!(sampled.workload_scale, 16);
        // Journal round trip preserves both knobs exactly.
        let again = SweepSpec::from_json(&sampled.to_json(), &base()).unwrap();
        assert_eq!(again.to_json().to_string(), sampled.to_json().to_string());
        // Sampled and detailed results of the same cell are distinct
        // entries in the content-addressed result cache.
        assert_ne!(first_key(&plain), first_key(&sampled));
        assert_eq!(first_key(&sampled), first_key(&again));
        // `"sample":"auto"` is valid and distinct from no sampling.
        let auto = parse(r#"{"workloads":["li"],"schemes":["lvp"],"sample":"auto"}"#).unwrap();
        assert_ne!(first_key(&plain), first_key(&auto));
        // Bad specs and out-of-range scales are 400s, not panics.
        assert!(parse(r#"{"workloads":["li"],"schemes":["lvp"],"sample":"bogus=1"}"#).is_err());
        assert!(parse(r#"{"workloads":["li"],"schemes":["lvp"],"scale":0}"#).is_err());
        assert!(parse(r#"{"workloads":["li"],"schemes":["lvp"],"scale":99999}"#).is_err());
    }

    #[test]
    fn spec_validation_is_an_error_not_a_panic() {
        for bad in [
            r#"{}"#,
            r#"{"workloads":["li"],"schemes":[]}"#,
            r#"{"workloads":["nope"],"schemes":["lvp"]}"#,
            r#"{"workloads":["li"],"schemes":["nope"]}"#,
            r#"{"workloads":["li"],"schemes":["lvp"],"recovery":"nope"}"#,
            r#"{"workloads":["li"],"schemes":["lvp"],"threshold":1.5}"#,
            r#"{"workloads":["li"],"schemes":["lvp"],"measure_insts":0}"#,
            r#"{"workloads":["li"],"schemes":["lvp"],"measure_insts":999999999999}"#,
            r#"{"workloads":[1],"schemes":["lvp"]}"#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }
}
