//! The sampling plan: which intervals to simulate in detail, with what
//! warmup, and how to weight them.
//!
//! A [`SamplePlan`] is a pure function of (committed stream,
//! [`SampleSpec`]): the BBV profile is clustered, the interval closest
//! to each cluster centroid becomes that phase's representative, and
//! the phase's instruction share becomes the representative's weight.
//! Plans serialize to canonical JSON, so callers can cache them next to
//! the trace they describe.

use rvp_json::{Json, ToJson};

use crate::bbv::BbvProfile;
use crate::kmeans::choose_k;

/// User-facing sampling parameters (a [`crate::plan::SamplePlan`] is
/// derived from these plus the stream). Zero means "auto" for the two
/// instruction knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleSpec {
    /// Committed instructions per profiled interval; 0 picks
    /// budget/256, clamped to `[20_000, 250_000]` (small intervals keep
    /// the sampled fraction — and so the speedup — high; the functional
    /// warmup absorbs the extra boundary effects).
    pub interval_insts: u64,
    /// Functional-warmup window before each representative interval;
    /// 0 picks one full interval (half is measurably biased low:
    /// representative intervals start with colder caches and branch
    /// history than the same code had in the full run).
    pub warmup_insts: u64,
    /// Projected BBV dimensionality.
    pub dims: usize,
    /// Upper bound on the cluster count the BIC selection may pick.
    pub max_k: usize,
    /// Seed for the random projection and the k-means sampling.
    pub seed: u64,
}

impl Default for SampleSpec {
    fn default() -> SampleSpec {
        SampleSpec { interval_insts: 0, warmup_insts: 0, dims: 16, max_k: 8, seed: 0xba5e }
    }
}

impl SampleSpec {
    /// The concrete (interval, warmup) sizes for a run of `budget`
    /// committed instructions, resolving the auto (zero) knobs.
    pub fn resolve(&self, budget: u64) -> (u64, u64) {
        let interval = if self.interval_insts > 0 {
            self.interval_insts
        } else {
            (budget / 256).clamp(20_000, 250_000)
        };
        let warmup = if self.warmup_insts > 0 { self.warmup_insts } else { interval };
        (interval, warmup)
    }

    /// The canonical textual form folded into content keys (the cell
    /// key, sampling plan and run-memo keys): every knob, in a fixed
    /// order.
    pub fn fingerprint_component(&self) -> String {
        format!(
            "sample:interval={},warmup={},dims={},max_k={},seed={}",
            self.interval_insts, self.warmup_insts, self.dims, self.max_k, self.seed
        )
    }

    /// The canonical spec string: [`SampleSpec::parse`] on the result
    /// reproduces `self` exactly (journal round trips rely on this).
    pub fn to_spec_string(&self) -> String {
        format!(
            "interval={},warmup={},dims={},max_k={},seed={}",
            self.interval_insts, self.warmup_insts, self.dims, self.max_k, self.seed
        )
    }

    /// Parses a CLI/env spec: `auto` (or the empty string) for all
    /// defaults, else a comma list of `interval=N`, `warmup=N`,
    /// `dims=N`, `max_k=N`, `seed=N` overrides — the same key names
    /// [`SampleSpec::fingerprint_component`] prints.
    ///
    /// # Errors
    ///
    /// Returns a description naming the offending item and the accepted
    /// keys.
    pub fn parse(text: &str) -> Result<SampleSpec, String> {
        let mut spec = SampleSpec::default();
        let text = text.trim();
        if text.is_empty() || text == "auto" {
            return Ok(spec);
        }
        for item in text.split(',') {
            let item = item.trim();
            let (key, value) = item.split_once('=').ok_or_else(|| {
                format!(
                    "bad sample spec item {item:?} (expected key=value with keys \
                     interval, warmup, dims, max_k, seed, or the word \"auto\")"
                )
            })?;
            let num =
                value.trim().parse::<u64>().map_err(|_| format!("bad sample value in {item:?}"))?;
            match key.trim() {
                "interval" => spec.interval_insts = num,
                "warmup" => spec.warmup_insts = num,
                "dims" => spec.dims = num as usize,
                "max_k" => spec.max_k = num as usize,
                "seed" => spec.seed = num,
                other => {
                    return Err(format!(
                        "unknown sample knob {other:?} (known: interval, warmup, dims, max_k, seed)"
                    ));
                }
            }
        }
        if spec.dims == 0 || spec.max_k == 0 {
            return Err("sample dims and max_k must be at least 1".to_owned());
        }
        Ok(spec)
    }
}

/// One representative interval of the sampled run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepInterval {
    /// Index of the interval in the profiled stream.
    pub index: usize,
    /// First committed-instruction seq of the interval.
    pub start: u64,
    /// Committed instructions in the interval.
    pub len: u64,
    /// Fraction of the whole run's instructions this representative
    /// stands for (its cluster's instruction share; weights sum to 1).
    pub weight: f64,
    /// Cluster the representative was drawn from.
    pub cluster: usize,
    /// Number of profiled intervals in that cluster.
    pub cluster_size: usize,
}

/// A complete sampling plan for one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePlan {
    /// Interval size the plan was profiled at.
    pub interval_insts: u64,
    /// Functional-warmup window before each representative.
    pub warmup_insts: u64,
    /// Projected BBV dimensionality.
    pub dims: usize,
    /// Clusters the BIC selection settled on.
    pub k: usize,
    /// Seed the projection and clustering used.
    pub seed: u64,
    /// Committed instructions in the full profiled run.
    pub total_insts: u64,
    /// Representatives, ordered by stream position.
    pub intervals: Vec<RepInterval>,
}

impl SamplePlan {
    /// Builds a plan from a profile: cluster, pick the interval nearest
    /// each centroid (ties toward the earliest interval), weight by the
    /// cluster's instruction share.
    pub fn build(profile: &BbvProfile, spec: &SampleSpec, warmup_insts: u64) -> SamplePlan {
        let _span = rvp_obs::span!("sample.cluster", {
            intervals: profile.vectors.len() as u64,
            max_k: spec.max_k as u64
        });
        assert!(!profile.vectors.is_empty(), "cannot plan over an empty profile");
        let km = choose_k(&profile.vectors, spec.max_k, spec.seed);

        // Interval start offsets: lens may have a folded tail, but every
        // clusterable interval starts at index * interval_insts.
        let cluster_insts: Vec<u64> = {
            let mut insts = vec![0u64; km.k];
            for (i, &c) in km.assignments.iter().enumerate() {
                insts[c] += profile.lens[i];
            }
            insts
        };
        let total: u64 = profile.lens.iter().sum();

        let mut intervals = Vec::new();
        for (c, &c_insts) in cluster_insts.iter().enumerate() {
            if c_insts == 0 {
                continue;
            }
            let rep = km
                .assignments
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a == c)
                .min_by(|&(i, _), &(j, _)| {
                    let di = dist2(&profile.vectors[i], &km.centroids[c]);
                    let dj = dist2(&profile.vectors[j], &km.centroids[c]);
                    di.total_cmp(&dj).then(i.cmp(&j))
                })
                .map(|(i, _)| i)
                .expect("non-empty cluster");
            intervals.push(RepInterval {
                index: rep,
                start: rep as u64 * profile.interval_insts,
                // Simulate the nominal interval size even for the
                // tail-folded last interval; the weight carries the
                // folded instructions.
                len: profile.lens[rep].min(profile.interval_insts),
                weight: c_insts as f64 / total as f64,
                cluster: c,
                cluster_size: km.assignments.iter().filter(|&&a| a == c).count(),
            });
        }
        intervals.sort_by_key(|r| r.start);
        SamplePlan {
            interval_insts: profile.interval_insts,
            warmup_insts,
            dims: profile.dims,
            k: km.k,
            seed: spec.seed,
            total_insts: profile.total_insts,
            intervals,
        }
    }

    /// Committed instructions simulated in detail under this plan
    /// (excluding warmup).
    pub fn sampled_insts(&self) -> u64 {
        self.intervals.iter().map(|r| r.len).sum()
    }

    /// Detail plus functional-warmup instructions — the total stream
    /// consumption of a sampled run after planning.
    pub fn replayed_insts(&self) -> u64 {
        self.intervals.iter().map(|r| r.len + self.warmup_insts.min(r.start)).sum()
    }

    /// Parses [`SamplePlan::to_json`] back.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<SamplePlan, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("missing {k:?}"));
        let num = |k: &str| field(k)?.as_u64().ok_or_else(|| format!("{k:?} must be an integer"));
        let intervals = field("intervals")?
            .as_arr()
            .ok_or("\"intervals\" must be an array")?
            .iter()
            .map(|r| {
                let rf = |k: &str| r.get(k).ok_or_else(|| format!("missing interval {k:?}"));
                let rn =
                    |k: &str| rf(k)?.as_u64().ok_or_else(|| format!("interval {k:?} not integer"));
                Ok(RepInterval {
                    index: rn("index")? as usize,
                    start: rn("start")?,
                    len: rn("len")?,
                    weight: rf("weight")?.as_f64().ok_or("interval \"weight\" not a number")?,
                    cluster: rn("cluster")? as usize,
                    cluster_size: rn("cluster_size")? as usize,
                })
            })
            .collect::<Result<Vec<RepInterval>, String>>()?;
        Ok(SamplePlan {
            interval_insts: num("interval_insts")?,
            warmup_insts: num("warmup_insts")?,
            dims: num("dims")? as usize,
            k: num("k")? as usize,
            seed: num("seed")?,
            total_insts: num("total_insts")?,
            intervals,
        })
    }
}

impl ToJson for SamplePlan {
    fn to_json(&self) -> Json {
        Json::obj([
            ("interval_insts", self.interval_insts.into()),
            ("warmup_insts", self.warmup_insts.into()),
            ("dims", (self.dims as u64).into()),
            ("k", (self.k as u64).into()),
            ("seed", self.seed.into()),
            ("total_insts", self.total_insts.into()),
            (
                "intervals",
                Json::arr(self.intervals.iter().map(|r| {
                    Json::obj([
                        ("index", (r.index as u64).into()),
                        ("start", r.start.into()),
                        ("len", r.len.into()),
                        ("weight", r.weight.into()),
                        ("cluster", (r.cluster as u64).into()),
                        ("cluster_size", (r.cluster_size as u64).into()),
                    ])
                })),
            ),
        ])
    }
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbv::{BbvConfig, BbvProfiler};

    fn two_phase_profile() -> BbvProfile {
        let cfg = BbvConfig { interval_insts: 300, ..BbvConfig::default() };
        let mut p = BbvProfiler::new(16, cfg);
        for _ in 0..1000 {
            for (pc, next) in [(0, 1), (1, 2), (2, 0)] {
                p.observe(pc, next);
            }
        }
        for _ in 0..1000 {
            for (pc, next) in [(10, 11), (11, 12), (12, 10)] {
                p.observe(pc, next);
            }
        }
        p.finish()
    }

    #[test]
    fn plan_covers_both_phases_with_unit_weight() {
        let profile = two_phase_profile();
        let spec = SampleSpec::default();
        let plan = SamplePlan::build(&profile, &spec, 150);
        assert_eq!(plan.k, 2, "two phases expected");
        assert_eq!(plan.intervals.len(), 2);
        let wsum: f64 = plan.intervals.iter().map(|r| r.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9, "weights sum to {wsum}");
        // One representative from each phase.
        assert!(plan.intervals[0].start < 3000);
        assert!(plan.intervals[1].start >= 3000);
        assert!(plan.sampled_insts() <= 2 * 300);
    }

    #[test]
    fn plan_is_deterministic_and_fingerprint_stable() {
        let profile = two_phase_profile();
        let spec = SampleSpec::default();
        let a = SamplePlan::build(&profile, &spec, 150);
        let b = SamplePlan::build(&profile, &spec, 150);
        assert_eq!(a, b);
        let other = SamplePlan::build(&profile, &SampleSpec { seed: 1, ..spec }, 150);
        // A different seed permutes clusters at worst; the canonical
        // JSON must still see the config difference via the seed field.
        assert_ne!(a.to_json().to_string(), other.to_json().to_string());
    }

    #[test]
    fn plan_json_round_trips() {
        let profile = two_phase_profile();
        let plan = SamplePlan::build(&profile, &SampleSpec::default(), 150);
        let text = plan.to_json().to_string();
        let back = SamplePlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(plan, back);
        assert_eq!(text, back.to_json().to_string());
    }

    #[test]
    fn spec_parsing_round_trips_the_fingerprint_keys() {
        assert_eq!(SampleSpec::parse("auto").unwrap(), SampleSpec::default());
        assert_eq!(SampleSpec::parse("").unwrap(), SampleSpec::default());
        let spec =
            SampleSpec::parse("interval=30000, warmup=5000, dims=8, max_k=3, seed=7").unwrap();
        assert_eq!(
            spec,
            SampleSpec { interval_insts: 30_000, warmup_insts: 5_000, dims: 8, max_k: 3, seed: 7 }
        );
        assert_eq!(SampleSpec::parse(&spec.to_spec_string()).unwrap(), spec);
        assert!(SampleSpec::parse("interval").unwrap_err().contains("key=value"));
        assert!(SampleSpec::parse("bogus=1").unwrap_err().contains("known:"));
        assert!(SampleSpec::parse("interval=abc").unwrap_err().contains("bad sample value"));
        assert!(SampleSpec::parse("max_k=0").is_err());
    }

    #[test]
    fn spec_resolution_clamps_the_auto_interval() {
        let spec = SampleSpec::default();
        assert_eq!(spec.resolve(100_000_000), (250_000, 250_000));
        assert_eq!(spec.resolve(400_000).0, 20_000);
        let explicit = SampleSpec { interval_insts: 5_000, warmup_insts: 1_000, ..spec };
        assert_eq!(explicit.resolve(100_000_000), (5_000, 1_000));
    }
}
