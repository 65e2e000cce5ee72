//! Seeded input generators. Every workload draws its inputs here from
//! `--seed` alone, so the same seed always sends the same cells and
//! requests in the same order; the programs under test only ever see
//! the generated inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The nine workloads, in the registry's order.
pub const WORKLOADS: [&str; 9] =
    ["go", "ijpeg", "li", "m88ksim", "perl", "hydro2d", "mgrid", "su2cor", "turb3d"];

/// Value-misprediction recovery models a sweep may name.
pub const RECOVERIES: [&str; 3] = ["refetch", "reissue", "selective"];

/// An independent stream for input `stream` under `seed`, so adding a
/// draw to one generator never shifts another's.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Fisher–Yates: a uniform permutation, i.e. a draw without replacement
/// of every element.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// The paper's fifteen scheme labels, in registry order.
pub fn paper_scheme_labels() -> Vec<String> {
    rvp_core::paper_schemes().iter().map(|s| s.label().to_owned()).collect()
}

/// A grid sweep's `--workloads` and `--schemes` lists: every workload
/// and every paper scheme, in a seeded order.
pub fn grid_order(seed: u64) -> (Vec<&'static str>, Vec<String>) {
    let mut workloads = WORKLOADS.to_vec();
    shuffle(&mut workloads, &mut rng(seed, 1));
    let mut schemes = paper_scheme_labels();
    shuffle(&mut schemes, &mut rng(seed, 2));
    (workloads, schemes)
}

/// One single-cell sweep of the cold-cache workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdCell {
    /// Workload name.
    pub workload: &'static str,
    /// Scheme label.
    pub scheme: String,
    /// Recovery model name.
    pub recovery: &'static str,
    /// Profile threshold.
    pub threshold: f64,
}

/// Workload × paper-scheme pairs (nine by fifteen): the cells of one
/// stratified block of [`cold_cells`].
pub const COLD_BLOCK: usize = WORKLOADS.len() * 15;

/// Every (workload × scheme × recovery × threshold 0.70..=0.90 in
/// steps of 0.01) cell — 8505 distinct cache keys — drawn without
/// replacement in a seeded order, so no request of a run repeats a
/// cell and every one misses the result cache. The draw is stratified:
/// each consecutive block of [`COLD_BLOCK`] cells holds every workload ×
/// scheme pair once, with a seeded recovery and threshold, so whole
/// blocks ask for the same simulation work whatever the seed — the
/// pairs differ in cost far more than recoveries and thresholds do.
pub fn cold_cells(seed: u64) -> Vec<ColdCell> {
    let schemes = paper_scheme_labels();
    let mut r = rng(seed, 3);
    let mut pairs = Vec::new();
    for &workload in &WORKLOADS {
        for scheme in &schemes {
            let mut variants = Vec::new();
            for &recovery in &RECOVERIES {
                for step in 0..=20u32 {
                    variants.push((recovery, f64::from(70 + step) / 100.0));
                }
            }
            shuffle(&mut variants, &mut r);
            pairs.push((workload, scheme, variants));
        }
    }
    let mut cells = Vec::new();
    for block in 0..RECOVERIES.len() * 21 {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        shuffle(&mut order, &mut r);
        for p in order {
            let (workload, scheme, variants) = &pairs[p];
            let (recovery, threshold) = variants[block];
            cells.push(ColdCell { workload, scheme: (*scheme).clone(), recovery, threshold });
        }
    }
    cells
}

/// Whether answered cold request `index` is among the seeded 5% that
/// are re-simulated in-process and compared.
pub fn resimulate(seed: u64, index: usize) -> bool {
    rng(seed ^ 0x5eed, index as u64).gen_range(0..20u32) == 0
}

/// A primed result-cache column of the hot workload.
pub const HOT_COLUMNS: [(&str, u64); 4] =
    [("li", 50_000), ("li", 100_000), ("m88ksim", 50_000), ("m88ksim", 100_000)];

/// One cache-hit sweep of the hot workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotRequest {
    /// Workload name.
    pub workload: &'static str,
    /// Measurement budget naming the primed column.
    pub measure_insts: u64,
    /// Scheme labels, distinct.
    pub schemes: Vec<String>,
}

/// Request `index` of the hot workload: 7 in every 10 consecutive
/// requests ask for 1–4 distinct schemes of one primed column
/// (responses under 4 KB), the other 3, at seeded positions, for the
/// whole 15-scheme column (about 15 KB). The fixed share per block
/// keeps every stretch of the load the same mix, so the daemon lifetimes
/// of a run are comparable. Indexed rather than streamed, so two client threads
/// pulling indices from one counter send exactly the requests a single
/// thread would.
pub fn hot_request(seed: u64, index: usize) -> HotRequest {
    let mut block: Vec<usize> = (0..10).collect();
    shuffle(&mut block, &mut rng(seed ^ 0x400, (index / 10) as u64));
    let column = block[..3].contains(&(index % 10));
    let mut r = rng(seed ^ 0x401, index as u64);
    let (workload, measure_insts) = HOT_COLUMNS[r.gen_range(0..HOT_COLUMNS.len())];
    let mut schemes = paper_scheme_labels();
    shuffle(&mut schemes, &mut r);
    if !column {
        schemes.truncate(r.gen_range(1..5usize));
    }
    HotRequest { workload, measure_insts, schemes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(grid_order(7), grid_order(7));
        assert_ne!(grid_order(7), grid_order(8));
        assert_eq!(cold_cells(7), cold_cells(7));
        assert_ne!(cold_cells(7)[..10], cold_cells(8)[..10]);
        for i in 0..50 {
            assert_eq!(hot_request(7, i), hot_request(7, i));
            assert_eq!(resimulate(7, i), resimulate(7, i));
        }
    }

    #[test]
    fn grid_order_is_a_permutation_of_the_full_grid() {
        let (workloads, schemes) = grid_order(3);
        let mut w = workloads.clone();
        w.sort_unstable();
        let mut all = WORKLOADS.to_vec();
        all.sort_unstable();
        assert_eq!(w, all);
        let mut s = schemes.clone();
        s.sort();
        let mut paper = paper_scheme_labels();
        paper.sort();
        assert_eq!(s, paper);
    }

    #[test]
    fn cold_cells_are_drawn_without_replacement() {
        let cells = cold_cells(11);
        assert_eq!(cells.len(), 9 * 15 * 3 * 21);
        let keys: HashSet<String> = cells
            .iter()
            .map(|c| format!("{}/{}/{}/{:.2}", c.workload, c.scheme, c.recovery, c.threshold))
            .collect();
        assert_eq!(keys.len(), cells.len(), "a cold cell repeats");
        for block in cells.chunks(COLD_BLOCK) {
            let pairs: HashSet<(&str, &str)> =
                block.iter().map(|c| (c.workload, c.scheme.as_str())).collect();
            assert_eq!(pairs.len(), COLD_BLOCK, "a block misses a workload × scheme pair");
        }
    }

    #[test]
    fn hot_requests_draw_distinct_schemes_in_the_stated_mix() {
        let paper: HashSet<String> = paper_scheme_labels().into_iter().collect();
        let mut columns = 0;
        for i in 0..2000 {
            let req = hot_request(5, i);
            let distinct: HashSet<&String> = req.schemes.iter().collect();
            assert_eq!(distinct.len(), req.schemes.len(), "scheme drawn twice");
            assert!(req.schemes.iter().all(|s| paper.contains(s)));
            assert!(HOT_COLUMNS.contains(&(req.workload, req.measure_insts)));
            match req.schemes.len() {
                15 => columns += 1,
                1..=4 => {}
                n => panic!("unexpected request width {n}"),
            }
        }
        assert_eq!(columns, 600, "three column requests in every ten");
    }

    #[test]
    fn about_one_in_twenty_cold_answers_is_resimulated() {
        let picked = (0..4000).filter(|&i| resimulate(9, i)).count();
        assert!((140..260).contains(&picked), "{picked} of 4000");
    }
}
