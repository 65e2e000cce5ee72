//! Interleaved A/B comparison of two builds of the simulator with the
//! same benchmark code: pairs of runs alternating which side goes
//! first, each side's median and quartiles per metric, and a verdict by
//! the rule the repository's performance claims follow.

use crate::report::Better;
use crate::stats::{median, quartiles, relative_spread};

/// How a metric moved from the parent to the change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least nine pairs in ten and the medians differ
    /// by more than the parent's interquartile range.
    Improved,
    /// The parent won by that same rule, or the change's median is worse
    /// than the parent's by more than the bound.
    Regressed,
    /// No worse than the parent by more than the bound, with the
    /// parent's spread inside the bound.
    Unchanged,
    /// The runs cannot tell: the spread is wider than the bound and the
    /// sides overlap.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric's paired runs.
#[derive(Debug, Clone, Default)]
pub struct Pairs {
    /// Parent values, one per pair.
    pub parent: Vec<f64>,
    /// Change values, in the same pair order.
    pub change: Vec<f64>,
}

impl Pairs {
    /// Pairs the change won and pairs the parent won (ties count for
    /// neither).
    pub fn wins(&self, better: Better) -> (usize, usize) {
        let mut change = 0;
        let mut parent = 0;
        for (p, c) in self.parent.iter().zip(&self.change) {
            let gain = match better {
                Better::Lower => p - c,
                Better::Higher => c - p,
            };
            if gain > 0.0 {
                change += 1;
            } else if gain < 0.0 {
                parent += 1;
            }
        }
        (change, parent)
    }

    /// The verdict under `bound` (the share of the parent's median the
    /// metric may worsen by).
    pub fn verdict(&self, better: Better, bound: f64) -> Verdict {
        let n = self.parent.len().min(self.change.len());
        let (Some([q1, p_med, q3]), Some(c_med)) = (quartiles(&self.parent), median(&self.change))
        else {
            return Verdict::Unresolved;
        };
        let iqr = q3 - q1;
        let gain = match better {
            Better::Lower => p_med - c_med,
            Better::Higher => c_med - p_med,
        };
        let (change_wins, parent_wins) = self.wins(better);
        let decisive = |wins: usize| wins * 10 >= n * 9;
        if decisive(change_wins) && gain > iqr {
            return Verdict::Improved;
        }
        if decisive(parent_wins) && -gain > iqr {
            return Verdict::Regressed;
        }
        let wide = relative_spread(&self.parent).is_none_or(|s| s > bound);
        let separated = |a: &[f64], b: &[f64]| {
            // Every run of `a` better than every run of `b`.
            a.iter().all(|x| {
                b.iter().all(|y| match better {
                    Better::Lower => x < y,
                    Better::Higher => x > y,
                })
            })
        };
        if -gain > bound * p_med.abs() {
            if wide && !separated(&self.parent, &self.change) {
                return Verdict::Unresolved;
            }
            return Verdict::Regressed;
        }
        if wide && !separated(&self.change, &self.parent) {
            return Verdict::Unresolved;
        }
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(parent: &[f64], change: &[f64]) -> Pairs {
        Pairs { parent: parent.to_vec(), change: change.to_vec() }
    }

    const STEADY: [f64; 10] = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9];

    #[test]
    fn a_clear_win_is_improved_and_its_mirror_regressed() {
        let faster: Vec<f64> = STEADY.iter().map(|x| x * 0.8).collect();
        assert_eq!(pairs(&STEADY, &faster).verdict(Better::Lower, 0.1), Verdict::Improved);
        assert_eq!(pairs(&STEADY, &faster).verdict(Better::Higher, 0.1), Verdict::Regressed);
    }

    #[test]
    fn noise_inside_the_bound_is_unchanged() {
        let same: Vec<f64> = STEADY.iter().rev().copied().collect();
        assert_eq!(pairs(&STEADY, &same).verdict(Better::Lower, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn a_small_consistent_gain_within_the_iqr_is_not_improved() {
        let slightly: Vec<f64> = STEADY.iter().map(|x| x - 0.1).collect();
        let v = pairs(&STEADY, &slightly).verdict(Better::Lower, 0.1);
        assert_eq!(v, Verdict::Unchanged, "a 0.1 gain under a 0.5 IQR claims nothing");
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_separated() {
        let noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 100.0, 90.0, 110.0, 70.0];
        let other: Vec<f64> = noisy.iter().rev().copied().collect();
        assert_eq!(pairs(&noisy, &other).verdict(Better::Lower, 0.1), Verdict::Unresolved);
        let far: Vec<f64> = noisy.iter().map(|x| x + 1000.0).collect();
        assert_eq!(pairs(&noisy, &far).verdict(Better::Lower, 0.1), Verdict::Regressed);
    }

    #[test]
    fn worse_than_the_bound_without_decisive_wins_is_regressed() {
        // Four pairs tie, so neither side wins nine in ten, but the
        // change's median is 20% worse against a 10% bound.
        let parent = [100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0];
        let change = [100.0, 100.0, 100.0, 100.0, 120.0, 120.0, 120.0, 120.0, 125.0, 130.0];
        assert_eq!(pairs(&parent, &change).wins(Better::Lower), (0, 6));
        assert_eq!(pairs(&parent, &change).verdict(Better::Lower, 0.1), Verdict::Regressed);
    }
}
