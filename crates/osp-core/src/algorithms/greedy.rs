//! Deterministic greedy baselines.
//!
//! These are the natural deterministic policies a router implementer would
//! reach for, and the victims of the paper's Theorem 3 (every deterministic
//! online algorithm has competitive ratio at least `σ_max^(k_max−1)`). All
//! variants prefer *active* (still-completable) sets and break remaining
//! ties by ascending set id, so they are fully deterministic.

use crate::algorithm::{EngineView, OnlineAlgorithm};
use crate::instance::{Arrival, SetMeta};
use crate::SetId;

use super::retain_top_b_by_key;

/// Ranking policy for [`GreedyOnline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TieBreak {
    /// Prefer heavier sets (`w(S)` descending).
    #[serde(rename = "weight")]
    ByWeight,
    /// Prefer sets closest to completion (fewest remaining elements).
    #[serde(rename = "fewest-remaining")]
    ByFewestRemaining,
    /// Prefer sets that already received the most elements (sunk cost).
    #[serde(rename = "most-progress")]
    ByMostProgress,
    /// Prefer sets with the highest weight density `w(S)/|S|`.
    #[serde(rename = "density")]
    ByDensity,
    /// First-fit: prefer the lowest set id.
    #[serde(rename = "index")]
    ByIndex,
}

impl TieBreak {
    /// All policies, for experiment sweeps.
    pub fn all() -> [TieBreak; 5] {
        [
            TieBreak::ByWeight,
            TieBreak::ByFewestRemaining,
            TieBreak::ByMostProgress,
            TieBreak::ByDensity,
            TieBreak::ByIndex,
        ]
    }

    fn label(self) -> &'static str {
        match self {
            TieBreak::ByWeight => "weight",
            TieBreak::ByFewestRemaining => "fewest-remaining",
            TieBreak::ByMostProgress => "most-progress",
            TieBreak::ByDensity => "density",
            TieBreak::ByIndex => "first-fit",
        }
    }
}

/// Deterministic greedy: assign each element to the best `b(u)` *active*
/// member sets under the chosen [`TieBreak`]; never waste capacity on dead
/// sets.
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
///
/// let mut b = InstanceBuilder::new();
/// let cheap = b.add_set(1.0, 1);
/// let dear = b.add_set(9.0, 1);
/// b.add_element(1, &[cheap, dear]);
/// let inst = b.build()?;
/// let out = run(&inst, &mut GreedyOnline::new(TieBreak::ByWeight))?;
/// assert_eq!(out.completed(), &[dear]);
/// # Ok::<(), osp_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct GreedyOnline {
    policy: TieBreak,
}

impl GreedyOnline {
    /// Creates the greedy baseline with the given ranking policy.
    pub fn new(policy: TieBreak) -> Self {
        GreedyOnline { policy }
    }

    /// The ranking policy in use.
    pub fn policy(&self) -> TieBreak {
        self.policy
    }
}

/// Ranking key: bigger is better. Ties broken by ascending id via the
/// reversed id component.
fn rank(policy: TieBreak, s: SetId, view: &EngineView<'_>) -> (u64, u32) {
    let id_asc = u32::MAX - s.0; // larger key = smaller id
    let key = match policy {
        TieBreak::ByWeight => view.set(s).weight().to_bits(),
        TieBreak::ByFewestRemaining => u64::from(u32::MAX - view.remaining(s)),
        TieBreak::ByMostProgress => u64::from(view.assigned(s)),
        TieBreak::ByDensity => (view.set(s).weight() / f64::from(view.set(s).size())).to_bits(),
        TieBreak::ByIndex => 0,
    };
    (key, id_asc)
}

impl OnlineAlgorithm for GreedyOnline {
    fn name(&self) -> String {
        format!("greedy[{}]", self.policy.label())
    }

    fn begin(&mut self, _sets: &[SetMeta]) {}

    fn decide_into(&mut self, arrival: &Arrival<'_>, view: &EngineView<'_>, out: &mut Vec<SetId>) {
        out.extend(
            arrival
                .members()
                .iter()
                .copied()
                .filter(|&s| view.is_active(s)),
        );
        let b = arrival.capacity() as usize;
        retain_top_b_by_key(out, b, |s| rank(self.policy, s, view));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::instance::InstanceBuilder;

    #[test]
    fn by_weight_prefers_heavy() {
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 1);
        let s1 = b.add_set(2.0, 1);
        let s2 = b.add_set(3.0, 1);
        b.add_element(1, &[s0, s1, s2]);
        let inst = b.build().unwrap();
        let out = run(&inst, &mut GreedyOnline::new(TieBreak::ByWeight)).unwrap();
        assert_eq!(out.completed(), &[s2]);
    }

    #[test]
    fn by_fewest_remaining_prefers_nearly_done() {
        // s_long has 3 elements, s_short has 1; they clash on the last one.
        let mut b = InstanceBuilder::new();
        let s_long = b.add_set(1.0, 3);
        let s_short = b.add_set(1.0, 1);
        b.add_element(1, &[s_long]);
        b.add_element(1, &[s_long]);
        b.add_element(1, &[s_long, s_short]); // long has 1 remaining, short 1
        let inst = b.build().unwrap();
        // Equal remaining: ties break to lower id => s_long.
        let out = run(&inst, &mut GreedyOnline::new(TieBreak::ByFewestRemaining)).unwrap();
        assert_eq!(out.completed(), &[s_long]);
    }

    #[test]
    fn by_most_progress_prefers_invested() {
        let mut b = InstanceBuilder::new();
        let invested = b.add_set(1.0, 3);
        let fresh = b.add_set(1.0, 1);
        b.add_element(1, &[invested]);
        b.add_element(1, &[invested]);
        b.add_element(1, &[fresh, invested]);
        let inst = b.build().unwrap();
        let out = run(&inst, &mut GreedyOnline::new(TieBreak::ByMostProgress)).unwrap();
        assert_eq!(out.completed(), &[invested]);
    }

    #[test]
    fn by_density_prefers_weight_per_element() {
        let mut b = InstanceBuilder::new();
        let dense = b.add_set(2.0, 1); // density 2
        let heavy = b.add_set(3.0, 3); // density 1
        b.add_element(1, &[dense, heavy]);
        b.add_element(1, &[heavy]);
        b.add_element(1, &[heavy]);
        let inst = b.build().unwrap();
        let out = run(&inst, &mut GreedyOnline::new(TieBreak::ByDensity)).unwrap();
        assert_eq!(out.completed(), &[dense]);
    }

    #[test]
    fn first_fit_takes_lowest_id() {
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 1);
        let s1 = b.add_set(100.0, 1);
        b.add_element(1, &[s0, s1]);
        let inst = b.build().unwrap();
        let out = run(&inst, &mut GreedyOnline::new(TieBreak::ByIndex)).unwrap();
        assert_eq!(out.completed(), &[s0]);
    }

    #[test]
    fn never_assigns_to_dead_sets() {
        // s0 dies at e0; e1 offers s0 (dead) and s1 (alive).
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(10.0, 2);
        let s1 = b.add_set(1.0, 1);
        let killer = b.add_set(20.0, 1);
        b.add_element(1, &[s0, killer]); // ByWeight picks killer; s0 dies
        b.add_element(1, &[s0, s1]);
        let inst = b.build().unwrap();
        let out = run(&inst, &mut GreedyOnline::new(TieBreak::ByWeight)).unwrap();
        assert!(out.is_completed(killer));
        assert!(out.is_completed(s1), "capacity must go to the live set");
    }

    #[test]
    fn deterministic_across_runs() {
        let mut b = InstanceBuilder::new();
        let ids: Vec<SetId> = (0..8).map(|i| b.add_set(1.0 + i as f64, 1)).collect();
        b.add_element(2, &ids);
        let inst = b.build().unwrap();
        for policy in TieBreak::all() {
            let a = run(&inst, &mut GreedyOnline::new(policy)).unwrap();
            let b2 = run(&inst, &mut GreedyOnline::new(policy)).unwrap();
            assert_eq!(a.completed(), b2.completed(), "{policy:?}");
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<String> = TieBreak::all()
            .iter()
            .map(|&p| GreedyOnline::new(p).name())
            .collect();
        assert_eq!(names.len(), 5);
    }
}
