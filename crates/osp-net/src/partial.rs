//! Partial-frame payoff — the paper's open problem 3, as an evaluation
//! mode.
//!
//! > "A set is gained in OSP only if all its elements were assigned to it.
//! > What about the case where the set can be gained even if a few
//! > elements are missing?"
//!
//! With forward error correction, a frame is decodable once a θ-fraction
//! of its packets arrive. [`partial_benefit`] re-scores an existing run
//! under that rule: the algorithms don't change, only the payoff — which
//! is exactly how one would evaluate FEC sensitivity. The payoff needs
//! every decision, not just the [`Outcome`], so the run is a logged one
//! ([`run_logged`]).

use osp_core::engine::ReplayScratch;
use osp_core::{run_source_logged, DecisionLog, Error, Instance, OnlineAlgorithm, Outcome};

/// Replays `algorithm` over `instance` keeping the full [`DecisionLog`]
/// that [`delivered_counts`] and [`partial_benefit`] read.
///
/// # Errors
///
/// The engine's contract: the first invalid decision.
pub fn run_logged<A: OnlineAlgorithm + ?Sized>(
    instance: &Instance,
    algorithm: &mut A,
) -> Result<(Outcome, DecisionLog), Error> {
    let mut log = DecisionLog::new();
    let outcome = run_source_logged(
        &mut instance.source(),
        algorithm,
        &mut ReplayScratch::new(),
        Some(&mut log),
    )?;
    Ok((outcome, log))
}

/// Packets each set actually received (assigned to it) during the run.
pub fn delivered_counts(instance: &Instance, log: &DecisionLog) -> Vec<u32> {
    let mut counts = vec![0u32; instance.num_sets()];
    for decision in log {
        for s in decision {
            counts[s.index()] += 1;
        }
    }
    counts
}

/// Total weight of sets that received at least `ceil(θ·|S|)` of their
/// elements.
///
/// `θ = 1.0` reproduces the strict OSP benefit; lower θ models FEC-style
/// recovery. θ is clamped into `(0, 1]` — a θ of 0 would pay every frame
/// unconditionally, which is never the intended question.
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
/// use osp_net::partial::{partial_benefit, run_logged};
///
/// let mut b = InstanceBuilder::new();
/// let s = b.add_set(1.0, 2);
/// let rival = b.add_set(1.0, 1);
/// b.add_element(1, &[s]);
/// b.add_element(1, &[s, rival]);
/// let inst = b.build()?;
/// let (_, log) = run_logged(&inst, &mut GreedyOnline::new(TieBreak::ByMostProgress))?;
/// // Greedy keeps s both times; with θ=0.5, even one packet would do.
/// assert_eq!(partial_benefit(&inst, &log, 1.0), 1.0);
/// assert_eq!(partial_benefit(&inst, &log, 0.5), 1.0);
/// # Ok::<(), osp_core::Error>(())
/// ```
pub fn partial_benefit(instance: &Instance, log: &DecisionLog, theta: f64) -> f64 {
    let theta = theta.clamp(f64::MIN_POSITIVE, 1.0);
    let counts = delivered_counts(instance, log);
    instance
        .sets()
        .iter()
        .enumerate()
        .filter(|(i, meta)| {
            let needed = (theta * f64::from(meta.size())).ceil() as u32;
            counts[*i] >= needed.max(1)
        })
        .map(|(_, meta)| meta.weight())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use osp_core::algorithms::{GreedyOnline, TieBreak};
    use osp_core::InstanceBuilder;

    /// Three-packet frame that loses exactly one packet to a heavier rival.
    fn two_thirds_delivered() -> (Instance, Outcome, DecisionLog) {
        let mut b = InstanceBuilder::new();
        let frame = b.add_set(1.0, 3);
        let rival = b.add_set(5.0, 1);
        b.add_element(1, &[frame]);
        b.add_element(1, &[frame]);
        b.add_element(1, &[frame, rival]);
        let inst = b.build().unwrap();
        let (out, log) = run_logged(&inst, &mut GreedyOnline::new(TieBreak::ByWeight)).unwrap();
        (inst, out, log)
    }

    #[test]
    fn strict_theta_matches_benefit() {
        let (inst, out, log) = two_thirds_delivered();
        // Frame got 2/3 packets, rival completed.
        assert_eq!(out.benefit(), 5.0);
        assert_eq!(partial_benefit(&inst, &log, 1.0), 5.0);
    }

    #[test]
    fn lower_theta_recovers_the_frame() {
        let (inst, _, log) = two_thirds_delivered();
        // θ = 2/3: frame needs ceil(2) = 2 packets — it has exactly 2.
        assert_eq!(partial_benefit(&inst, &log, 2.0 / 3.0), 6.0);
        assert_eq!(partial_benefit(&inst, &log, 0.5), 6.0);
    }

    #[test]
    fn theta_is_clamped() {
        let (inst, _, log) = two_thirds_delivered();
        // θ ≤ 0 clamps to "at least one packet".
        assert_eq!(partial_benefit(&inst, &log, 0.0), 6.0);
        assert_eq!(partial_benefit(&inst, &log, 2.0), 5.0);
    }

    #[test]
    fn delivered_counts_match_decisions() {
        let (inst, out, log) = two_thirds_delivered();
        let counts = delivered_counts(&inst, &log);
        assert_eq!(counts, vec![2, 1]);
        assert_eq!(log.digest(), out.digest());
        assert_eq!(
            counts.iter().map(|&c| u64::from(c)).sum::<u64>(),
            out.assignments()
        );
    }

    #[test]
    fn zero_delivery_pays_nothing_even_at_tiny_theta() {
        let mut b = InstanceBuilder::new();
        let starved = b.add_set(1.0, 1);
        let winner = b.add_set(9.0, 1);
        b.add_element(1, &[starved, winner]);
        let inst = b.build().unwrap();
        let (_, log) = run_logged(&inst, &mut GreedyOnline::new(TieBreak::ByWeight)).unwrap();
        assert_eq!(partial_benefit(&inst, &log, 0.01), 9.0);
    }
}
