//! Multi-hop packet scheduling — the paper's second motivating scenario,
//! and the showcase for the *distributed* implementation of `randPr`.
//!
//! > "Let each pair (t, h) of time t and location h be modeled by an
//! > element of the OSP formulation, and let each packet be modeled by a
//! > set, whose elements are all time-location pairs which the packet is
//! > supposed to visit."
//!
//! Packets traverse a line of `H` store-and-forward hops, one hop per
//! slot, no buffering: a packet launched at time `t₀` occupies
//! `(t₀+h, h)` for `h = 0..H`. Each such pair can forward `b` packets.
//!
//! The point of the distributed implementation (§3.1) is that every hop
//! can run its **own** `HashRandPr` replica — sharing only the hash seed,
//! never communicating — and the global behavior is identical to the
//! centralized algorithm. [`federated_run`] does exactly that: one
//! replica per hop, each deciding only its own elements.

use rand::Rng;

use osp_core::algorithms::HashRandPr;
use osp_core::{Error, Instance, InstanceBuilder, OnlineAlgorithm, Outcome, Session, SetId};

use crate::NetError;

/// A multi-hop workload mapped to OSP.
#[derive(Debug, Clone, PartialEq)]
pub struct MultihopInstance {
    /// The OSP instance; set `i` = packet `i`.
    pub instance: Instance,
    /// For each element (in arrival order), the hop that owns the decision.
    pub element_hops: Vec<u32>,
    /// Number of hops in the line.
    pub hops: u32,
}

/// Configuration for [`multihop_instance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultihopConfig {
    /// Hops in the line (every packet traverses all of them).
    pub hops: u32,
    /// Number of packets.
    pub packets: usize,
    /// Packets launch at a uniformly random time in `0..launch_window`.
    pub launch_window: u32,
    /// Per-(time, hop) forwarding capacity.
    pub capacity: u32,
}

/// Builds the time-expanded OSP instance of the multi-hop scenario.
/// Elements arrive in chronological order (time, then hop), which is the
/// order the network would see them.
///
/// # Errors
///
/// Returns [`NetError::BadParameters`] if any parameter is zero.
pub fn multihop_instance<R: Rng + ?Sized>(
    config: &MultihopConfig,
    rng: &mut R,
) -> Result<MultihopInstance, NetError> {
    if config.hops == 0 || config.packets == 0 || config.launch_window == 0 || config.capacity == 0
    {
        return Err(NetError::BadParameters(
            "hops, packets, launch_window and capacity must be positive".into(),
        ));
    }
    let h = config.hops;

    // Launch times.
    let launches: Vec<u32> = (0..config.packets)
        .map(|_| rng.gen_range(0..config.launch_window))
        .collect();

    // Group packets by the (time, hop) pairs they occupy.
    use std::collections::BTreeMap;
    let mut cells: BTreeMap<(u32, u32), Vec<SetId>> = BTreeMap::new();
    for (p, &t0) in launches.iter().enumerate() {
        for hop in 0..h {
            cells
                .entry((t0 + hop, hop))
                .or_default()
                .push(SetId(p as u32));
        }
    }

    let mut b = InstanceBuilder::new();
    for _ in 0..config.packets {
        b.add_set(1.0, h);
    }
    let mut element_hops = Vec::with_capacity(cells.len());
    for ((_t, hop), members) in &cells {
        b.add_element(config.capacity, members);
        element_hops.push(*hop);
    }
    Ok(MultihopInstance {
        instance: b
            .build()
            .expect("every packet occupies exactly `hops` distinct cells"),
        element_hops,
        hops: h,
    })
}

/// Runs one independent [`HashRandPr`] replica per hop: replica `h`
/// decides exactly the elements owned by hop `h`, with no shared state
/// beyond the hash seed. Returns the combined outcome.
///
/// The `distributed_consistency` integration test (and the `multihop`
/// experiment) verify this equals the centralized run decision-for-
/// decision — the paper's "no communication needed" claim.
///
/// # Errors
///
/// Propagates engine validation errors (none occur for `HashRandPr`).
pub fn federated_run(
    mh: &MultihopInstance,
    independence: usize,
    seed: u64,
) -> Result<Outcome, Error> {
    let mut replicas: Vec<HashRandPr> = (0..mh.hops)
        .map(|_| HashRandPr::new(independence, seed))
        .collect();
    // Announce the sets to every replica; a Session tracks the global
    // bookkeeping while each replica decides only its own hop's elements.
    let mut primary = replicas
        .first()
        .cloned()
        .expect("hops >= 1 guaranteed by constructor");
    let mut session = Session::new(mh.instance.sets(), &mut primary);
    for r in &mut replicas {
        r.begin(mh.instance.sets());
    }
    for (arrival, &hop) in mh.instance.arrivals().iter().zip(&mh.element_hops) {
        let replica = &mut replicas[hop as usize];
        let decision = {
            let view = session.view();
            replica.decide(&arrival, &view)
        };
        session.apply_external(&arrival, decision)?;
    }
    Ok(session.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use osp_core::run;
    use osp_core::stats::InstanceStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> MultihopConfig {
        MultihopConfig {
            hops: 4,
            packets: 60,
            launch_window: 30,
            capacity: 1,
        }
    }

    #[test]
    fn every_packet_spans_all_hops() {
        let mut rng = StdRng::seed_from_u64(0);
        let mh = multihop_instance(&config(), &mut rng).unwrap();
        let st = InstanceStats::compute(&mh.instance);
        assert_eq!(st.m, 60);
        assert_eq!(st.uniform_size, Some(4));
        assert_eq!(mh.element_hops.len(), mh.instance.num_elements());
    }

    #[test]
    fn elements_arrive_chronologically() {
        let mut rng = StdRng::seed_from_u64(1);
        let mh = multihop_instance(&config(), &mut rng).unwrap();
        // The BTreeMap ordering guarantees (time, hop) lexicographic order;
        // within one time, hops ascend, so hop indices never decrease
        // within a time step. Weak sanity check: first element is hop 0.
        assert_eq!(mh.element_hops[0], 0);
    }

    #[test]
    fn federated_equals_centralized() {
        let mut rng = StdRng::seed_from_u64(2);
        let mh = multihop_instance(&config(), &mut rng).unwrap();
        for seed in 0..10 {
            let centralized = run(&mh.instance, &mut HashRandPr::new(8, seed)).unwrap();
            let federated = federated_run(&mh, 8, seed).unwrap();
            assert_eq!(
                centralized.completed(),
                federated.completed(),
                "seed {seed}"
            );
            assert_eq!(centralized.digest(), federated.digest());
        }
    }

    #[test]
    fn different_seeds_change_outcomes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mh = multihop_instance(&config(), &mut rng).unwrap();
        let outcomes: std::collections::HashSet<Vec<SetId>> = (0..20)
            .map(|seed| federated_run(&mh, 8, seed).unwrap().completed().to_vec())
            .collect();
        assert!(outcomes.len() > 1);
    }

    #[test]
    fn parameters_validated() {
        let mut rng = StdRng::seed_from_u64(4);
        for bad in [
            MultihopConfig {
                hops: 0,
                ..config()
            },
            MultihopConfig {
                packets: 0,
                ..config()
            },
            MultihopConfig {
                launch_window: 0,
                ..config()
            },
            MultihopConfig {
                capacity: 0,
                ..config()
            },
        ] {
            assert!(multihop_instance(&bad, &mut rng).is_err());
        }
    }
}
