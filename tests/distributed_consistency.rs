//! Integration: the distributed implementation is exact — replicas agree
//! with each other and with the centralized run, across scenarios.

use osp::core::prelude::*;
use osp::net::multihop::{federated_run, multihop_instance, MultihopConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn federated_equals_centralized_across_topologies_and_seeds() {
    for hops in [1u32, 2, 3, 5] {
        let cfg = MultihopConfig {
            hops,
            packets: 50,
            launch_window: 25,
            capacity: 1,
        };
        let mut rng = StdRng::seed_from_u64(u64::from(hops));
        let mh = multihop_instance(&cfg, &mut rng).unwrap();
        for seed in 0..8u64 {
            let fed = federated_run(&mh, 8, seed).unwrap();
            let central = run(&mh.instance, &mut HashRandPr::new(8, seed)).unwrap();
            assert_eq!(fed.digest(), central.digest(), "hops {hops} seed {seed}");
            assert_eq!(fed.arrivals(), central.arrivals());
            assert_eq!(fed.completed(), central.completed());
            assert_eq!(fed.benefit(), central.benefit());
        }
    }
}

#[test]
fn replicas_agree_regardless_of_instantiation_order() {
    // Build the same algorithm twice in different orders and interleave —
    // the priorities depend only on (independence, seed, set id).
    let mut b = InstanceBuilder::new();
    let ids: Vec<SetId> = (0..20)
        .map(|i| b.add_set(1.0 + f64::from(i % 3), 1))
        .collect();
    b.add_element(2, &ids);
    let inst = b.build().unwrap();

    let out1 = run(&inst, &mut HashRandPr::new(16, 42)).unwrap();
    let mut second = HashRandPr::new(16, 42);
    // Unrelated instantiations in between must not disturb anything.
    let _ = HashRandPr::new(16, 1);
    let _ = HashRandPr::new(4, 42);
    let out2 = run(&inst, &mut second).unwrap();
    assert_eq!(out1.completed(), out2.completed());
}

#[test]
fn capacity_above_one_stays_consistent() {
    let cfg = MultihopConfig {
        hops: 3,
        packets: 70,
        launch_window: 20,
        capacity: 2,
    };
    let mut rng = StdRng::seed_from_u64(9);
    let mh = multihop_instance(&cfg, &mut rng).unwrap();
    for seed in 0..5u64 {
        let fed = federated_run(&mh, 8, seed).unwrap();
        let central = run(&mh.instance, &mut HashRandPr::new(8, seed)).unwrap();
        assert_eq!(fed.digest(), central.digest());
        assert_eq!(fed, central);
    }
}

#[test]
fn independence_level_changes_decisions_but_not_validity() {
    let cfg = MultihopConfig {
        hops: 2,
        packets: 40,
        launch_window: 15,
        capacity: 1,
    };
    let mut rng = StdRng::seed_from_u64(3);
    let mh = multihop_instance(&cfg, &mut rng).unwrap();
    for independence in [1usize, 2, 4, 64] {
        let out = federated_run(&mh, independence, 5).unwrap();
        // Every decision respects capacity by engine validation; benefit
        // is bounded by the number of packets.
        assert!(out.benefit() <= 40.0);
    }
}
