//! Property-based integration tests: engine invariants under arbitrary
//! instances and arbitrary (valid) algorithm behavior.

use proptest::prelude::*;

use osp::core::prelude::*;
use osp::opt::prelude::*;

/// Strategy: a random valid instance description.
/// `(num_sets, elements: Vec<(capacity, member_mask)>)` with masks kept
/// non-empty and within range.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2usize..10).prop_flat_map(|m| {
        let element = (1u32..3, 1u32..(1 << m) as u32);
        proptest::collection::vec(element, 1..20).prop_map(move |elems| {
            let mut b = InstanceBuilder::new();
            let ids: Vec<SetId> = (0..m).map(|_| b.add_set_unsized(1.0)).collect();
            let mut used = vec![false; m];
            for (cap, mask) in &elems {
                let members: Vec<SetId> = (0..m)
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| {
                        used[i] = true;
                        ids[i]
                    })
                    .collect();
                b.add_element(*cap, &members);
            }
            // Give never-used sets one private element so the builder
            // accepts the instance.
            for (i, &u) in used.iter().enumerate() {
                if !u {
                    b.add_element(1, &[ids[i]]);
                }
            }
            b.build().expect("constructed to be valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_invariants_hold_for_all_algorithms(inst in instance_strategy(), seed in 0u64..1000) {
        let mut algs: Vec<Box<dyn OnlineAlgorithm>> = vec![
            Box::new(RandPr::from_seed(seed)),
            Box::new(RandPr::with_active_filter(seed)),
            Box::new(HashRandPr::new(4, seed)),
            Box::new(RandomAssign::from_seed(seed)),
            Box::new(GreedyOnline::new(TieBreak::ByWeight)),
            Box::new(GreedyOnline::new(TieBreak::ByFewestRemaining)),
        ];
        for alg in algs.iter_mut() {
            let mut log = DecisionLog::new();
            let out = run_source_logged(
                &mut inst.source(),
                alg.as_mut(),
                &mut ReplayScratch::new(),
                Some(&mut log),
            )
            .unwrap();
            prop_assert_eq!(log.digest(), out.digest());
            prop_assert_eq!(log.len(), inst.num_elements());

            // Decisions respect capacity and membership.
            for (arrival, decision) in inst.arrivals().iter().zip(&log) {
                prop_assert!(decision.len() <= arrival.capacity() as usize);
                for s in decision {
                    prop_assert!(arrival.contains(*s));
                }
            }

            // Completed <=> assigned at every element.
            let mut assigned = vec![0u32; inst.num_sets()];
            for d in &log {
                for s in d {
                    assigned[s.index()] += 1;
                }
            }
            for (i, &got) in assigned.iter().enumerate() {
                let sid = SetId(i as u32);
                if out.is_completed(sid) {
                    prop_assert_eq!(got, inst.set(sid).size());
                    prop_assert!(out.died_at(sid).is_none());
                } else {
                    prop_assert!(out.died_at(sid).is_some());
                }
            }

            // Benefit equals the completed sets' weight; the completed
            // family is a feasible packing.
            let w: f64 = out.completed().iter().map(|&s| inst.set(s).weight()).sum();
            prop_assert!((w - out.benefit()).abs() < 1e-9);
            prop_assert!(is_feasible(&inst, out.completed()));
        }
    }

    #[test]
    fn solver_ladder_is_ordered(inst in instance_strategy()) {
        let (greedy, gsets) = best_greedy(&inst);
        prop_assert!(is_feasible(&inst, &gsets));
        let sol = branch_and_bound(&inst, &BnbConfig::default());
        prop_assert!(sol.optimal);
        prop_assert!(is_feasible(&inst, &sol.chosen));
        let dual = density_dual_bound(&inst);
        let mwu = fractional_packing(&inst, 0.15);
        prop_assert!(greedy <= sol.value + 1e-9);
        prop_assert!(sol.value <= dual + 1e-9);
        prop_assert!(sol.value <= mwu.dual + 1e-6);
        // Brute force agrees when tiny.
        if inst.num_sets() <= 10 {
            let (bv, _) = brute_force(&inst);
            prop_assert!((bv - sol.value).abs() < 1e-9);
        }
    }

    #[test]
    fn no_algorithm_beats_opt(inst in instance_strategy(), seed in 0u64..500) {
        let sol = branch_and_bound(&inst, &BnbConfig::default());
        let out = run(&inst, &mut RandPr::from_seed(seed)).unwrap();
        prop_assert!(out.benefit() <= sol.value + 1e-9);
    }
}
