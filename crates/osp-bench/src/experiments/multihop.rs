//! `multihop` — distributed scheduling across store-and-forward hops
//! (§1, scenario 2 + the §3.1 distributed implementation).

use osp_adversary as _; // (crate graph symmetry; nothing needed here)
use osp_core::algorithms::HashRandPr;
use osp_core::run as engine_run;
use osp_net::multihop::{federated_run, multihop_instance, MultihopConfig};
use osp_net::policy::TailDrop;
use osp_stats::{SeedSequence, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::pool::{draw_seeds, pool};
use crate::report::{NamedTable, Report};
use crate::Scale;

/// Runs the experiment.
pub fn run(scale: Scale, seed: u64) -> Report {
    let repeats: usize = scale.pick(3, 8);
    let hash_trials: u64 = scale.pick(10, 40);
    let mut seeds = SeedSequence::new(seed).child("multihop");

    let mut report = Report::new(
        "multihop",
        "Multi-hop scheduling with per-hop HashRandPr replicas",
        "Each (time, hop) pair is an element, each packet a set of H such pairs. Every hop \
         runs its own HashRandPr replica sharing only the hash seed; the federated run must \
         equal the centralized run decision-for-decision, and beat hop-local tail-drop on \
         delivered packets.",
    );

    let mut table = NamedTable::new(
        "Line networks (60 packets, window 30, capacity 1; means over traces × seeds)",
        &[
            "hops",
            "elements",
            "federated = centralized",
            "hashPr delivered",
            "tail-drop delivered",
        ],
    );
    for &hops in scale.pick(&[2u32, 4][..], &[2u32, 3, 4, 6][..]) {
        let mut consistent = true;
        let mut hash_delivered = Summary::new();
        let mut tail_delivered = Summary::new();
        let mut elements = 0usize;
        for _ in 0..repeats {
            let cfg = MultihopConfig {
                hops,
                packets: 60,
                launch_window: 30,
                capacity: 1,
            };
            let mut rng = StdRng::seed_from_u64(seeds.next_seed());
            let mh = multihop_instance(&cfg, &mut rng).expect("valid config");
            elements = mh.instance.num_elements();
            // Each trial runs the federated replicas *and* the centralized
            // reference; trials are independent, so fan them out.
            let trial_seeds = draw_seeds(&mut seeds, hash_trials as usize);
            for (agreed, delivered) in pool().map(&trial_seeds, |_, _, &s| {
                let fed = federated_run(&mh, 8, s).unwrap();
                let central = engine_run(&mh.instance, &mut HashRandPr::new(8, s)).unwrap();
                (fed.digest() == central.digest(), fed.completed().len())
            }) {
                consistent &= agreed;
                hash_delivered.add(delivered as f64);
            }
            let tail = engine_run(&mh.instance, &mut TailDrop::new()).unwrap();
            tail_delivered.add(tail.completed().len() as f64);
        }
        table.row(vec![
            hops.to_string(),
            elements.to_string(),
            consistent.to_string(),
            format!("{:.1}", hash_delivered.mean()),
            format!("{:.1}", tail_delivered.mean()),
        ]);
    }
    report.table(table);
    report.note(
        "Verdict criteria: the consistency column must read `true` everywhere (the \
         distributed implementation is exact, not approximate), and hashPr's delivered \
         count should not trail tail-drop's as hops grow (longer paths punish policies \
         that spread losses).",
    );
    report
}
