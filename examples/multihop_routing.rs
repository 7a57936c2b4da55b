//! Multi-hop scheduling with the distributed hash-priority implementation.
//!
//! Demonstrates the paper's §3.1 claim: replacing randPr's private
//! randomness with a shared hash of the packet identifier lets every hop
//! decide *locally* — and the global behavior is identical to the
//! centralized algorithm, decision for decision.
//!
//! ```text
//! cargo run --release --example multihop_routing
//! ```

use osp::core::prelude::*;
use osp::net::multihop::{federated_run, multihop_instance, MultihopConfig};
use osp::net::policy::TailDrop;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for hops in [2, 4, 6] {
        let config = MultihopConfig {
            hops,
            packets: 80,
            launch_window: 40,
            capacity: 1,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let mh = multihop_instance(&config, &mut rng)?;

        // Every hop runs its own replica sharing only the hash seed.
        let federated = federated_run(&mh, 8, 99)?;
        // The centralized reference: one algorithm sees everything.
        let centralized = run(&mh.instance, &mut HashRandPr::new(8, 99))?;
        assert_eq!(federated.digest(), centralized.digest());

        let tail = run(&mh.instance, &mut TailDrop::new())?;
        println!(
            "{hops} hops: {} (time,hop) elements; federated == centralized: {} | \
             delivered — hashPr: {:2}, tail-drop: {:2} (of {})",
            mh.instance.num_elements(),
            federated.digest() == centralized.digest(),
            federated.completed().len(),
            tail.completed().len(),
            config.packets,
        );
    }
    println!(
        "\nEach router computed the same priorities from the packet ids alone —\n\
         zero coordination messages, exactly as §3.1 of the paper promises."
    );
    Ok(())
}
