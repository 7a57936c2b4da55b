//! Golden-outcome regression fixtures.
//!
//! A small committed table of `(generator spec, gen seed, algorithm,
//! algorithm seed) → (benefit, completed sets)` tuples, replayed on every
//! test run — both sequentially and through the batch [`ReplayPool`] — so
//! future engine/algorithm refactors cannot silently change results.
//!
//! **Regenerating** (only when a change *intentionally* alters outcomes,
//! e.g. a generator rework; say so in the commit message):
//!
//! ```sh
//! OSP_PRINT_GOLDENS=1 cargo test --test golden_outcomes -- --nocapture
//! ```
//!
//! and paste the printed rows over the `GOLDENS` table below. Benefits are
//! written with Rust's shortest-roundtrip float formatting, so `==`
//! comparison is exact.

use osp_core::algorithms::{GreedyOnline, HashRandPr, RandPr, TieBreak};
use osp_core::gen::{
    biregular_instance, fixed_size_instance, random_instance, CapacityModel, LoadModel,
    RandomInstanceConfig, WeightModel,
};
use osp_core::serve::ServeReply;
use osp_core::wire::reply;
use osp_core::{run, Instance, JobResult, OnlineAlgorithm, Outcome, ReplayPool, SetId};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "support/typed_decode.rs"]
mod typed_decode;
use typed_decode::{perturb, typed_matches_tree};

/// One pinned replay.
struct Golden {
    /// Generator spec id (see [`build_instance`]).
    spec: &'static str,
    /// Seed for the instance generator's RNG.
    gen_seed: u64,
    /// Algorithm id (see [`build_algorithm`]).
    alg: &'static str,
    /// Seed for the algorithm's randomness (ignored by `greedy`).
    alg_seed: u64,
    /// Expected `Outcome::benefit()`, exact.
    benefit: f64,
    /// Expected `Outcome::completed()`, ascending.
    completed: &'static [u32],
}

fn build_instance(spec: &str, gen_seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(gen_seed);
    match spec {
        "uniform" => {
            random_instance(&RandomInstanceConfig::unweighted(25, 60, 4), &mut rng).unwrap()
        }
        "weighted" => random_instance(
            &RandomInstanceConfig {
                num_sets: 30,
                num_elements: 70,
                load: LoadModel::Uniform { lo: 1, hi: 5 },
                weights: WeightModel::Uniform { lo: 0.5, hi: 4.0 },
                capacities: CapacityModel::Uniform { lo: 1, hi: 2 },
            },
            &mut rng,
        )
        .unwrap(),
        "biregular" => biregular_instance(24, 3, 4, &mut rng).unwrap(),
        "skewed" => fixed_size_instance(30, 3, 80, 1.2, &mut rng).unwrap(),
        other => panic!("unknown spec {other}"),
    }
}

fn build_algorithm(alg: &str, alg_seed: u64) -> Box<dyn OnlineAlgorithm> {
    match alg {
        "randPr" => Box::new(RandPr::from_seed(alg_seed)),
        "hashPr8" => Box::new(HashRandPr::new(8, alg_seed)),
        "greedy" => Box::new(GreedyOnline::new(TieBreak::ByWeight)),
        other => panic!("unknown algorithm {other}"),
    }
}

/// The pinned fixtures. Paste regenerated rows here (see module docs).
#[rustfmt::skip]
const GOLDENS: &[Golden] = &[
    Golden { spec: "uniform", gen_seed: 100, alg: "randPr", alg_seed: 9000, benefit: 1.0, completed: &[6] },
    Golden { spec: "uniform", gen_seed: 101, alg: "randPr", alg_seed: 9001, benefit: 1.0, completed: &[5] },
    Golden { spec: "uniform", gen_seed: 100, alg: "hashPr8", alg_seed: 9010, benefit: 2.0, completed: &[2, 10] },
    Golden { spec: "uniform", gen_seed: 101, alg: "hashPr8", alg_seed: 9011, benefit: 1.0, completed: &[1] },
    Golden { spec: "uniform", gen_seed: 100, alg: "greedy", alg_seed: 9020, benefit: 2.0, completed: &[0, 11] },
    Golden { spec: "uniform", gen_seed: 101, alg: "greedy", alg_seed: 9021, benefit: 2.0, completed: &[0, 2] },
    Golden { spec: "weighted", gen_seed: 100, alg: "randPr", alg_seed: 9000, benefit: 11.62168313700127, completed: &[5, 6, 7, 18, 21] },
    Golden { spec: "weighted", gen_seed: 101, alg: "randPr", alg_seed: 9001, benefit: 14.768165245427099, completed: &[1, 5, 12, 24, 29] },
    Golden { spec: "weighted", gen_seed: 100, alg: "hashPr8", alg_seed: 9010, benefit: 5.747643522427261, completed: &[2, 10] },
    Golden { spec: "weighted", gen_seed: 101, alg: "hashPr8", alg_seed: 9011, benefit: 12.493650850853037, completed: &[1, 4, 7, 12, 24] },
    Golden { spec: "weighted", gen_seed: 100, alg: "greedy", alg_seed: 9020, benefit: 20.77844938896644, completed: &[5, 18, 21, 26, 27, 29] },
    Golden { spec: "weighted", gen_seed: 101, alg: "greedy", alg_seed: 9021, benefit: 20.990402248860846, completed: &[1, 12, 19, 21, 22, 24, 28] },
    Golden { spec: "biregular", gen_seed: 100, alg: "randPr", alg_seed: 9000, benefit: 3.0, completed: &[6, 7, 18] },
    Golden { spec: "biregular", gen_seed: 101, alg: "randPr", alg_seed: 9001, benefit: 2.0, completed: &[2, 5] },
    Golden { spec: "biregular", gen_seed: 100, alg: "hashPr8", alg_seed: 9010, benefit: 3.0, completed: &[2, 10, 21] },
    Golden { spec: "biregular", gen_seed: 101, alg: "hashPr8", alg_seed: 9011, benefit: 3.0, completed: &[1, 4, 21] },
    Golden { spec: "biregular", gen_seed: 100, alg: "greedy", alg_seed: 9020, benefit: 3.0, completed: &[0, 4, 5] },
    Golden { spec: "biregular", gen_seed: 101, alg: "greedy", alg_seed: 9021, benefit: 4.0, completed: &[0, 1, 2, 6] },
    Golden { spec: "skewed", gen_seed: 100, alg: "randPr", alg_seed: 9000, benefit: 2.0, completed: &[6, 18] },
    Golden { spec: "skewed", gen_seed: 101, alg: "randPr", alg_seed: 9001, benefit: 1.0, completed: &[5] },
    Golden { spec: "skewed", gen_seed: 100, alg: "hashPr8", alg_seed: 9010, benefit: 1.0, completed: &[10] },
    Golden { spec: "skewed", gen_seed: 101, alg: "hashPr8", alg_seed: 9011, benefit: 1.0, completed: &[1] },
    Golden { spec: "skewed", gen_seed: 100, alg: "greedy", alg_seed: 9020, benefit: 2.0, completed: &[0, 18] },
    Golden { spec: "skewed", gen_seed: 101, alg: "greedy", alg_seed: 9021, benefit: 3.0, completed: &[0, 1, 10] },
];

const SPECS: [&str; 4] = ["uniform", "weighted", "biregular", "skewed"];
const ALGS: [&str; 3] = ["randPr", "hashPr8", "greedy"];

#[test]
fn golden_outcomes_are_stable() {
    if std::env::var("OSP_PRINT_GOLDENS").is_ok() {
        print_goldens();
        return;
    }
    assert!(
        !GOLDENS.is_empty(),
        "golden table is empty — regenerate it (see module docs)"
    );
    let pool = ReplayPool::new(2);
    for g in GOLDENS {
        let instance = build_instance(g.spec, g.gen_seed);
        let label = format!("{}/{}/{}/{}", g.spec, g.gen_seed, g.alg, g.alg_seed);

        let sequential = run(&instance, build_algorithm(g.alg, g.alg_seed).as_mut()).unwrap();
        let expected: Vec<SetId> = g.completed.iter().map(|&i| SetId(i)).collect();
        assert_eq!(sequential.completed(), expected, "{label}: completed");
        assert!(
            sequential.benefit() == g.benefit,
            "{label}: benefit {} != pinned {}",
            sequential.benefit(),
            g.benefit
        );

        // The batch path must reproduce the same golden.
        let batched = pool.run_seeds(&instance, &[g.alg_seed], &|s| build_algorithm(g.alg, s));
        assert_eq!(batched[0], sequential, "{label}: batch diverged");
    }
}

/// Every golden outcome reads back as itself, and the typed and the tree
/// decode agree on it: alone, as a worker's reply, in one fetched batch
/// of all of them, and in perturbed frames around a few of them.
#[test]
fn golden_outcomes_decode_the_same_typed_and_through_the_tree() {
    let outcomes: Vec<Outcome> = GOLDENS
        .iter()
        .map(|g| {
            let instance = build_instance(g.spec, g.gen_seed);
            run(&instance, build_algorithm(g.alg, g.alg_seed).as_mut()).unwrap()
        })
        .collect();
    let agree = |json: String| {
        if let Err(e) = typed_matches_tree(json.as_bytes()) {
            panic!("{e}");
        }
    };
    for outcome in &outcomes {
        let json = serde_json::to_string(outcome).unwrap();
        assert_eq!(&serde_json::from_str::<Outcome>(&json).unwrap(), outcome);
        agree(json);
        agree(serde_json::to_string(&reply::encode(&Ok(outcome.clone()))).unwrap());
    }
    for seed in 0..512u64 {
        let at = seed as usize % outcomes.len();
        let few = &outcomes[at..outcomes.len().min(at + 3)];
        if let Err(e) = typed_matches_tree(&perturb(few, seed)) {
            panic!("seed {seed}: {e}");
        }
    }
    let batch = ServeReply::Results(outcomes.into_iter().map(JobResult::Ok).collect());
    let json = serde_json::to_string(&batch).unwrap();
    assert_eq!(serde_json::from_str::<ServeReply>(&json).unwrap(), batch);
    agree(json);
}

/// Prints the full golden table in source form.
fn print_goldens() {
    println!("const GOLDENS: &[Golden] = &[");
    for spec in SPECS {
        for (ai, alg) in ALGS.iter().enumerate() {
            for trial in 0..2u64 {
                let gen_seed = 100 + trial;
                let alg_seed = 9000 + ai as u64 * 10 + trial;
                let instance = build_instance(spec, gen_seed);
                let out = run(&instance, build_algorithm(alg, alg_seed).as_mut()).unwrap();
                let completed: Vec<String> =
                    out.completed().iter().map(|s| s.0.to_string()).collect();
                println!(
                    "    Golden {{ spec: \"{spec}\", gen_seed: {gen_seed}, alg: \"{alg}\", \
                     alg_seed: {alg_seed}, benefit: {:?}, completed: &[{}] }},",
                    out.benefit(),
                    completed.join(", ")
                );
            }
        }
    }
    println!("];");
}
