//! An oracle derived from the paper's definitions, not from the engine.
//!
//! randPr without the active filter, and hashPr, are non-adaptive: every
//! set's priority is fixed before the first arrival, and no decision
//! depends on which sets are still alive. So each outcome has a closed
//! form. S completes iff at every element u ∈ S it is among the b(u)
//! highest priorities in C(u), and `died_at(S)` is the first u, in arrival
//! order, where it is not. This file computes that closed form from the
//! job's arrival stream, with priorities drawn without the engine:
//!
//! * **hashPr**: `PolyHash::eval_naive` of the set id, divided by
//!   2⁶¹ − 1 and fed through the `R_w` quantile (`Rw::from_uniform`), with
//!   the raw word as the tiebreak;
//! * **randPr**: one fresh `StdRng` seeded with the job seed, walked set
//!   by set: the `R_w` sample, then the tiebreak draw, with no
//!   jump-ahead.
//!
//! A set whose weight has no `R_w` gets `Priority::zero()` in both. The
//! engine's outcome must match the closed form in its completed sets, its
//! benefit bits and every `died_at`: on the four generator models of the
//! conformance grid in-process, and (ignored by default, release only) on
//! 10⁶-arrival jobs served by a spawned `osp-serve`.

use std::io::BufRead;
use std::process::{Command, Stdio};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use osp::core::gen::{CapacityModel, LoadModel, RandomInstanceConfig, WeightModel};
use osp::core::priority::{Priority, Rw};
use osp::core::serve::{JobResult, ServeClient};
use osp::core::spec::{run_spec, AlgorithmSpec, CoreResolver, JobSpec, ScenarioSpec};
use osp::core::wire::socket::WorkerAddr;
use osp::core::{derive_seed, ElementId, Outcome, SetId, SetMeta, SpecResolver};
use osp::gf::hash::{PolyHash, MERSENNE_61};

/// The four generator models of the conformance grid (same roster as
/// `tests/process_pool_conformance.rs`).
fn model_grid() -> Vec<(&'static str, ScenarioSpec)> {
    vec![
        (
            "uniform unweighted (m=30, n=80, σ=4)",
            ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(30, 80, 4)),
        ),
        (
            "zipf weights, variable loads and capacities",
            ScenarioSpec::Uniform(RandomInstanceConfig {
                num_sets: 40,
                num_elements: 100,
                load: LoadModel::Uniform { lo: 1, hi: 6 },
                weights: WeightModel::Zipf { exponent: 1.0 },
                capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
            }),
        ),
        (
            "bi-regular (m=24, k=3, σ=6)",
            ScenarioSpec::Biregular {
                num_sets: 24,
                set_size: 3,
                load: 6,
            },
        ),
        (
            "fixed size, skewed loads (m=40, k=4, skew=1.2)",
            ScenarioSpec::FixedSize {
                num_sets: 40,
                set_size: 4,
                num_elements: 90,
                skew: 1.2,
            },
        ),
    ]
}

/// The non-adaptive algorithms the closed form covers.
fn algorithms() -> [AlgorithmSpec; 3] {
    [
        AlgorithmSpec::RandPr,
        AlgorithmSpec::HashRandPr { independence: 8 },
        AlgorithmSpec::HashRandPr { independence: 64 },
    ]
}

/// Each set's priority, drawn from the definitions in the module doc.
fn priorities(algorithm: &AlgorithmSpec, seed: u64, sets: &[SetMeta]) -> Vec<Priority> {
    match algorithm {
        AlgorithmSpec::RandPr => {
            let mut rng = StdRng::seed_from_u64(seed);
            sets.iter()
                .map(|set| match Rw::new(set.weight()) {
                    Ok(rw) => {
                        let value = rw.sample(&mut rng);
                        Priority::new(value, rng.gen())
                    }
                    Err(_) => Priority::zero(),
                })
                .collect()
        }
        AlgorithmSpec::HashRandPr { independence } => {
            let hash = PolyHash::new(*independence, seed);
            (0u64..)
                .zip(sets)
                .map(|(id, set)| match Rw::new(set.weight()) {
                    Ok(rw) => {
                        let raw = hash.eval_naive(id);
                        Priority::new(rw.from_uniform(raw as f64 / MERSENNE_61 as f64), raw)
                    }
                    Err(_) => Priority::zero(),
                })
                .collect()
        }
        other => panic!("{} is adaptive: it has no closed form", other.label()),
    }
}

/// The closed-form outcome of one job.
struct ClosedForm {
    completed: Vec<SetId>,
    benefit: f64,
    died_at: Vec<Option<ElementId>>,
}

/// Streams the job's arrivals from its source and applies the closed
/// form, holding O(m) state: one priority, one arrival count and one
/// death record per set.
fn closed_form(job: &JobSpec) -> ClosedForm {
    let mut source = CoreResolver
        .scenario(&job.scenario, job.seed)
        .expect("the scenario builds");
    let sets = source.sets().to_vec();
    let priority = priorities(&job.algorithm, job.seed, &sets);
    let mut seen = vec![0u32; sets.len()];
    let mut died_at: Vec<Option<ElementId>> = vec![None; sets.len()];
    while let Some(arrival) = source.next_arrival() {
        let members = arrival.members();
        let b = arrival.capacity() as usize;
        for (i, s) in members.iter().enumerate() {
            let p = priority[s.index()];
            let others = members
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, t)| priority[t.index()]);
            let (higher, tied) = others.fold((0, 0), |(higher, tied), q| {
                (higher + usize::from(q > p), tied + usize::from(q == p))
            });
            // S is among the b highest iff fewer than b members outrank
            // it; a tie across that boundary would leave it undefined.
            assert!(
                higher >= b || higher + tied < b,
                "{s:?} ties across the capacity of {:?}",
                arrival.element()
            );
            seen[s.index()] += 1;
            if higher >= b && died_at[s.index()].is_none() {
                died_at[s.index()] = Some(arrival.element());
            }
        }
    }
    let completed: Vec<SetId> = (0..sets.len())
        .filter(|&i| died_at[i].is_none() && seen[i] == sets[i].size())
        .map(|i| SetId(i as u32))
        .collect();
    let benefit = completed.iter().map(|s| sets[s.index()].weight()).sum();
    ClosedForm {
        completed,
        benefit,
        died_at,
    }
}

/// Asserts that `got` is the closed form of `job`.
fn assert_matches_closed_form(label: &str, job: &JobSpec, got: &Outcome) {
    let want = closed_form(job);
    assert_eq!(got.completed(), &want.completed[..], "{label}: completed");
    assert_eq!(
        got.benefit().to_bits(),
        want.benefit.to_bits(),
        "{label}: benefit {} vs closed form {}",
        got.benefit(),
        want.benefit
    );
    for (i, &died) in want.died_at.iter().enumerate() {
        let s = SetId(i as u32);
        assert_eq!(got.died_at(s), died, "{label}: died_at({s:?})");
    }
}

#[test]
fn run_spec_matches_the_closed_form_on_the_generator_grid() {
    let mut checked = 0;
    let mut completions = 0;
    for (model, scenario) in model_grid() {
        for algorithm in algorithms() {
            for trial in 0..4u64 {
                let job = JobSpec {
                    scenario: scenario.clone(),
                    algorithm: algorithm.clone(),
                    seed: derive_seed(907, trial),
                };
                let label = format!("{model} × {} × seed {}", algorithm.label(), job.seed);
                let got = run_spec(&job, &CoreResolver).expect("the job replays");
                assert_matches_closed_form(&label, &job, &got);
                checked += 1;
                completions += got.completed().len();
            }
        }
    }
    assert_eq!(checked, 4 * 3 * 4);
    // The grid sits where the closed form has something to say.
    assert!(completions > checked, "{completions} completions");
}

const SERVED_ARRIVALS: usize = 1_000_000;

#[test]
#[ignore = "serves two 10⁶-arrival jobs; run with `cargo test --release -- --ignored`"]
fn served_million_arrival_jobs_match_the_closed_form() {
    let scenario = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(
        SERVED_ARRIVALS / 2,
        SERVED_ARRIVALS,
        4,
    ));
    let jobs: Vec<JobSpec> = [
        AlgorithmSpec::RandPr,
        AlgorithmSpec::HashRandPr { independence: 64 },
    ]
    .into_iter()
    .zip(31u64..)
    .map(|(algorithm, seed)| JobSpec {
        scenario: scenario.clone(),
        algorithm,
        seed,
    })
    .collect();

    let mut child = Command::new(env!("CARGO_BIN_EXE_osp-serve"))
        .args(["--listen", "127.0.0.1:0"])
        .env_remove("OSP_FAULT")
        .env("OSP_DISPATCH", "threads")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn osp-serve");
    let mut banner = String::new();
    std::io::BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("banner: {banner}"))
        .split_whitespace()
        .next()
        .expect("address in banner");
    let addr = WorkerAddr::parse(addr).expect("banner address parses");
    let mut client = ServeClient::connect(&addr, Duration::from_secs(60)).expect("connect");
    let id = client.submit(&jobs).expect("submit");
    let status = client
        .wait(id, Duration::from_millis(50), Duration::from_secs(300))
        .expect("batch finishes");
    assert_eq!(status.state, "done", "{status:?}");
    let results = client.fetch(id).expect("fetch");
    assert_eq!(results.len(), jobs.len());
    for (job, result) in jobs.iter().zip(&results) {
        let label = job.algorithm.label();
        match result {
            JobResult::Ok(got) => {
                assert_eq!(got.arrivals(), SERVED_ARRIVALS as u64, "{label}");
                assert_matches_closed_form(&label, job, got);
            }
            other => panic!("{label}: expected an outcome, got {other:?}"),
        }
    }
    client.shutdown().expect("clean shutdown");
    assert!(child.wait().expect("server exits").success());
}
