//! `video` — the paper's motivating scenario, end to end.
//!
//! GOP-structured video from several sources multiplexes onto one
//! bottleneck link. Frame-oblivious policies (tail-drop, random-drop)
//! serve packets greedily; frame-aware `randPr` maximizes *complete*
//! frames. The signature result: oblivious policies win on raw packet
//! rate yet lose badly on frame goodput, and the gap widens with load.

use osp_core::algorithms::{GreedyOnline, HashRandPr, RandPr, TieBreak};
use osp_core::{run_source_with_scratch, OnlineAlgorithm};
use osp_net::metrics::goodput;
use osp_net::policy::{RandomDrop, TailDrop};
use osp_net::trace::{video_trace, VideoTraceConfig};
use osp_net::trace_to_instance;
use osp_stats::{SeedSequence, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::pool::pool;
use crate::report::{NamedTable, Report};
use crate::Scale;

/// Policy selectors for the batched replay jobs.
const TAIL_DROP: usize = 0;
const RANDOM_DROP: usize = 1;
const GREEDY_FR: usize = 2;
const RAND_PR: usize = 3;
const HASH_PR: usize = 4;

fn policy_factory(alg: usize, seed: u64) -> Box<dyn OnlineAlgorithm> {
    match alg {
        TAIL_DROP => Box::new(TailDrop::new()),
        RANDOM_DROP => Box::new(RandomDrop::from_seed(seed)),
        GREEDY_FR => Box::new(GreedyOnline::new(TieBreak::ByFewestRemaining)),
        RAND_PR => Box::new(RandPr::from_seed(seed)),
        _ => Box::new(HashRandPr::new(8, seed)),
    }
}

fn policy_name(alg: usize) -> &'static str {
    match alg {
        TAIL_DROP => "tail-drop",
        RANDOM_DROP => "random-drop",
        GREEDY_FR => "greedy[fewest-remaining]",
        RAND_PR => "randPr",
        _ => "hashPr(8-wise)",
    }
}

/// Runs the experiment.
pub fn run(scale: Scale, seed: u64) -> Report {
    let repeats: usize = scale.pick(3, 10);
    let randomized_trials: usize = scale.pick(10, 40);
    let mut seeds = SeedSequence::new(seed).child("video");

    let mut report = Report::new(
        "video",
        "Video over a bottleneck router (§1, scenario 1)",
        "Frames are useful only when every packet arrives. Frame-aware randPr trades raw \
         packet throughput for complete-frame goodput; frame-oblivious tail-drop does the \
         opposite. The gap should widen as the number of sources (burstiness) grows.",
    );

    for &sources in scale.pick(&[6usize, 10][..], &[4usize, 6, 8, 12][..]) {
        let mut table = NamedTable::new(
            &format!("{sources} sources, capacity 4, standard GOP (means over {repeats} traces)"),
            &[
                "policy",
                "frame rate",
                "weight rate",
                "packet rate",
                "I-frames",
                "B-frames",
            ],
        );
        // Policy name -> aggregated metrics.
        let mut rows: Vec<(String, Summary, Summary, Summary, Summary, Summary)> = Vec::new();
        for _ in 0..repeats {
            let cfg = VideoTraceConfig {
                sources,
                frames_per_source: 30,
                gop: osp_net::GopConfig::standard(),
                frame_interval: 8,
                capacity: 4,
                jitter: 0,
            };
            let mut rng = StdRng::seed_from_u64(seeds.next_seed());
            let trace = video_trace(&cfg, &mut rng);
            let mapped = trace_to_instance(&trace);

            // One batched work-list per trace; seeds are drawn here in the
            // same order the old per-policy loops drew them.
            let mut specs: Vec<(usize, u64)> = vec![(TAIL_DROP, 0)];
            specs.extend((0..randomized_trials).map(|_| (RANDOM_DROP, seeds.next_seed())));
            specs.push((GREEDY_FR, 0));
            specs.extend((0..randomized_trials).map(|_| (RAND_PR, seeds.next_seed())));
            specs.extend((0..randomized_trials).map(|_| (HASH_PR, seeds.next_seed())));
            let outcomes = pool().map(&specs, |scratch, _, &(algorithm, seed)| {
                run_source_with_scratch(
                    &mut mapped.instance.source(),
                    policy_factory(algorithm, seed).as_mut(),
                    scratch,
                )
            });
            for (&(algorithm, _), out) in specs.iter().zip(outcomes) {
                let name = policy_name(algorithm);
                let idx = match rows.iter().position(|r| r.0 == name) {
                    Some(i) => i,
                    None => {
                        rows.push((
                            name.to_string(),
                            Summary::new(),
                            Summary::new(),
                            Summary::new(),
                            Summary::new(),
                            Summary::new(),
                        ));
                        rows.len() - 1
                    }
                };
                let out = out.expect("built-in policies are valid");
                let g = goodput(&trace, &mapped.instance, &out);
                rows[idx].1.add(g.frame_rate());
                rows[idx].2.add(g.weight_rate());
                rows[idx].3.add(g.packet_rate());
                rows[idx]
                    .4
                    .add(g.per_class_delivered[0] as f64 / g.per_class_offered[0].max(1) as f64);
                rows[idx]
                    .5
                    .add(g.per_class_delivered[2] as f64 / g.per_class_offered[2].max(1) as f64);
            }
        }
        for (name, fr, wr, pr, ifr, bfr) in &rows {
            table.row(vec![
                name.clone(),
                format!("{:.3}", fr.mean()),
                format!("{:.3}", wr.mean()),
                format!("{:.3}", pr.mean()),
                format!("{:.3}", ifr.mean()),
                format!("{:.3}", bfr.mean()),
            ]);
        }
        report.table(table);
    }
    report.note(
        "Reading guide: random-drop — the genuinely frame-oblivious policy — collapses on \
         weighted goodput and essentially never delivers an I-frame under load. Tail-drop \
         fares better than naive expectation because serving the lowest frame ids \
         approximates oldest-frame-first, an accidental form of frame awareness — but it is \
         value-blind, so randPr beats it on weight rate and on I-frames, the metric the \
         weighted model optimizes. greedy[fewest-remaining] tops raw frame counts here but \
         is exactly the policy Theorem 3 destroys adversarially (see thm3); randPr's \
         guarantee is worst-case, not just average-case. hashPr matches randPr — the \
         distributed implementation costs nothing.",
    );
    report
}
