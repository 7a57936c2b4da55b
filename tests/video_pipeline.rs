//! Integration: the video scenario end to end — trace generation, OSP
//! mapping, engine run, goodput extraction, buffered extension.

use osp::core::prelude::*;
use osp::net::buffer::{simulate_buffered, BufferPolicy};
use osp::net::metrics::goodput;
use osp::net::policy::{RandomDrop, TailDrop};
use osp::net::{trace_to_instance, video_trace, GopConfig, VideoTraceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(sources: usize) -> VideoTraceConfig {
    VideoTraceConfig {
        sources,
        frames_per_source: 25,
        gop: GopConfig::standard(),
        frame_interval: 8,
        capacity: 4,
        jitter: 0,
    }
}

#[test]
fn mapping_preserves_traffic_structure() {
    let mut rng = StdRng::seed_from_u64(0);
    let trace = video_trace(&config(6), &mut rng);
    let mapped = trace_to_instance(&trace);
    // One set per frame, sizes = packet counts, loads = burst sizes.
    assert_eq!(mapped.instance.num_sets(), trace.frames().len());
    let st = InstanceStats::compute(&mapped.instance);
    assert_eq!(st.sigma_max as usize, trace.max_burst());
    let packets: u32 = trace.frames().iter().map(|f| f.packets).sum();
    let incidences: u32 = mapped.instance.arrivals().iter().map(|a| a.load()).sum();
    assert_eq!(packets, incidences);
}

#[test]
fn all_policies_produce_valid_outcomes_and_randpr_wins_where_it_should() {
    let mut rng = StdRng::seed_from_u64(1);
    let trace = video_trace(&config(10), &mut rng);
    let mapped = trace_to_instance(&trace);

    // Deterministic tail-drop: one run.
    let tail_out = run(&mapped.instance, &mut TailDrop::new()).unwrap();
    let tail = goodput(&trace, &mapped.instance, &tail_out);
    assert_eq!(tail.weight_delivered, tail_out.benefit());

    // Randomized policies: average over seeds.
    let trials = 30u64;
    let (mut rp_weight, mut rp_iframes) = (0.0, 0.0);
    let (mut rd_weight, mut rd_iframes) = (0.0, 0.0);
    for seed in 0..trials {
        let out = run(&mapped.instance, &mut RandPr::from_seed(seed)).unwrap();
        let g = goodput(&trace, &mapped.instance, &out);
        assert!((0.0..=1.0).contains(&g.frame_rate()));
        assert!((0.0..=1.0).contains(&g.packet_rate()));
        rp_weight += g.weight_rate();
        rp_iframes += g.per_class_delivered[0] as f64;
        let out = run(&mapped.instance, &mut RandomDrop::from_seed(seed)).unwrap();
        let g = goodput(&trace, &mapped.instance, &out);
        rd_weight += g.weight_rate();
        rd_iframes += g.per_class_delivered[0] as f64;
    }
    let n = trials as f64;
    // The weighted algorithm must clearly beat the frame-oblivious random
    // policy on weighted goodput, and deliver more heavy I-frames than
    // tail-drop (which serves frames regardless of their value).
    assert!(
        rp_weight / n > rd_weight / n,
        "randPr weight rate {} not above random-drop {}",
        rp_weight / n,
        rd_weight / n
    );
    assert!(
        rp_iframes / n >= tail.per_class_delivered[0] as f64,
        "randPr mean I-frames {} below tail-drop {}",
        rp_iframes / n,
        tail.per_class_delivered[0]
    );
    assert!(
        rp_iframes > rd_iframes,
        "randPr I-frames {rp_iframes} not above random-drop {rd_iframes}"
    );
}

#[test]
fn goodput_classes_sum_to_totals() {
    let mut rng = StdRng::seed_from_u64(2);
    let trace = video_trace(&config(5), &mut rng);
    let mapped = trace_to_instance(&trace);
    let out = run(&mapped.instance, &mut RandPr::from_seed(0)).unwrap();
    let g = goodput(&trace, &mapped.instance, &out);
    assert_eq!(g.per_class_offered.iter().sum::<usize>(), g.frames_offered);
    assert_eq!(
        g.per_class_delivered.iter().sum::<usize>(),
        g.frames_delivered
    );
}

#[test]
fn buffered_router_dominates_bufferless_and_saturates() {
    let mut rng = StdRng::seed_from_u64(3);
    let trace = video_trace(&config(10), &mut rng);
    let no_buffer = simulate_buffered(&trace, 0, BufferPolicy::DropTail);
    let some = simulate_buffered(&trace, 8, BufferPolicy::DropTail);
    let huge = simulate_buffered(&trace, 10_000, BufferPolicy::DropTail);
    assert!(some.frames_delivered >= no_buffer.frames_delivered);
    assert!(huge.frames_delivered >= some.frames_delivered);
    // An unbounded buffer never drops and eventually delivers everything.
    assert_eq!(huge.packets_dropped, 0);
    assert_eq!(huge.frames_delivered, trace.frames().len());
}

#[test]
fn partial_credit_is_monotone_in_theta() {
    use osp::net::partial::{partial_benefit, run_logged};
    let mut rng = StdRng::seed_from_u64(4);
    let trace = video_trace(&config(10), &mut rng);
    let mapped = trace_to_instance(&trace);
    let (out, log) = run_logged(&mapped.instance, &mut TailDrop::new()).unwrap();
    let mut last = f64::INFINITY;
    for theta in [0.25, 0.5, 0.75, 1.0] {
        let b = partial_benefit(&mapped.instance, &log, theta);
        assert!(b <= last, "benefit must fall as θ rises");
        last = b;
    }
    // θ=1 equals the strict benefit.
    assert_eq!(partial_benefit(&mapped.instance, &log, 1.0), out.benefit());
}
