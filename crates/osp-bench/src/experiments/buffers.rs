//! `buffers` — open problem 2: the effect of buffers.
//!
//! The paper's model is bufferless; its conclusion asks what buffers
//! change. We put a FIFO buffer of size `B` in front of the same link and
//! sweep `B`, comparing plain drop-tail against priority eviction (the
//! buffered adaptation of randPr).

use osp_net::buffer::{simulate_buffered, BufferPolicy};
use osp_net::trace::{onoff_trace, video_trace, VideoTraceConfig};
use osp_stats::{SeedSequence, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::pool::{draw_seeds, pool};
use crate::report::{NamedTable, Report};
use crate::Scale;

/// Runs the experiment.
pub fn run(scale: Scale, seed: u64) -> Report {
    let repeats: usize = scale.pick(3, 10);
    let evict_seeds: u64 = scale.pick(5, 20);
    let mut seeds = SeedSequence::new(seed).child("buffers");

    let mut report = Report::new(
        "buffers",
        "Open problem 2: goodput vs buffer size",
        "A FIFO buffer lets the link ride out bursts. Goodput should rise monotonically \
         with B and saturate once B covers the burst scale; priority eviction (randPr \
         adapted to buffers) should dominate drop-tail at every B on weighted traffic.",
    );

    let mut table = NamedTable::new(
        "Buffered router (8 sources, capacity 3, standard GOP; means over traces)",
        &[
            "buffer B",
            "drop-tail frames",
            "drop-tail weight",
            "priority-evict frames",
            "priority-evict weight",
            "offered frames",
        ],
    );
    let buffer_sizes: &[usize] =
        scale.pick(&[0usize, 4, 16][..], &[0usize, 1, 2, 4, 8, 16, 32, 64][..]);
    for &b in buffer_sizes {
        let mut dt_frames = Summary::new();
        let mut dt_weight = Summary::new();
        let mut pe_frames = Summary::new();
        let mut pe_weight = Summary::new();
        let mut offered = 0usize;
        // Per repeat: one trace seed, then the eviction seeds — drawn
        // sequentially (the pre-batching order), simulated in parallel.
        let repeat_seeds: Vec<(u64, Vec<u64>)> = (0..repeats)
            .map(|_| {
                (
                    seeds.next_seed(),
                    draw_seeds(&mut seeds, evict_seeds as usize),
                )
            })
            .collect();
        let per_repeat = pool().map(&repeat_seeds, |_, _, (trace_seed, pe_seeds)| {
            let cfg = VideoTraceConfig {
                sources: 8,
                frames_per_source: 30,
                gop: osp_net::GopConfig::standard(),
                frame_interval: 8,
                capacity: 3,
                jitter: 0,
            };
            let mut rng = StdRng::seed_from_u64(*trace_seed);
            let trace = video_trace(&cfg, &mut rng);
            let dt = simulate_buffered(&trace, b, BufferPolicy::DropTail);
            let pe: Vec<_> = pe_seeds
                .iter()
                .map(|&seed| simulate_buffered(&trace, b, BufferPolicy::PriorityEvict { seed }))
                .collect();
            (trace.frames().len(), dt, pe)
        });
        for (frames, dt, pe) in per_repeat {
            offered = frames;
            dt_frames.add(dt.frames_delivered as f64);
            dt_weight.add(dt.weight_delivered);
            for r in pe {
                pe_frames.add(r.frames_delivered as f64);
                pe_weight.add(r.weight_delivered);
            }
        }
        table.row(vec![
            b.to_string(),
            format!("{:.1}", dt_frames.mean()),
            format!("{:.1}", dt_weight.mean()),
            format!("{:.1}", pe_frames.mean()),
            format!("{:.1}", pe_weight.mean()),
            offered.to_string(),
        ]);
    }
    report.table(table);

    // On-off (Gilbert) traffic: long bursts, the regime where buffers pay
    // off slowest — drops concentrate inside on-periods whose length far
    // exceeds any affordable buffer.
    let mut onoff_table = NamedTable::new(
        "On-off traffic (burst rate 4, p_on→off = p_off→on = 0.05, capacity 2)",
        &[
            "buffer B",
            "drop-tail frames",
            "dropped",
            "offered frames",
            "max burst",
        ],
    );
    for &b in buffer_sizes {
        let mut frames = Summary::new();
        let mut dropped = Summary::new();
        let mut offered = 0usize;
        let mut max_burst = 0usize;
        let trace_seeds = draw_seeds(&mut seeds, repeats);
        for (n, burst, r) in pool().map(&trace_seeds, |_, _, &seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let trace = onoff_trace(4, 0.05, 0.05, 300, (1, 3), 2, &mut rng);
            let r = simulate_buffered(&trace, b, BufferPolicy::DropTail);
            (trace.frames().len(), trace.max_burst(), r)
        }) {
            offered = n;
            max_burst = max_burst.max(burst);
            frames.add(r.frames_delivered as f64);
            dropped.add(r.packets_dropped as f64);
        }
        onoff_table.row(vec![
            b.to_string(),
            format!("{:.1}", frames.mean()),
            format!("{:.1}", dropped.mean()),
            offered.to_string(),
            max_burst.to_string(),
        ]);
    }
    report.table(onoff_table);

    report.note(
        "Verdict criteria: both policies improve monotonically with B and converge once \
         the buffer absorbs the largest burst — buffers substitute for cleverness at the \
         cost of delay, which is the qualitative answer to the open problem. Under on-off \
         traffic the saturation point moves out with the on-period length: buffers must \
         cover the *burst duration × excess rate*, not just the instantaneous burst.",
    );
    report
}
