//! Criterion bench: the wire layer on served-size frames.
//!
//! Each job is the size of the served benchmark's (uniform, m = 8000
//! sets, n = 16000 arrivals, σ = 4). The rows time the `{"ok": Outcome}`
//! reply a worker sends (encode, and decode as the `ServerFrame` the
//! dispatcher reads), and the `{"results": […]}` frame
//! a client fetches for a four-job batch (randPr and 16-wise hashPr):
//! the local numbers for what an outcome crossing costs, next to the
//! `engine` and `priority` benches.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use osp_core::gen::RandomInstanceConfig;
use osp_core::serve::{JobResult, ServeReply};
use osp_core::spec::{run_spec, AlgorithmSpec, CoreResolver, JobSpec, ScenarioSpec};
use osp_core::wire::{read_message, write_message, ServerFrame};

fn served_job(seed: u64) -> JobSpec {
    JobSpec {
        scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(8_000, 16_000, 4)),
        algorithm: if seed % 2 == 1 {
            AlgorithmSpec::RandPr
        } else {
            AlgorithmSpec::HashRandPr { independence: 16 }
        },
        seed,
    }
}

fn bench_wire(c: &mut Criterion) {
    let message = ServerFrame::from(run_spec(&served_job(1), &CoreResolver));
    let mut frame = Vec::new();
    write_message(&mut frame, &message).expect("reply encodes");

    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("encode_reply_m8000", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            write_message(&mut out, &message).expect("reply encodes");
            out.len()
        })
    });
    group.bench_function("decode_server_frame_m8000", |b| {
        b.iter(|| {
            read_message::<_, ServerFrame>(&mut frame.as_slice())
                .expect("frame decodes")
                .is_some()
        })
    });

    let results = (1..=4)
        .map(|seed| JobResult::Ok(run_spec(&served_job(seed), &CoreResolver).expect("job runs")))
        .collect();
    let mut fetched = Vec::new();
    write_message(&mut fetched, &ServeReply::Results(results)).expect("results encode");
    group.throughput(Throughput::Bytes(fetched.len() as u64));
    group.bench_function("decode_results_4x_m8000", |b| {
        b.iter(|| {
            read_message::<_, ServeReply>(&mut fetched.as_slice())
                .expect("results decode")
                .is_some()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_wire
}
criterion_main!(benches);
