//! Criterion bench: the wire layer on one served-size reply frame.
//!
//! Encodes and decodes the `{"ok": Outcome}` reply a worker sends for a
//! job the size of the served benchmark's (uniform, m = 8000 sets,
//! n = 16000 arrivals, σ = 4, randPr): the local number for what one
//! outcome crossing costs, next to the `engine` and `priority` benches.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use osp_core::gen::RandomInstanceConfig;
use osp_core::spec::{run_spec, AlgorithmSpec, CoreResolver, JobSpec, ScenarioSpec};
use osp_core::wire::{read_message, reply, write_message};

fn bench_wire(c: &mut Criterion) {
    let job = JobSpec {
        scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(8_000, 16_000, 4)),
        algorithm: AlgorithmSpec::RandPr,
        seed: 1,
    };
    let outcome = run_spec(&job, &CoreResolver).expect("served-size job runs");
    let message = reply::encode(&Ok(outcome));
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
    group.bench_function("decode_reply_m8000", |b| {
        b.iter(|| {
            read_message::<_, reply::Reply>(&mut frame.as_slice())
                .expect("reply decodes")
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
