//! A long-lived replay service holds a bounded amount of memory, however
//! many batches it serves.
//!
//! One 4-job batch is resubmitted 10⁴ times to an in-process
//! [`ReplayService`] over [`SpecPool`]; every batch after the first is a
//! full cache hit. Each cached outcome is one shared buffer, and finished
//! batches retire once their results pass `cache_bytes`, so the bytes
//! live after batch 10⁴ must be within a small constant of those live
//! after batch 100. A counting global allocator
//! (`tests/support/counting_alloc.rs`) tracks live bytes: allocations add
//! their size, frees subtract it.

use osp::core::gen::RandomInstanceConfig;
use osp::core::serve::{ReplayService, ServiceConfig};
use osp::core::spec::{run_spec, AlgorithmSpec, CoreResolver, ScenarioSpec};
use osp::core::{derived_jobs, Error, OutcomeJson, ReplayPool, SpecPool};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{live_bytes, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Batches submitted.
const BATCHES: u64 = 10_000;
/// Growth allowed between batch 100 and batch 10⁴. Holding each batch's
/// record, even with its outcomes shared, would add about 3 MB.
const SLACK: i64 = 64 << 10;

#[test]
fn live_bytes_stay_flat_over_ten_thousand_cached_batches() {
    let jobs = derived_jobs(
        &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(400, 1_000, 3)),
        &AlgorithmSpec::RandPr,
        5,
        4,
    );
    let json: usize = jobs
        .iter()
        .map(|job| {
            let outcome = run_spec(job, &CoreResolver).expect("job runs");
            OutcomeJson::encode(&outcome)
                .expect("encodes")
                .as_bytes()
                .len()
        })
        .sum();
    // Room for the four cached outcomes and a few finished batches.
    let service = ReplayService::new(
        Box::new(SpecPool::new(ReplayPool::new(2), CoreResolver)),
        ServiceConfig {
            cache_bytes: 8 * json as u64,
            ..ServiceConfig::default()
        },
    )
    .expect("in-memory service starts");

    let mut after_100 = 0;
    for batch in 1..=BATCHES {
        let id = service.submit(jobs.clone()).expect("queue has room");
        let status = loop {
            let status = service.try_status(id).expect("the newest batch is held");
            if status.state == "done" {
                break status;
            }
            std::thread::yield_now();
        };
        if batch > 1 {
            assert_eq!(status.cached, 4, "batch {batch}: {status:?}");
        }
        if batch == 100 {
            after_100 = live_bytes();
        }
    }
    let after_all = live_bytes();
    let growth = after_all.wrapping_sub(after_100) as i64;
    assert!(
        growth < SLACK,
        "live bytes grew by {growth} between batch 100 ({after_100} B) and batch {BATCHES}"
    );
    assert!(
        matches!(service.try_fetch(1), Err(Error::Unavailable(_))),
        "the first batch must have retired"
    );
    service.shutdown();
}
