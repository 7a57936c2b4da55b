//! Decoding a fetched batch builds no tree: the allocations it makes do
//! not depend on the size of the outcomes.
//!
//! A `{"results":[…]}` frame of four outcomes is decoded at m = 8000 and
//! at m = 80000 sets, under a counting global allocator. The typed path
//! allocates each flat array (`completed`, `died_at`) once at its final
//! length and borrows every plain key from the input, so both sizes must
//! cost exactly the same number of allocator calls. The tree path, which
//! grows one `Vec<Value>` per array item by item, is measured alongside
//! to show that this count can tell the two apart.
//!
//! Built with `harness = false` (see `Cargo.toml`) so the process has
//! exactly one thread, like the `alloc_free_*` binaries.

use osp_core::engine::DecisionDigest;
use osp_core::serve::ServeReply;
use osp_core::{ElementId, JobResult, Outcome, SetId};
use serde::{Deserialize, Value};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// An engine-shaped outcome over `m` sets: about one in twenty completed,
/// most of the rest dead at some element, a few still alive.
fn outcome(m: u32, salt: u32) -> Outcome {
    let fate = |i: u32| (i.wrapping_mul(2_654_435_761) ^ salt) % 20;
    let completed: Vec<SetId> = (0..m).filter(|&i| fate(i) == 0).map(SetId).collect();
    let died_at = (0..m)
        .map(|i| (fate(i) > 1).then(|| ElementId(i.wrapping_mul(7_919) % (2 * m))))
        .collect();
    let digest: DecisionDigest = "5119084f5912a3174deacdbdf83b1046".parse().unwrap();
    let benefit = completed.len() as f64;
    Outcome::from_parts(
        completed,
        benefit,
        digest,
        2 * u64::from(m),
        8 * u64::from(m),
        died_at,
    )
    .unwrap()
}

/// The frame a client fetches for a four-job batch of size `m`.
fn results_frame(m: u32) -> (ServeReply, Vec<u8>) {
    let reply = ServeReply::Results((0..4).map(|j| JobResult::Ok(outcome(m, j))).collect());
    let bytes = serde_json::to_string(&reply).unwrap().into_bytes();
    (reply, bytes)
}

/// Allocator calls made by `decode`, and its result.
fn counted<T>(decode: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let value = decode();
    (allocations() - before, value)
}

fn main() {
    let mut typed = Vec::new();
    let mut tree = Vec::new();
    for m in [8_000, 80_000] {
        let (want, bytes) = results_frame(m);
        let (calls, got) = counted(|| serde_json::from_slice::<ServeReply>(&bytes).unwrap());
        assert_eq!(got, want, "m={m}: typed decode changed the batch");
        typed.push(calls);
        drop(got);
        let (calls, got) = counted(|| {
            let value = serde_json::from_slice::<Value>(&bytes).unwrap();
            ServeReply::from_value(&value).unwrap()
        });
        assert_eq!(got, want, "m={m}: tree decode changed the batch");
        tree.push(calls);
    }
    println!("allocator calls per 4-outcome results frame at m = 8000, 80000: typed {typed:?}, tree {tree:?}");
    assert_eq!(
        typed[0], typed[1],
        "typed decode allocations grew with the outcome size: {typed:?}"
    );
    assert!(
        tree[1] > tree[0],
        "the tree path no longer grows with m ({tree:?}): this test has lost its reference"
    );
    println!("alloc_bounded_decode: ok");
}
