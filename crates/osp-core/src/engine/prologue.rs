//! The parallel table-build prologue: shard an O(m) per-set table across
//! scoped threads before the (sequential) arrival loop starts.
//!
//! `begin()`-time state — `randPr`'s priority table, `hashPr`'s hashed
//! priorities — is one value per set, and every built-in algorithm
//! computes slot `i` as a **pure function of `(seed, i)`**: `hashPr`
//! evaluates a shared polynomial at the set id (each shard walks its
//! range of ids by forward differences seeded at the range's first id,
//! which is exact in the hash field), and `randPr` draws from a
//! counter-based SplitMix64 stream whose position before set `i` is known
//! without generating (two draws per positive-weight set, none
//! otherwise, plus `StdRng::advance` jump-ahead). That makes the table
//! fill embarrassingly parallel *without* touching the bit-identity
//! contract: any shard count writes exactly the same bytes.
//!
//! [`build_table`] is the one seam both algorithms ride — disjoint
//! contiguous index ranges handed to scoped threads by the engine's one
//! splitter, the same one [`ReplayPool`](super::batch::ReplayPool) shards
//! jobs with. The algorithms' `begin` takes the thread count from the
//! `OSP_PROLOGUE_THREADS` variable under the workspace-wide
//! [`env_parallelism`](super::batch::env_parallelism) policy (unset →
//! machine default, `0` → 1, junk → machine default); one thread is
//! exactly the historical serial path (the fill closure runs on the
//! caller's thread over the full range). `tests/batch_equivalence.rs`
//! pins shard counts {1, 2, 8} bit-identical for both algorithms.

use super::batch::split_ranges;

/// The environment variable sizing the prologue fan-out.
pub const PROLOGUE_THREADS_VAR: &str = "OSP_PROLOGUE_THREADS";

/// Builds an `m`-slot table by sharding disjoint contiguous index ranges
/// across `threads` scoped threads.
///
/// `fill(start, slots)` must write every slot of `slots`, where
/// `slots[j]` is table entry `start + j` — and must be a pure function of
/// the entry indices (no shared mutable state), which is what makes the
/// result independent of the shard count. The table is pre-filled with
/// `placeholder` only so the slices exist to hand out; every slot is
/// overwritten.
///
/// `threads <= 1` (or a table too small to split) degenerates to one
/// `fill(0, ..)` call on the caller's thread — the serial path.
pub fn build_table<T, F>(m: usize, placeholder: T, threads: usize, fill: &F) -> Vec<T>
where
    T: Copy + Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let mut table = vec![placeholder; m];
    split_ranges(&mut table, threads, fill);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_slot_is_filled_at_any_thread_count() {
        let fill = |start: usize, slots: &mut [u64]| {
            for (j, slot) in slots.iter_mut().enumerate() {
                *slot = (start + j) as u64 * 3 + 1;
            }
        };
        let want: Vec<u64> = (0..97u64).map(|i| i * 3 + 1).collect();
        for threads in [0usize, 1, 2, 3, 8, 97, 200] {
            assert_eq!(
                build_table(97, 0u64, threads, &fill),
                want,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_table_is_fine() {
        let fill = |_: usize, slots: &mut [u8]| assert!(slots.is_empty());
        assert!(build_table(0, 0u8, 4, &fill).is_empty());
    }

    #[test]
    fn fill_sees_disjoint_contiguous_ranges() {
        // Record the (start, len) of every range a 4-thread build hands
        // out; together they must tile 0..m exactly once.
        use std::sync::Mutex;
        let ranges = Mutex::new(Vec::new());
        let fill = |start: usize, slots: &mut [u32]| {
            ranges.lock().unwrap().push((start, slots.len()));
            slots.fill(1);
        };
        let table = build_table(10, 0u32, 4, &fill);
        assert_eq!(table, vec![1u32; 10]);
        let mut ranges = ranges.into_inner().unwrap();
        ranges.sort_unstable();
        let mut next = 0;
        for (start, len) in ranges {
            assert_eq!(start, next);
            next = start + len;
        }
        assert_eq!(next, 10);
    }
}
