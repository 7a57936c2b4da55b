//! Exactly bi-regular instances (uniform set size `k`, uniform element load
//! `σ`) via a configuration model with conflict repair.
//!
//! Corollary 7 of the paper says that on these instances the competitive
//! ratio of `randPr` drops all the way to `k`, independent of `σ` — the
//! only load-independent bound in the paper — so the experiment harness
//! needs a generator that hits the degree constraints *exactly*, not just
//! in expectation.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::instance::{sort_members, Instance, InstanceBuilder};
use crate::SetId;

use super::GenError;

/// Generates an unweighted unit-capacity instance with `m` sets of size
/// exactly `k` and `n = m·k/σ` elements of load exactly `σ`.
///
/// Uses the configuration model: `m·k` set-stubs are shuffled and dealt to
/// elements `σ` at a time; duplicate incidences inside an element are then
/// repaired by random stub swaps. Arrival order is the (shuffled) element
/// order.
///
/// # Errors
///
/// * [`GenError::Infeasible`] if `σ ∤ m·k`, `σ > m`, or a parameter is 0.
/// * [`GenError::RepairFailed`] if repair cannot reach a simple structure
///   (only happens for extremely dense parameters, e.g. `σ` close to `m`).
pub fn biregular_instance<R: Rng + ?Sized>(
    m: usize,
    k: u32,
    sigma: u32,
    rng: &mut R,
) -> Result<Instance, GenError> {
    let stubs = biregular_stubs(m, k, sigma, rng)?;
    let sigma = sigma as usize;
    let n = stubs.len() / sigma;

    let mut builder = InstanceBuilder::new();
    for _ in 0..m {
        builder.add_set(1.0, k);
    }
    for j in 0..n {
        let members: Vec<SetId> = stubs[j * sigma..(j + 1) * sigma]
            .iter()
            .map(|&s| SetId(s))
            .collect();
        builder.add_element(1, &members);
    }
    Ok(builder
        .build()
        .expect("configuration model satisfies builder invariants"))
}

/// The configuration-model core shared by [`biregular_instance`] and the
/// streaming [`BiregularSource`](super::BiregularSource): validates the
/// parameters and returns the repaired flat stub array — element `j`'s
/// member sets are `stubs[j*σ..(j+1)*σ]` (unsorted), guaranteed distinct
/// within each window. One implementation means the two paths cannot
/// drift in their RNG draw sequence.
pub(super) fn biregular_stubs<R: Rng + ?Sized>(
    m: usize,
    k: u32,
    sigma: u32,
    rng: &mut R,
) -> Result<Vec<u32>, GenError> {
    if m == 0 || k == 0 || sigma == 0 {
        return Err(GenError::Infeasible("m, k, σ must all be positive".into()));
    }
    let incidences = m * k as usize;
    if !incidences.is_multiple_of(sigma as usize) {
        return Err(GenError::Infeasible(format!(
            "σ={sigma} must divide m·k={incidences}"
        )));
    }
    if sigma as usize > m {
        return Err(GenError::Infeasible(format!(
            "load σ={sigma} exceeds set count m={m}"
        )));
    }
    let n = incidences / sigma as usize;
    let sigma = sigma as usize;

    // Deal shuffled set-stubs; element j owns stubs[j*σ .. (j+1)*σ].
    let mut stubs: Vec<u32> = Vec::with_capacity(incidences);
    for s in 0..m as u32 {
        stubs.extend(std::iter::repeat_n(s, k as usize));
    }
    // Sorted copy of the window under test, reused across windows.
    let mut sorted: Vec<SetId> = Vec::with_capacity(sigma);

    const MAX_RESTARTS: usize = 50;
    'restart: for _ in 0..MAX_RESTARTS {
        stubs.shuffle(rng);
        // Repair duplicates: for each element window, ensure distinct sets.
        let mut attempts = 0usize;
        let budget = 50 * incidences;
        // Windows before the first conflicting one stay conflict-free: a
        // swap touches only the conflicting window and one other, and is
        // made only when it adds a duplicate to neither. So each scan
        // resumes at the last conflict's window and finds the same first
        // conflict a scan from window 0 would, without rescanning the
        // clean prefix after every swap.
        let mut first = 0usize;
        loop {
            // A window is tested through a sorted copy, where duplicates
            // sit side by side; only a window that has one runs the
            // pairwise scan that picks which stub the repair moves.
            let conflict = (first..n).find_map(|j| {
                let win = &stubs[j * sigma..(j + 1) * sigma];
                sorted.clear();
                sorted.extend(win.iter().map(|&s| SetId(s)));
                sort_members(&mut sorted);
                if !sorted.windows(2).any(|w| w[0] == w[1]) {
                    return None;
                }
                first_duplicate(win).map(|b| j * sigma + b)
            });
            let Some(pos) = conflict else {
                // Simple: hand the repaired pairing back.
                return Ok(stubs);
            };
            if attempts >= budget {
                continue 'restart;
            }
            attempts += 1;
            // Swap the conflicting stub with a random other stub, provided
            // the swap does not create a duplicate in either window.
            let other = rng.gen_range(0..incidences);
            let (je, jo) = (pos / sigma, other / sigma);
            first = je;
            if je == jo {
                continue;
            }
            let (a, b) = (stubs[pos], stubs[other]);
            let win_e = &stubs[je * sigma..(je + 1) * sigma];
            let win_o = &stubs[jo * sigma..(jo + 1) * sigma];
            if win_e.contains(&b) || win_o.contains(&a) {
                continue;
            }
            stubs.swap(pos, other);
        }
    }
    Err(GenError::RepairFailed)
}

/// The position `b` of the first pair `a < b` with `win[a] == win[b]`, in
/// `(a, b)` lexicographic order: the stub the repair moves.
fn first_duplicate(win: &[u32]) -> Option<usize> {
    (0..win.len()).find_map(|a| (a + 1..win.len()).find(|&b| win[a] == win[b]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::InstanceStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn degrees_are_exact() {
        let mut rng = StdRng::seed_from_u64(0);
        let inst = biregular_instance(12, 4, 3, &mut rng).unwrap();
        assert_eq!(inst.num_sets(), 12);
        assert_eq!(inst.num_elements(), 16); // 12*4/3
        let st = InstanceStats::compute(&inst);
        assert_eq!(st.uniform_size, Some(4));
        assert_eq!(st.uniform_load, Some(3));
        assert!(st.unweighted);
        assert!(st.unit_capacity);
    }

    #[test]
    fn no_duplicate_incidences() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = biregular_instance(20, 5, 4, &mut rng).unwrap();
        for a in inst.arrivals() {
            let mut sorted = a.members().to_vec();
            sorted.dedup();
            assert_eq!(sorted.len(), a.members().len());
        }
    }

    #[test]
    fn divisibility_enforced() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(matches!(
            biregular_instance(5, 3, 2, &mut rng), // 15 stubs, σ=2
            Err(GenError::Infeasible(_))
        ));
    }

    #[test]
    fn load_cannot_exceed_sets() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            biregular_instance(3, 4, 4, &mut rng),
            Err(GenError::Infeasible(_))
        ));
    }

    #[test]
    fn zero_parameters_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(biregular_instance(0, 1, 1, &mut rng).is_err());
        assert!(biregular_instance(1, 0, 1, &mut rng).is_err());
        assert!(biregular_instance(1, 1, 0, &mut rng).is_err());
    }

    #[test]
    fn dense_but_feasible_case_works() {
        // σ = m: every element contains every set (complete incidence).
        let mut rng = StdRng::seed_from_u64(5);
        let inst = biregular_instance(4, 6, 4, &mut rng).unwrap();
        let st = InstanceStats::compute(&inst);
        assert_eq!(st.uniform_load, Some(4));
        assert_eq!(st.uniform_size, Some(6));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = biregular_instance(10, 3, 2, &mut StdRng::seed_from_u64(7)).unwrap();
        let b = biregular_instance(10, 3, 2, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn many_seeds_all_succeed() {
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            assert!(
                biregular_instance(24, 6, 4, &mut rng).is_ok(),
                "seed {seed}"
            );
        }
    }
}
