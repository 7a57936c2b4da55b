//! Property-based tests: field axioms, polynomial ring laws, hash behavior.

use proptest::prelude::*;

use osp_gf::hash::{PolyHash, MERSENNE_61};
use osp_gf::poly;
use osp_gf::prime::{is_prime, next_prime_power, prime_power};
use osp_gf::Gf;

/// Prime powers small enough for exhaustive element sampling.
const SMALL_PRIME_POWERS: [u64; 12] = [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32];

proptest! {
    // ---------------- primality ----------------

    #[test]
    fn prime_power_factorization_is_sound(n in 2u64..100_000) {
        if let Some((p, m)) = prime_power(n) {
            prop_assert!(is_prime(p));
            prop_assert_eq!(p.pow(m), n);
        }
    }

    #[test]
    fn next_prime_power_is_minimal(n in 2u64..10_000) {
        let q = next_prime_power(n);
        prop_assert!(q >= n);
        prop_assert!(prime_power(q).is_some());
        for c in n..q {
            prop_assert!(prime_power(c).is_none(), "{c} < {q} is a prime power");
        }
    }

    // ---------------- field axioms ----------------

    #[test]
    fn field_ring_laws(qi in 0usize..SMALL_PRIME_POWERS.len(), a in 0u64..32, b in 0u64..32, c in 0u64..32) {
        let q = SMALL_PRIME_POWERS[qi];
        let f = Gf::new(q).unwrap();
        let (a, b, c) = (a % q, b % q, c % q);
        // Commutativity.
        prop_assert_eq!(f.add(a, b), f.add(b, a));
        prop_assert_eq!(f.mul(a, b), f.mul(b, a));
        // Associativity.
        prop_assert_eq!(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
        prop_assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
        // Distributivity.
        prop_assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
        // Inverses.
        prop_assert_eq!(f.add(a, f.neg(a)), 0);
        if a != 0 {
            prop_assert_eq!(f.mul(a, f.inv(a).unwrap()), 1);
        }
        // Subtraction is addition of the negation.
        prop_assert_eq!(f.sub(a, b), f.add(a, f.neg(b)));
    }

    #[test]
    fn frobenius_fixes_prime_subfield(qi in 0usize..SMALL_PRIME_POWERS.len(), a in 0u64..32) {
        let q = SMALL_PRIME_POWERS[qi];
        let f = Gf::new(q).unwrap();
        let p = f.characteristic();
        // x -> x^p fixes exactly the prime subfield elements {0..p-1}?
        // At minimum it must fix 0..p-1 (they embed Z_p).
        let a = a % p;
        prop_assert_eq!(f.pow(a, p), a);
    }

    // ---------------- polynomial ring ----------------

    #[test]
    fn poly_ring_laws(
        p in proptest::sample::select(vec![2u64, 3, 5, 7]),
        f in proptest::collection::vec(0u64..7, 0..5),
        g in proptest::collection::vec(0u64..7, 0..5),
        h in proptest::collection::vec(0u64..7, 0..5),
    ) {
        let f: Vec<u64> = poly::normalize(f.iter().map(|c| c % p).collect());
        let g: Vec<u64> = poly::normalize(g.iter().map(|c| c % p).collect());
        let h: Vec<u64> = poly::normalize(h.iter().map(|c| c % p).collect());
        prop_assert_eq!(poly::add(&f, &g, p), poly::add(&g, &f, p));
        prop_assert_eq!(poly::mul(&f, &g, p), poly::mul(&g, &f, p));
        prop_assert_eq!(
            poly::mul(&f, &poly::add(&g, &h, p), p),
            poly::add(&poly::mul(&f, &g, p), &poly::mul(&f, &h, p), p)
        );
        prop_assert_eq!(poly::sub(&poly::add(&f, &g, p), &g, p), f.clone());
    }

    #[test]
    fn poly_rem_is_a_proper_remainder(
        p in proptest::sample::select(vec![2u64, 3, 5]),
        f in proptest::collection::vec(0u64..5, 0..7),
        g_low in proptest::collection::vec(0u64..5, 1..4),
    ) {
        // Make g monic of degree |g_low|.
        let mut g: Vec<u64> = g_low.iter().map(|c| c % p).collect();
        g.push(1);
        let f: Vec<u64> = poly::normalize(f.iter().map(|c| c % p).collect());
        let r = poly::rem(&f, &g, p);
        // deg r < deg g, and g | (f - r).
        prop_assert!(poly::degree(&r).is_none_or(|dr| dr < poly::degree(&g).unwrap()));
        let diff = poly::sub(&f, &r, p);
        let check = poly::rem(&diff, &g, p);
        prop_assert!(check.is_empty(), "g does not divide f - r");
    }

    #[test]
    fn poly_gcd_divides_both(
        p in proptest::sample::select(vec![2u64, 3, 5]),
        f in proptest::collection::vec(0u64..5, 1..5),
        g in proptest::collection::vec(0u64..5, 1..5),
    ) {
        let f: Vec<u64> = poly::normalize(f.iter().map(|c| c % p).collect());
        let g: Vec<u64> = poly::normalize(g.iter().map(|c| c % p).collect());
        let d = poly::gcd(&f, &g, p);
        if !d.is_empty() {
            prop_assert!(poly::rem(&f, &d, p).is_empty());
            prop_assert!(poly::rem(&g, &d, p).is_empty());
        } else {
            // gcd is zero only when both inputs are zero.
            prop_assert!(f.is_empty() && g.is_empty());
        }
    }

    // ---------------- hashing ----------------

    #[test]
    fn hash_is_deterministic_and_in_range(
        independence in 1usize..8,
        seed in 0u64..1000,
        x in 0u64..u64::MAX,
    ) {
        let h1 = PolyHash::new(independence, seed);
        let h2 = PolyHash::new(independence, seed);
        let v = h1.eval(x);
        prop_assert_eq!(v, h2.eval(x));
        prop_assert!(v < MERSENNE_61);
        let u = h1.unit(x);
        prop_assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn hash_keys_congruent_mod_p_collide(seed in 0u64..1000, x in 0u64..MERSENNE_61) {
        // eval reduces keys mod 2^61-1 first; congruent keys must agree.
        let h = PolyHash::new(4, seed);
        if let Some(y) = x.checked_add(MERSENNE_61) {
            prop_assert_eq!(h.eval(x), h.eval(y));
        }
    }

    #[test]
    fn eval_fast_path_agrees_with_naive_random_members(
        independence in 1usize..24,
        seed in 0u64..5000,
        x in 0u64..u64::MAX,
    ) {
        // The lazy-reduction Horner and the precomputed-powers reference
        // must agree on every family member and every point.
        let h = PolyHash::new(independence, seed);
        prop_assert_eq!(h.eval(x), h.eval_naive(x));
        prop_assert!(h.eval(x) < MERSENNE_61);
    }

    #[test]
    fn eval_fast_path_agrees_with_naive_boundary_coeffs(
        picks in proptest::collection::vec(0usize..5, 1..20),
        x in 0u64..u64::MAX,
    ) {
        // Coefficients drawn from the field's boundary values, where lazy
        // reduction is most likely to go wrong.
        let boundary = [0u64, 1, 2, MERSENNE_61 - 2, MERSENNE_61 - 1];
        let coeffs: Vec<u64> = picks.iter().map(|&i| boundary[i]).collect();
        let h = PolyHash::from_coeffs(coeffs);
        for key in [x, 0, 1, MERSENNE_61 - 1, MERSENNE_61, u64::MAX] {
            prop_assert_eq!(h.eval(key), h.eval_naive(key));
        }
    }

    #[test]
    fn eval_batch_agrees_with_eval_and_naive(
        independence in 1usize..40,
        seed in 0u64..5000,
        keys in proptest::collection::vec(0u64..u64::MAX, 0..30),
    ) {
        // The transposed multi-key kernel against both scalar `eval` and
        // the precomputed-powers reference — key counts 0..30 hit every
        // 8-lane/4-lane/1-to-3-key tail remainder class.
        let h = PolyHash::new(independence, seed);
        let mut got = vec![0u64; keys.len()];
        h.eval_batch(&keys, &mut got);
        for (&x, &g) in keys.iter().zip(&got) {
            prop_assert_eq!(g, h.eval(x));
            prop_assert_eq!(g, h.eval_naive(x));
            prop_assert!(g < MERSENNE_61);
        }
    }

    #[test]
    fn eval_batch_boundary_coeffs_agree(
        picks in proptest::collection::vec(0usize..5, 1..20),
        extra in 0u64..u64::MAX,
    ) {
        // Boundary coefficients (where the six-step renormalization bound
        // is tightest) against boundary keys, at a width that exercises
        // full 8-lanes, the 4-lane middle, and a 1-key tail at once.
        let boundary = [0u64, 1, 2, MERSENNE_61 - 2, MERSENNE_61 - 1];
        let coeffs: Vec<u64> = picks.iter().map(|&i| boundary[i]).collect();
        let h = PolyHash::from_coeffs(coeffs);
        let keys = [
            extra, 0, 1, 2, MERSENNE_61 - 2, MERSENNE_61 - 1,
            MERSENNE_61, MERSENNE_61 + 1, u64::MAX - 1, u64::MAX,
            extra ^ MERSENNE_61, extra.wrapping_mul(3), extra >> 7,
        ];
        let mut got = [0u64; 13];
        h.eval_batch(&keys, &mut got);
        for (&x, &g) in keys.iter().zip(&got) {
            prop_assert_eq!(g, h.eval_naive(x));
        }
    }

    #[test]
    fn reduce128_canonicalization_is_branchless_and_exact(
        hi in 0u64..u64::MAX,
        lo in 0u64..u64::MAX,
    ) {
        // eval's final canonicalization (two fixed folds + one
        // conditional subtract) must equal the data-dependent while-loop
        // it replaced, over the *entire* u128 range. reduce128 is
        // private, so probe it through from_coeffs: a constant
        // polynomial's eval is exactly reduce128(c as u128) — and the
        // loop reference is inlined here.
        let x = ((hi as u128) << 64) | lo as u128;
        let loop_reference = {
            let m = MERSENNE_61 as u128;
            let mut v = x;
            while v >> 61 != 0 {
                v = (v & m) + (v >> 61);
            }
            let mut s = v as u64;
            if s >= MERSENNE_61 {
                s -= MERSENNE_61;
            }
            s
        };
        let two_folds = {
            let fold = |v: u128| (v & MERSENNE_61 as u128) + (v >> 61);
            let s = fold(fold(x)) as u64;
            if s >= MERSENNE_61 { s - MERSENNE_61 } else { s }
        };
        prop_assert_eq!(two_folds, loop_reference);
        // And the shipped reduce128, via a constant polynomial whose
        // single (canonical) coefficient forces acc = c at the final
        // canonicalization step.
        let c = lo % MERSENNE_61;
        let h = PolyHash::from_coeffs(vec![c]);
        prop_assert_eq!(h.eval(hi), c);
    }
}
