//! The counting arguments of Theorems 2.2 and 3.2, in exact log2
//! arithmetic.
//!
//! Everything is computed as `log2` of the (astronomically large)
//! quantities in the proofs, so experiment T7/T8/T9 can tabulate the
//! implied message bounds for concrete parameters:
//!
//! * `P` — number of distinct constructions the oracle must serve
//!   (`Theorem 2.2`: labeled graphs `G_{n,S}`; `Theorem 3.2`: instances of
//!   edge discovery),
//! * `Q` — number of distinct advice assignments an oracle of size `q` can
//!   produce on `2n`-node graphs: `Q = Σ_{q'≤q} 2^{q'}·C(q'+2n−1, 2n−1)`,
//! * the pigeonhole consequence: some advice assignment is shared by
//!   `P/Q` constructions, and Lemma 2.1 turns that into a message bound.

/// `log2(n!)`, exact summation (fast up to a few million; callers in this
/// crate stay far below).
pub fn log2_factorial(n: u64) -> f64 {
    (2..=n).map(|i| (i as f64).log2()).sum()
}

/// `log2( C(a, b) )`; `0` when `b > a` is treated as minus infinity.
///
/// # Panics
///
/// Panics if `b > a` (the proofs never need it).
pub fn log2_binomial(a: u64, b: u64) -> f64 {
    assert!(b <= a, "C({a},{b}) undefined here");
    let b = b.min(a - b);
    // Σ log2((a-b+i)/i), numerically stable for the sizes we use.
    (1..=b)
        .map(|i| ((a - b + i) as f64).log2() - (i as f64).log2())
        .sum()
}

/// Claim 2.1: for large enough `a` and `b`,
/// `C(a(1+b), a) ≤ (6b)^a`. Returns `(log2 lhs, log2 rhs)`.
pub fn claim_2_1_sides(a: u64, b: u64) -> (f64, f64) {
    let lhs = log2_binomial(a * (1 + b), a);
    let rhs = a as f64 * ((6 * b) as f64).log2();
    (lhs, rhs)
}

/// `log2 Q` for an oracle of size at most `q` bits on `N`-node graphs:
/// `Q = Σ_{q'=0}^{q} 2^{q'}·C(q'+N−1, N−1)`, bounded above (as in the
/// proof) by `(q+1)·2^q·C(q+N, N)` — we return the log2 of that upper
/// bound, which is what the theorem uses.
pub fn log2_oracle_outputs(q: u64, nodes: u64) -> f64 {
    ((q + 1) as f64).log2() + q as f64 + log2_binomial(q + nodes, nodes)
}

/// Theorem 2.2 quantities for a given `n` (the construction has `2n`
/// nodes) and advice-size coefficient `α` (oracle size `q = α·2n·log2(2n)`).
#[derive(Debug, Clone, Copy)]
pub struct WakeupBound {
    /// `n` (half the construction's node count).
    pub n: u64,
    /// The advice coefficient `α < 1/2`.
    pub alpha: f64,
    /// `log2 P`: `P = n!·C(C(n,2), n)` distinct graphs `G_{n,S}`.
    pub log2_p: f64,
    /// `log2 Q` (upper bound) for oracle size `q = α·2n·log2(2n)`.
    pub log2_q: f64,
    /// The oracle size `q` itself, in bits.
    pub q_bits: f64,
    /// Implied message lower bound:
    /// `log2(P/Q) − log2(n!) = log2 P − log2 Q − log2 n!` (Lemma 2.1 with
    /// `|X| = n`), clamped at 0.
    pub message_bound: f64,
}

/// Computes the Theorem 2.2 table row for `(n, α)`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn wakeup_bound(n: u64, alpha: f64) -> WakeupBound {
    assert!(n >= 2, "need n >= 2");
    let edges = n * (n - 1) / 2;
    let log2_p = log2_factorial(n) + log2_binomial(edges, n.min(edges));
    let q_bits = alpha * (2 * n) as f64 * ((2 * n) as f64).log2();
    let log2_q = log2_oracle_outputs(q_bits.floor() as u64, 2 * n);
    let message_bound = (log2_p - log2_q - log2_factorial(n)).max(0.0);
    WakeupBound {
        n,
        alpha,
        log2_p,
        log2_q,
        q_bits,
        message_bound,
    }
}

/// The paper's closed-form version of the Theorem 2.2 message bound:
/// `(1 − 2β)·n·log2(n/2)` with `β = 1/4 + α/2`.
pub fn wakeup_bound_closed_form(n: u64, alpha: f64) -> f64 {
    let beta = 0.25 + alpha / 2.0;
    ((1.0 - 2.0 * beta) * n as f64 * (n as f64 / 2.0).log2()).max(0.0)
}

/// Remark after Theorem 2.2: subdividing `c·n` edges instead of `n` lifts
/// the advice-coefficient threshold from `1/2` to `c/(c+1)`.
pub fn wakeup_threshold(c: u64) -> f64 {
    c as f64 / (c + 1) as f64
}

/// Asymptotic `log2 C(a, b)` for `b ≪ a`, via the standard sandwich
/// `(a/b)^b ≤ C(a,b) ≤ (a·e/b)^b`; returns the *lower* estimate
/// `b·log2(a/b)` so bounds built on it stay valid lower bounds.
pub fn log2_binomial_lower_approx(a: f64, b: f64) -> f64 {
    if b <= 0.0 {
        return 0.0;
    }
    b * (a / b).log2()
}

/// Asymptotic `log2 C(a, b)` upper estimate `b·log2(a·e/b)`; used for the
/// `Q` side so the overall message bound stays a valid lower bound.
pub fn log2_binomial_upper_approx(a: f64, b: f64) -> f64 {
    if b <= 0.0 {
        return 0.0;
    }
    b * (a * std::f64::consts::E / b).log2()
}

/// Generalized Theorem 2.2 counting with `c·n` subdivided edges (the
/// remark after Theorem 2.2): implied message bound for oracle size
/// `q = α·(c+1)n·log2((c+1)n)`, in *asymptotic* arithmetic (valid lower
/// bound: `P` uses the binomial lower estimate, `Q` the upper one).
///
/// `n` is an `f64` because the threshold `c/(c+1)` only bites at sizes far
/// beyond exact summation (e.g. `n ≈ 2^60` for `c = 3, α = 0.6`): the
/// lower-order `n·log log n` term in `Q` dominates until `log n` is large.
/// Positive for `α < c/(c+1)` and `n` large enough.
pub fn wakeup_bound_subdivisions_approx(n: f64, c: u64, alpha: f64) -> f64 {
    assert!(c >= 1 && n >= 2.0, "need c >= 1, n >= 2");
    let c = c as f64;
    let hidden = c * n; // |X|
    let edges = n * (n - 1.0) / 2.0;
    if hidden > edges {
        return 0.0;
    }
    let nodes = (c + 1.0) * n;
    // messages ≥ log2 C(edges, cn) − log2 Q (the (cn)! cancels).
    let log2_p_part = log2_binomial_lower_approx(edges, hidden);
    let q = alpha * nodes * nodes.log2();
    let log2_q = (q + 1.0).log2() + q + log2_binomial_upper_approx(q + nodes, nodes);
    (log2_p_part - log2_q).max(0.0)
}

/// Theorem 3.2 quantities for `(n, k)`: broadcast on `G_{n,S,C}` with an
/// oracle of size `q = n/(2k)` bits.
#[derive(Debug, Clone, Copy)]
pub struct BroadcastBound {
    /// Base complete-graph size (construction has `2n` nodes when `k | n`).
    pub n: u64,
    /// Clique size.
    pub k: u64,
    /// `log2 P'` from Eq. (6): `P' = C(C(n,2) − 3n/4k, n/4k)`.
    pub log2_p_prime: f64,
    /// `log2 Q` from Eq. (7): oracle outputs for `q = n/2k` on the gadget
    /// family.
    pub log2_q: f64,
    /// Oracle size `q = n/(2k)` bits.
    pub q_bits: f64,
    /// Implied message bound `log2(P'/Q)` (Lemma 2.1 over
    /// `|I| = |X|!·P'/Q` instances divided by `|X|!`), clamped at 0.
    pub message_bound: f64,
    /// The target the proof compares against: `n(k−1)/8`.
    pub claim_target: f64,
}

/// Computes the Theorem 3.2 / Claim 3.3 table row for `(n, k)`.
///
/// # Panics
///
/// Panics if `k < 2` or `4k` does not divide `n` (the paper's setting).
pub fn broadcast_bound(n: u64, k: u64) -> BroadcastBound {
    assert!(k >= 2, "need k >= 2");
    assert!(n.is_multiple_of(4 * k), "need 4k | n");
    let x = n / (4 * k);
    let y = 3 * n / (4 * k);
    let edges = n * (n - 1) / 2;
    let log2_p_prime = log2_binomial(edges - y, x);
    let q_bits = (n / (2 * k)) as f64;
    // The gadget graphs have 2n nodes.
    let log2_q = log2_oracle_outputs(q_bits as u64, 2 * n);
    let message_bound = (log2_p_prime - log2_q).max(0.0);
    BroadcastBound {
        n,
        k,
        log2_p_prime,
        log2_q,
        q_bits,
        message_bound,
        claim_target: n as f64 * (k - 1) as f64 / 8.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_factorial_small_values() {
        assert_eq!(log2_factorial(0), 0.0);
        assert_eq!(log2_factorial(1), 0.0);
        assert!((log2_factorial(5) - 120f64.log2()).abs() < 1e-12);
        assert!((log2_factorial(10) - 3628800f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn log2_binomial_matches_pascal() {
        for a in 0..20u64 {
            for b in 0..=a {
                let exact: f64 = {
                    // Pascal row computed exactly in u128.
                    let mut c: u128 = 1;
                    for i in 0..b {
                        c = c * (a - i) as u128 / (i + 1) as u128;
                    }
                    (c as f64).log2()
                };
                assert!((log2_binomial(a, b) - exact).abs() < 1e-9, "C({a},{b})");
            }
        }
    }

    #[test]
    fn claim_2_1_holds_for_large_parameters() {
        // The claim is asymptotic; check it at the scales the proof uses.
        for a in [64u64, 256, 1024] {
            for b in [8u64, 16, 64] {
                let (lhs, rhs) = claim_2_1_sides(a, b);
                assert!(lhs <= rhs, "a={a} b={b}: {lhs} > {rhs}");
            }
        }
    }

    #[test]
    fn oracle_outputs_upper_bounds_exact_sum_small() {
        // Exact Q = Σ 2^{q'} C(q'+N−1, N−1) for tiny parameters.
        let (q, nodes) = (6u64, 4u64);
        let exact: f64 = {
            let mut total = 0f64;
            for qp in 0..=q {
                let mut c: u128 = 1;
                let (a, b) = (qp + nodes - 1, nodes - 1);
                for i in 0..b {
                    c = c * (a - i) as u128 / (i + 1) as u128;
                }
                total += 2f64.powi(qp as i32) * c as f64;
            }
            total.log2()
        };
        assert!(log2_oracle_outputs(q, nodes) >= exact);
    }

    #[test]
    fn wakeup_bound_positive_and_growing_below_half() {
        // The pigeonhole count turns positive once n is large enough for
        // the paper's "for n large enough" (from 2^4 at α = 0.1).
        let mut prev = 0.0;
        for n in [1u64 << 13, 1 << 14, 1 << 15, 1 << 16] {
            let b = wakeup_bound(n, 0.1);
            assert!(b.message_bound > 0.0, "n={n}");
            assert!(b.message_bound > prev, "n={n} not growing");
            prev = b.message_bound;
        }
    }

    #[test]
    fn wakeup_bound_negative_regime_below_asymptotic_onset() {
        // Below the onset the count proves nothing — the bound clamps to 0.
        // (At α = 0.25 the onset is ≈ 2^15.)
        assert_eq!(wakeup_bound(1 << 12, 0.25).message_bound, 0.0);
        assert!(wakeup_bound(1 << 15, 0.25).message_bound > 0.0);
    }

    #[test]
    fn wakeup_bound_scales_like_n_log_n() {
        // bound(2n)/bound(n) ≈ 2·log(2n)/log(n), slightly above 2.
        let b1 = wakeup_bound(1 << 16, 0.1).message_bound;
        let b2 = wakeup_bound(1 << 17, 0.1).message_bound;
        let ratio = b2 / b1;
        assert!(ratio > 2.0 && ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn wakeup_bound_vanishes_for_large_alpha() {
        // Well above the 1/2 threshold the pigeonhole argument yields
        // nothing.
        let b = wakeup_bound(1 << 15, 0.9);
        assert_eq!(b.message_bound, 0.0);
    }

    #[test]
    fn closed_form_overshoots_exact_count_at_finite_n() {
        // The paper's closed form (1−2β)·n·log(n/2) relies on Eq. (4),
        // which only kicks in for very large n; at computable sizes the
        // exact pigeonhole count is positive but smaller, and the gap
        // narrows as n grows.
        let mut prev_ratio = f64::INFINITY;
        for n in [1u64 << 15, 1 << 16, 1 << 17, 1 << 18] {
            let exact = wakeup_bound(n, 0.25).message_bound;
            let closed = wakeup_bound_closed_form(n, 0.25);
            assert!(exact > 0.0 && closed > exact, "n={n}");
            let ratio = closed / exact;
            assert!(ratio < prev_ratio, "gap not narrowing at n={n}");
            prev_ratio = ratio;
        }
    }

    #[test]
    fn threshold_remark_values() {
        assert!((wakeup_threshold(1) - 0.5).abs() < 1e-12);
        assert!((wakeup_threshold(2) - 2.0 / 3.0).abs() < 1e-12);
        assert!((wakeup_threshold(4) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn more_subdivisions_tolerate_more_advice() {
        // With c = 3 the threshold is 3/4, so advice coefficient 0.6 still
        // yields a positive bound for astronomically large n, while c = 1
        // (threshold 1/2) yields nothing at any size.
        let n = (2.0f64).powi(70);
        assert_eq!(wakeup_bound_subdivisions_approx(n, 1, 0.6), 0.0);
        assert!(wakeup_bound_subdivisions_approx(n, 3, 0.6) > 0.0);
        // And at the same α below 1/2, both are positive.
        assert!(wakeup_bound_subdivisions_approx(n, 1, 0.3) > 0.0);
    }

    #[test]
    fn subdivision_approx_consistent_with_exact_at_c1() {
        // The c = 1 approximate bound must stay below the exact count
        // (both sides of the sandwich are conservative) but within the
        // same order of magnitude once positive.
        let n = 1u64 << 17;
        let exact = wakeup_bound(n, 0.1).message_bound;
        let approx = wakeup_bound_subdivisions_approx(n as f64, 1, 0.1);
        assert!(
            approx > 0.0 && approx <= exact,
            "approx {approx} exact {exact}"
        );
        assert!(approx >= exact / 4.0, "approx {approx} ≪ exact {exact}");
    }

    #[test]
    fn broadcast_bound_positive_and_meets_claim_target() {
        // Claim 3.3 requires k ≤ √(log n): at k = 4 that means n ≥ 2^16,
        // and indeed the count meets n(k−1)/8 exactly from there on.
        for (n, k) in [(1u64 << 16, 4u64), (1 << 18, 4)] {
            let b = broadcast_bound(n, k);
            assert!(b.message_bound > 0.0, "n={n} k={k}");
            assert!(
                b.message_bound >= b.claim_target,
                "n={n} k={k}: {} < target {}",
                b.message_bound,
                b.claim_target
            );
        }
        // Just below the k ≤ √(log n) condition the target is missed …
        let below = broadcast_bound(1 << 14, 4);
        assert!(below.message_bound > 0.0);
        assert!(below.message_bound < below.claim_target);
        // … and a k too large for this n is positive but far from target.
        let wide = broadcast_bound(1 << 18, 8);
        assert!(wide.message_bound > 0.0);
        assert!(wide.message_bound < wide.claim_target);
    }

    #[test]
    fn broadcast_bound_rejects_bad_divisibility() {
        assert!(std::panic::catch_unwind(|| broadcast_bound(100, 8)).is_err());
    }

    #[test]
    fn paper_eq6_lower_bound_on_p_prime() {
        // Eq. (6): P' ≥ (nk/2)^{n/4k}.
        for (n, k) in [(1024u64, 4u64), (4096, 8)] {
            let b = broadcast_bound(n, k);
            let eq6 = (n / (4 * k)) as f64 * ((n * k / 2) as f64).log2();
            assert!(
                b.log2_p_prime >= eq6,
                "n={n} k={k}: {} < {}",
                b.log2_p_prime,
                eq6
            );
        }
    }
}
