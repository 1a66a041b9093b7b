//! Symmetric tridiagonal eigenvalues via the implicit-shift QL method.
//!
//! This is the final sequential stage of Algorithm IV.3: after the band
//! has been reduced to width `n/p` and gathered on one processor, it is
//! reduced to tridiagonal form (reusing the bulge-chasing kernel with
//! `h = 1`) and its eigenvalues are computed here. The paper cites MRRR
//! for this step; any correct `O(n²)`-ish sequential tridiagonal solver
//! exercises the same code path (DESIGN.md §2), and the independent
//! Sturm-sequence bisection solver in [`crate::sturm`] cross-checks it.

use crate::band::BandedSym;
use crate::bulge;
use crate::tune;

/// Maximum implicit-QL iterations per eigenvalue before the solver
/// reports [`NoConvergence`] (EISPACK used 30; 64 is generous — on
/// finite input the shift strategy converges cubically).
const MAX_QL_ITERS: usize = 64;

/// A tridiagonal eigensolver failed to converge within its iteration
/// budget. On finite input this does not occur (the Wilkinson shift
/// strategy is globally convergent); non-finite input (NaN/∞ reaching
/// the solver) is the practical trigger. Carried through the `try_*`
/// entry points so distributed callers can surface a typed error
/// instead of poisoning the run with a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoConvergence {
    /// The solver that gave up (e.g. `"tridiag_eigenvalues"`).
    pub solver: &'static str,
    /// The eigenvalue index being iterated when the budget ran out.
    pub index: usize,
}

impl std::fmt::Display for NoConvergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: QL iteration did not converge within {} iterations (eigenvalue index {})",
            self.solver, MAX_QL_ITERS, self.index
        )
    }
}

impl std::error::Error for NoConvergence {}

/// Eigenvalues of the symmetric tridiagonal matrix with diagonal `d` and
/// sub-diagonal `e` (`e.len() == d.len() − 1`), in ascending order.
///
/// Implicit-shift QL with Wilkinson-style shifts (EISPACK `tql1` shape).
/// Panics on non-convergence; [`try_tridiag_eigenvalues`] reports it as
/// a typed error instead.
pub fn tridiag_eigenvalues(d: &[f64], e: &[f64]) -> Vec<f64> {
    try_tridiag_eigenvalues(d, e).unwrap_or_else(|err| panic!("{err}"))
}

/// [`tridiag_eigenvalues`] with non-convergence reported as
/// [`NoConvergence`] instead of a panic.
pub fn try_tridiag_eigenvalues(d: &[f64], e: &[f64]) -> Result<Vec<f64>, NoConvergence> {
    let n = d.len();
    assert!(n > 0);
    assert_eq!(e.len(), n - 1, "sub-diagonal must have n−1 entries");
    if n == 1 {
        return Ok(vec![d[0]]);
    }
    let mut d = d.to_vec();
    // Working copy of the off-diagonal with a trailing sentinel zero.
    let mut e: Vec<f64> = e.iter().copied().chain(std::iter::once(0.0)).collect();

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find the first negligible off-diagonal at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(NoConvergence { solver: "tridiag_eigenvalues", index: l });
            }

            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r.abs() } else { -r.abs() });
            let (mut s, mut c, mut p) = (1.0f64, 1.0f64, 0.0f64);

            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow: skip the transformation.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                f = 0.0;
                let _ = f;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    d.sort_by(|a, b| a.partial_cmp(b).expect("eigenvalues are finite"));
    Ok(d)
}

/// Eigenvalues *and eigenvectors* of the symmetric tridiagonal matrix
/// `(d, e)`: implicit-shift QL with accumulation of the rotations
/// (EISPACK `tql2` shape). Returns `(λ ascending, Z)` with the columns
/// of `Z` the orthonormal eigenvectors (`T·Z = Z·diag(λ)`).
///
/// This powers the eigenvector extension (the paper's §IV.C future
/// work): the band-reduction stages' Householder transforms are
/// back-applied to `Z` to recover the dense matrix's eigenvectors.
/// Panics on non-convergence; [`try_tridiag_eigen`] reports it as a
/// typed error instead.
pub fn tridiag_eigen(d: &[f64], e: &[f64]) -> (Vec<f64>, crate::Matrix) {
    try_tridiag_eigen(d, e).unwrap_or_else(|err| panic!("{err}"))
}

/// [`tridiag_eigen`] with non-convergence reported as [`NoConvergence`]
/// instead of a panic. Also the QL leaf solver of [`crate::dnc`].
pub fn try_tridiag_eigen(d: &[f64], e: &[f64]) -> Result<(Vec<f64>, crate::Matrix), NoConvergence> {
    let n = d.len();
    assert!(n > 0);
    assert_eq!(e.len(), n - 1, "sub-diagonal must have n−1 entries");
    let mut d = d.to_vec();
    let mut e: Vec<f64> = e.iter().copied().chain(std::iter::once(0.0)).collect();
    let mut z = crate::Matrix::identity(n);

    for l in 0..n {
        let mut iter = 0;
        loop {
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(NoConvergence { solver: "tridiag_eigen", index: l });
            }

            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r.abs() } else { -r.abs() });
            let (mut s, mut c, mut p) = (1.0f64, 1.0f64, 0.0f64);

            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into Z (columns i, i+1).
                for k in 0..n {
                    let zf = z.get(k, i + 1);
                    let zi = z.get(k, i);
                    z.set(k, i + 1, s * zi + c * zf);
                    z.set(k, i, c * zi - s * zf);
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    // Sort eigenpairs ascending (selection sort, swapping columns).
    for i in 0..n {
        let mut k = i;
        for j in i + 1..n {
            if d[j] < d[k] {
                k = j;
            }
        }
        if k != i {
            d.swap(i, k);
            for r in 0..n {
                let tmp = z.get(r, i);
                z.set(r, i, z.get(r, k));
                z.set(r, k, tmp);
            }
        }
    }
    Ok((d, z))
}

/// Eigenvalues of a symmetric banded matrix, computed sequentially.
/// Panicking wrapper around [`try_banded_eigenvalues`].
pub fn banded_eigenvalues(b: &BandedSym) -> Vec<f64> {
    try_banded_eigenvalues(b).unwrap_or_else(|err| panic!("{err}"))
}

/// Eigenvalues of a symmetric banded matrix, computed sequentially:
/// bulge-chase the band down to tridiagonal and run a tridiagonal
/// eigensolver, with non-convergence reported as [`NoConvergence`].
///
/// The schedule is governed by [`crate::tune`]: bandwidth-halving
/// sweeps (fat rank-`b/2` block reflectors — matrix–matrix rates) run
/// while the band is above [`tune::halve_floor`], the remaining
/// reduction runs as one fused rank-1 sweep
/// ([`bulge::sweep_to_tridiagonal`]), and the tridiagonal spectrum
/// comes from [`crate::dnc`] (implicit QL below [`tune::dnc_leaf`]).
pub fn try_banded_eigenvalues(b: &BandedSym) -> Result<Vec<f64>, NoConvergence> {
    let n = b.n();
    if n == 1 {
        return Ok(vec![b.get(0, 0)]);
    }
    let bw = b.bandwidth().max(b.measured_bandwidth(0.0));
    let (d, e) = if bw <= 1 {
        b.tridiagonal()
    } else {
        // Re-house with enough fill capacity, then reduce to tridiagonal
        // in bandwidth-halving sweeps while the band is fat: each
        // halving's chases apply rank-⌈b/2⌉ block reflectors (fat GEMMs)
        // instead of the rank-1 updates a direct b → 1 sweep degenerates
        // to — the difference between matrix–matrix and matrix–vector
        // flop rates. Below the crossover the chase count (∼n²/b² per
        // halving) and its per-window overhead dominate the shrinking
        // flop payload, so the tail runs as one direct sweep to
        // bandwidth 1. The initial capacity 2·bw covers every later
        // halving's 2·b′ fill as well.
        let cap = (2 * bw).min(n - 1);
        let mut work = BandedSym::zeros(n, bw, cap);
        for j in 0..n {
            for i in j..n.min(j + bw + 1) {
                work.set(i, j, b.get(i, j));
            }
        }
        let floor = tune::halve_floor();
        while work.bandwidth() > floor {
            bulge::reduce_band(&mut work, 2);
        }
        if work.bandwidth() > 1 {
            bulge::sweep_to_tridiagonal(&mut work);
        }
        work.tridiagonal()
    };
    if d.len() > tune::dnc_leaf() {
        crate::dnc::dnc_eigenvalues(&d, &e)
    } else {
        try_tridiag_eigenvalues(&d, &e)
    }
}

/// Compare two ascending spectra; returns the largest absolute
/// difference.
pub fn spectrum_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .fold(0.0f64, |worst, (x, y)| worst.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn two_by_two_analytic() {
        // [[a, b], [b, c]] has eigenvalues (a+c)/2 ± √(((a−c)/2)² + b²).
        let (a, b, c) = (2.0, 1.5, -1.0);
        let mid = (a + c) / 2.0;
        let rad = (((a - c) / 2.0f64).powi(2) + b * b).sqrt();
        let ev = tridiag_eigenvalues(&[a, c], &[b]);
        assert!((ev[0] - (mid - rad)).abs() < 1e-12);
        assert!((ev[1] - (mid + rad)).abs() < 1e-12);
    }

    #[test]
    fn laplacian_1d_analytic_spectrum() {
        // Tridiagonal (−1, 2, −1) of order n has eigenvalues
        // 2 − 2cos(kπ/(n+1)).
        let n = 21;
        let d = vec![2.0; n];
        let e = vec![-1.0; n - 1];
        let ev = tridiag_eigenvalues(&d, &e);
        for (idx, lam) in ev.iter().enumerate() {
            let k = (idx + 1) as f64;
            let want = 2.0 - 2.0 * (k * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((lam - want).abs() < 1e-10, "λ_{idx} = {lam}, want {want}");
        }
    }

    #[test]
    fn diagonal_matrix_returns_sorted_diagonal() {
        let d = vec![3.0, -1.0, 2.0, 0.5];
        let e = vec![0.0; 3];
        let ev = tridiag_eigenvalues(&d, &e);
        assert_eq!(ev, vec![-1.0, 0.5, 2.0, 3.0]);
    }

    #[test]
    fn single_element() {
        assert_eq!(tridiag_eigenvalues(&[42.0], &[]), vec![42.0]);
    }

    #[test]
    fn trace_and_square_sum_preserved() {
        let mut rng = StdRng::seed_from_u64(50);
        let a = gen::random_banded(&mut rng, 40, 1);
        let b = BandedSym::from_dense(&a, 1, 1);
        let (d, e) = b.tridiagonal();
        let ev = tridiag_eigenvalues(&d, &e);
        let tr: f64 = d.iter().sum();
        let ev_sum: f64 = ev.iter().sum();
        assert!((tr - ev_sum).abs() < 1e-10);
        let fro2: f64 = a.norm_fro().powi(2);
        let ev_sq: f64 = ev.iter().map(|l| l * l).sum();
        assert!((fro2 - ev_sq).abs() < 1e-8);
    }

    #[test]
    fn banded_solver_recovers_prescribed_spectrum_via_dense_reduction() {
        // Build a banded matrix, compute its spectrum two ways:
        // banded_eigenvalues vs QL on an independently generated dense
        // reduction path (moments already tested in bulge.rs).
        let mut rng = StdRng::seed_from_u64(51);
        let dense = gen::random_banded(&mut rng, 24, 5);
        let b = BandedSym::from_dense(&dense, 5, 10);
        let ev = banded_eigenvalues(&b);
        // Independent check: Sturm bisection (crate::sturm) on the
        // tridiagonalized matrix would be circular here; instead verify
        // the moment identities which pin the spectrum's first moments.
        let tr: f64 = (0..24).map(|i| dense.get(i, i)).sum();
        assert!((ev.iter().sum::<f64>() - tr).abs() < 1e-9);
        let fro2 = dense.norm_fro().powi(2);
        assert!((ev.iter().map(|l| l * l).sum::<f64>() - fro2).abs() < 1e-8);
        // And sortedness.
        for w in ev.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn banded_solver_matches_spectrum_of_similarity_construction() {
        // A = Q D Qᵀ restricted to be banded is not possible in general,
        // so instead: take a tridiagonal with known eigenvalues
        // (1D Laplacian), embed it as a BandedSym with larger capacity,
        // and check the banded path reproduces the analytic spectrum.
        let n = 16;
        let lap = gen::laplacian_2d(n, 1);
        let b = BandedSym::from_dense(&lap, 1, 4);
        let ev = banded_eigenvalues(&b);
        for (idx, lam) in ev.iter().enumerate() {
            let k = (idx + 1) as f64;
            let want = 4.0 - 2.0 * (k * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((lam - want).abs() < 1e-9);
        }
    }

    #[test]
    fn clustered_eigenvalues_converge() {
        // Nearly-degenerate spectrum stresses the QL shift strategy.
        let n = 30;
        let d: Vec<f64> = (0..n).map(|i| 1.0 + 1e-10 * i as f64).collect();
        let e = vec![1e-12; n - 1];
        let ev = tridiag_eigenvalues(&d, &e);
        assert_eq!(ev.len(), n);
        for lam in &ev {
            assert!((lam - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn spectrum_distance_works() {
        assert_eq!(spectrum_distance(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
    }

    #[test]
    fn non_finite_input_yields_typed_error() {
        // NaN never satisfies the deflation test, so the QL loop runs
        // out of budget — the typed error, not a panic or a NaN result.
        let d = vec![1.0, f64::NAN, 2.0, 0.5];
        let e = vec![0.3, 0.2, 0.1];
        let err = try_tridiag_eigenvalues(&d, &e).unwrap_err();
        assert_eq!(err.solver, "tridiag_eigenvalues");
        assert!(err.to_string().contains("did not converge"));
        let err = try_tridiag_eigen(&d, &e).unwrap_err();
        assert_eq!(err.solver, "tridiag_eigen");
    }

    #[test]
    fn banded_engines_agree_on_spectrum() {
        // The tuned schedule (fused sweep + D&C) against the generic
        // h = 1 chase plan followed by implicit QL.
        let mut rng = StdRng::seed_from_u64(54);
        let dense = gen::random_banded(&mut rng, 60, 7);
        let b = BandedSym::from_dense(&dense, 7, 14);
        let tuned = banded_eigenvalues(&b);
        let mut work = b.clone();
        bulge::reduce_band_to(&mut work, 1);
        let (d, e) = work.tridiagonal();
        let legacy = tridiag_eigenvalues(&d, &e);
        let dist = spectrum_distance(&tuned, &legacy);
        assert!(dist < 1e-9 * dense.norm_fro().max(1.0), "engines differ by {dist}");
    }

    fn check_tridiag_eigen(d: &[f64], e: &[f64], tol: f64) {
        use crate::gemm::{matmul, Trans};
        let n = d.len();
        let (lam, z) = tridiag_eigen(d, e);
        // Matches the eigenvalue-only path.
        let lam_only = tridiag_eigenvalues(d, e);
        assert!(spectrum_distance(&lam, &lam_only) < tol);
        // Z orthonormal.
        let ztz = matmul(&z, Trans::T, &z, Trans::N);
        assert!(ztz.max_diff(&Matrix::identity(n)) < tol, "ZᵀZ ≠ I");
        // T·Z = Z·Λ.
        let mut t = Matrix::zeros(n, n);
        for i in 0..n {
            t.set(i, i, d[i]);
            if i + 1 < n {
                t.set(i, i + 1, e[i]);
                t.set(i + 1, i, e[i]);
            }
        }
        let tz = matmul(&t, Trans::N, &z, Trans::N);
        let mut zl = z.clone();
        for i in 0..n {
            for j in 0..n {
                zl.set(i, j, z.get(i, j) * lam[j]);
            }
        }
        assert!(tz.max_diff(&zl) < tol * (1.0 + t.norm_max()), "T·Z ≠ Z·Λ");
    }

    #[test]
    fn eigenvectors_of_laplacian() {
        let n = 15;
        check_tridiag_eigen(&vec![2.0; n], &vec![-1.0; n - 1], 1e-10);
    }

    #[test]
    fn eigenvectors_of_random_tridiagonals() {
        let mut rng = StdRng::seed_from_u64(53);
        use rand::Rng;
        for trial in 0..4 {
            let n = 6 + 5 * trial;
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
            check_tridiag_eigen(&d, &e, 1e-9);
        }
    }

    #[test]
    fn eigenvectors_of_diagonal_are_permutation() {
        let (lam, z) = tridiag_eigen(&[3.0, 1.0, 2.0], &[0.0, 0.0]);
        assert_eq!(lam, vec![1.0, 2.0, 3.0]);
        // Column j of Z is the standard basis vector of the source index.
        assert_eq!(z.get(1, 0), 1.0);
        assert_eq!(z.get(2, 1), 1.0);
        assert_eq!(z.get(0, 2), 1.0);
    }

    #[test]
    fn wilkinson_matrix_regression() {
        // W21+ Wilkinson matrix: d = |i − 10|, e = 1. Its two largest
        // eigenvalues are famously close; reference value from the
        // literature: λ_max ≈ 10.746194182903393.
        let n = 21;
        let d: Vec<f64> = (0..n).map(|i| (i as f64 - 10.0).abs()).collect();
        let e = vec![1.0; n - 1];
        let ev = tridiag_eigenvalues(&d, &e);
        assert!((ev[n - 1] - 10.746194182903393).abs() < 1e-9);
        assert!((ev[n - 1] - ev[n - 2]) < 1e-5); // near-degenerate pair
    }

    #[test]
    fn matrix_free_cross_check_against_characteristic_poly_roots() {
        // 3×3 tridiagonal with known characteristic polynomial roots.
        let ev = tridiag_eigenvalues(&[0.0, 0.0, 0.0], &[1.0, 1.0]);
        let s2 = 2.0f64.sqrt();
        assert!((ev[0] + s2).abs() < 1e-12);
        assert!(ev[1].abs() < 1e-12);
        assert!((ev[2] - s2).abs() < 1e-12);
    }

    #[test]
    fn dense_bandwidth_one_agrees_with_banded_path() {
        let mut rng = StdRng::seed_from_u64(52);
        let a = gen::random_banded(&mut rng, 18, 3);
        let b3 = BandedSym::from_dense(&a, 3, 6);
        let ev_banded = banded_eigenvalues(&b3);
        // Reduce with two halvings instead (3 → 1 via k=3 happens inside);
        // use a second, independent path: dense window moments.
        let tr: f64 = (0..18).map(|i| a.get(i, i)).sum();
        assert!((ev_banded.iter().sum::<f64>() - tr).abs() < 1e-9);
        let _ = Matrix::identity(1);
    }
}
