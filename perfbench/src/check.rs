//! Correctness checks applied to every answer the benchmark times.
//!
//! An answer is checked once against the prescribed spectrum (and, with
//! vectors, for residual and orthogonality, using the definitions in
//! `conformance::oracle`); every later answer to the same input must
//! then reproduce it bit for bit, ledger included. Bit identity to a
//! checked answer implies the same accuracy, so repeated answers cost
//! a comparison instead of two `n³` products.

use ca_bsp::Costs;
use ca_dla::tridiag::spectrum_distance;
use ca_dla::Matrix;
use conformance::oracle::{orthogonality_defect, residual_defect};

/// Largest accepted defect, in units of `n·ε·‖A‖`.
pub const ACCURACY_TOL: f64 = 100.0;

/// One solver answer: eigenvalues, optional eigenvectors, and the
/// `F/W/Q/S` totals of its ledger.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Ascending eigenvalues.
    pub ev: Vec<f64>,
    /// Eigenvectors, when requested.
    pub v: Option<Matrix>,
    /// `StageCosts::total()` of the solve.
    pub total: Costs,
}

/// Worst of the eigenvalue distance to `spectrum`, the residual defect
/// and the orthogonality defect, each in units of `n·ε·‖A‖` with
/// `‖A‖ = max(‖A‖_max, 1)` as in `conformance::oracle`.
pub fn accuracy_eps(a: &Matrix, spectrum: &[f64], ans: &Answer) -> f64 {
    let n = a.rows() as f64;
    let eps = f64::EPSILON;
    let mut worst = spectral_eps(a, spectrum, &ans.ev);
    if let Some(v) = &ans.v {
        // residual_defect is already scaled by n·‖A‖.
        worst = worst.max(residual_defect(a, &ans.ev, v) / eps);
        worst = worst.max(orthogonality_defect(v) / (n * eps));
    }
    if worst.is_nan() {
        f64::INFINITY
    } else {
        worst
    }
}

/// Eigenvalue distance to `spectrum` in units of `n·ε·‖A‖` (∞ for a
/// wrong count or a non-finite value).
pub fn spectral_eps(a: &Matrix, spectrum: &[f64], ev: &[f64]) -> f64 {
    if ev.len() != spectrum.len() || ev.iter().any(|x| !x.is_finite()) {
        return f64::INFINITY;
    }
    let scale = a.norm_max().max(1.0);
    spectrum_distance(ev, spectrum) / (a.rows() as f64 * f64::EPSILON * scale)
}

/// Check a first answer: within [`ACCURACY_TOL`]. Returns the accuracy.
pub fn check_reference(a: &Matrix, spectrum: &[f64], ans: &Answer) -> Result<f64, String> {
    let acc = accuracy_eps(a, spectrum, ans);
    if acc <= ACCURACY_TOL {
        Ok(acc)
    } else {
        Err(format!(
            "accuracy {acc:.3e} n·eps·|A| exceeds {ACCURACY_TOL}"
        ))
    }
}

/// Check a repeated answer against the checked reference: identical
/// eigenvalue bits, eigenvector bits and `F/W/Q/S`.
pub fn check_repeat(reference: &Answer, got: &Answer) -> Result<(), String> {
    if !same_bits(&reference.ev, &got.ev) {
        return Err("eigenvalue bits differ between repeats".into());
    }
    match (&reference.v, &got.v) {
        (None, None) => {}
        (Some(r), Some(g)) if same_bits(r.data(), g.data()) => {}
        _ => return Err("eigenvector bits differ between repeats".into()),
    }
    if fwqs(&reference.total) != fwqs(&got.total) {
        return Err("F/W/Q/S ledger differs between repeats".into());
    }
    Ok(())
}

/// The paper's four cost components.
pub fn fwqs(c: &Costs) -> [u64; 4] {
    [c.flops, c.horizontal_words, c.vertical_words, c.supersteps]
}

/// Bitwise equality of two `f64` slices (`-0.0 ≠ 0.0`, `NaN` = same
/// payload).
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a hash of the bits of `xs`, for comparing answers across
/// processes.
pub fn fingerprint(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(ev: Vec<f64>) -> Answer {
        Answer {
            ev,
            v: None,
            total: Costs {
                flops: 7,
                supersteps: 3,
                ..Costs::default()
            },
        }
    }

    #[test]
    fn repeats_must_match_bits_and_ledger() {
        let r = answer(vec![-1.0, 0.0, 1.0]);
        assert!(check_repeat(&r, &r.clone()).is_ok());
        let mut neg_zero = r.clone();
        neg_zero.ev[1] = -0.0;
        assert!(
            check_repeat(&r, &neg_zero).is_err(),
            "-0.0 and 0.0 differ in bits"
        );
        let mut ledger = r.clone();
        ledger.total.supersteps += 1;
        assert!(check_repeat(&r, &ledger).is_err());
        let mut extra = r.clone();
        extra.total.peak_memory_words += 1;
        assert!(
            check_repeat(&r, &extra).is_ok(),
            "only F/W/Q/S are compared"
        );
    }

    #[test]
    fn accuracy_is_in_units_of_n_eps_norm() {
        let a = Matrix::identity(4);
        let spectrum = vec![1.0; 4];
        let mut ans = answer(spectrum.clone());
        assert_eq!(accuracy_eps(&a, &spectrum, &ans), 0.0);
        ans.ev[3] += 8.0 * f64::EPSILON;
        assert!((accuracy_eps(&a, &spectrum, &ans) - 2.0).abs() < 1e-9);
        ans.ev[0] = f64::NAN;
        assert_eq!(accuracy_eps(&a, &spectrum, &ans), f64::INFINITY);
        assert!(check_reference(&a, &spectrum, &ans).is_err());
        ans.ev.pop();
        assert_eq!(accuracy_eps(&a, &spectrum, &ans), f64::INFINITY);
    }

    #[test]
    fn fingerprint_sees_every_bit() {
        let xs = [1.0f64, 2.0, 3.0];
        let mut ys = xs;
        ys[2] = f64::from_bits(ys[2].to_bits() ^ 1);
        assert_ne!(fingerprint(&xs), fingerprint(&ys));
        assert_eq!(fingerprint(&xs), fingerprint(&[1.0, 2.0, 3.0]));
    }
}
