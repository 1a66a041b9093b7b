//! General matrix multiplication, `C ← α·op(A)·op(B) + β·C`.
//!
//! The kernel is a three-level cache-blocked (BLIS-style) GEMM over
//! row-major data:
//!
//! * the `n` dimension is split into `NC`-wide panels and the `k`
//!   dimension into `KC`-deep panels; each `KC × NC` panel of `op(B)` is
//!   **packed** once into an `NR`-strip buffer sized for the L2/L3 cache,
//! * the `m` dimension is split into `MC`-tall blocks; each `MC × KC`
//!   block of `op(A)` is packed into an `MR`-strip buffer sized for the
//!   L1 cache,
//! * an `MR × NR` register micro-kernel accumulates over the packed
//!   strips with unit stride and independent accumulators.
//!
//! Transposed operands are handled by the packing routines (the gather
//! happens once per panel), never by materializing `op(A)`/`op(B)`.
//! Row blocks of `C` are distributed over rayon threads — distinct `MC`
//! slabs write disjoint output rows. Small products skip the blocking
//! machinery entirely and use a fused `i-l-j` loop.
//!
//! Every path is generic over row strides: [`gemm_view`] accepts
//! [`MatrixView`] operands and a [`MatrixViewMut`] accumulation target,
//! so the bulge-chase and QR kernels multiply directly into sub-blocks
//! of a larger matrix with no `block`/`set_block` copies. The
//! [`Matrix`]-based [`gemm`] is a thin wrapper over the same core (a
//! full view has `stride == cols`), so its numerics are unchanged.

use crate::matrix::Matrix;
use crate::view::{MatrixView, MatrixViewMut};
use rayon::prelude::*;

/// Operand orientation for [`gemm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    N,
    /// Use the transpose of the operand.
    T,
}

/// Micro-kernel register tile height (rows of `C`).
const MR: usize = 4;
/// Micro-kernel register tile width (columns of `C`).
const NR: usize = 8;
/// Rows of `op(A)` packed per macro-block (L2-resident: `MC·KC` doubles).
const MC: usize = 64;
/// Inner-dimension depth per packed panel.
const KC: usize = 256;
/// Columns of `op(B)` packed per panel (L3-resident: `KC·NC` doubles).
const NC: usize = 2048;

/// Flop threshold (2mnk) below which the blocked path is not worth its
/// packing overhead and a fused loop is used instead.
const SMALL_FLOPS: usize = 1 << 17;

/// Row count threshold above which the small kernel parallelizes.
const PAR_ROWS: usize = 128;

/// `C ← α·op(A)·op(B) + β·C`.
///
/// Panics if the operand shapes are inconsistent with `C`.
pub fn gemm(alpha: f64, a: &Matrix, ta: Trans, b: &Matrix, tb: Trans, beta: f64, c: &mut Matrix) {
    gemm_view(alpha, &a.view(), ta, &b.view(), tb, beta, &mut c.view_mut());
}

/// [`gemm`] over strided views: `C ← α·op(A)·op(B) + β·C` accumulated
/// in place into a [`MatrixViewMut`] — the zero-copy entry used by the
/// QR trailing updates and the bulge-chase rank-2 updates.
pub fn gemm_view(
    alpha: f64,
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
    tb: Trans,
    beta: f64,
    c: &mut MatrixViewMut,
) {
    let (m, n, k) = check_shapes(a, ta, b, tb, c);
    gemm_dispatch(alpha, a, ta, b, tb, beta, c, (m, n, k));
}

/// [`gemm_view`] with the small-vs-blocked kernel choice made as if the
/// product had shape `full_shape = (m, n, k)`.
///
/// Used by callers that shrink a product's output to just the cells they
/// need (the bulge chase's diagonal-overlap update computes only the
/// `nr × nr` corner of the reference path's `nr × nc` rank-2k update)
/// but must keep the full product's kernel selection so each shared
/// output cell sees bitwise the same accumulation as the reference.
/// Per-cell results of both kernels are independent of which *other*
/// columns are present; only the small/blocked decision depends on the
/// total shape, which is what the hint pins down.
#[allow(clippy::too_many_arguments)] // mirrors gemm_view's BLAS-shaped signature + the hint
pub fn gemm_view_hinted(
    alpha: f64,
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
    tb: Trans,
    beta: f64,
    c: &mut MatrixViewMut,
    full_shape: (usize, usize, usize),
) {
    check_shapes(a, ta, b, tb, c);
    gemm_dispatch(alpha, a, ta, b, tb, beta, c, full_shape);
}

fn check_shapes(
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
    tb: Trans,
    c: &MatrixViewMut,
) -> (usize, usize, usize) {
    let (m, k) = match ta {
        Trans::N => (a.rows(), a.cols()),
        Trans::T => (a.cols(), a.rows()),
    };
    let (k2, n) = match tb {
        Trans::N => (b.rows(), b.cols()),
        Trans::T => (b.cols(), b.rows()),
    };
    assert_eq!(k, k2, "gemm: inner dimensions disagree");
    assert_eq!(c.rows(), m, "gemm: output row count disagrees");
    assert_eq!(c.cols(), n, "gemm: output column count disagrees");
    (m, n, k)
}

#[allow(clippy::too_many_arguments)]
fn gemm_dispatch(
    alpha: f64,
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
    tb: Trans,
    beta: f64,
    c: &mut MatrixViewMut,
    decision_shape: (usize, usize, usize),
) {
    let k = match ta {
        Trans::N => a.cols(),
        Trans::T => a.rows(),
    };
    if c.rows() == 0 || c.cols() == 0 {
        return;
    }

    scale(beta, c);
    if alpha == 0.0 || k == 0 {
        return;
    }

    let (dm, dn, dk) = decision_shape;
    if 2 * dm * dn * dk < SMALL_FLOPS {
        gemm_small(alpha, a, ta, b, tb, c);
    } else {
        gemm_blocked(alpha, a, ta, b, tb, c);
    }
}

/// `C ← β·C`, parallel over rows when large and contiguous.
fn scale(beta: f64, c: &mut MatrixViewMut) {
    if beta == 1.0 {
        return;
    }
    let rows = c.rows();
    let n = c.cols().max(1);
    let stride = c.stride();
    let body = |row: &mut [f64]| {
        if beta == 0.0 {
            row.fill(0.0);
        } else {
            for v in row.iter_mut() {
                *v *= beta;
            }
        }
    };
    if stride == n {
        let len = rows * n;
        let data = &mut c.data_mut()[..len];
        if rows >= PAR_ROWS {
            data.par_chunks_mut(n).for_each(body);
        } else {
            data.chunks_mut(n).for_each(body);
        }
    } else {
        for i in 0..rows {
            body(c.row_mut(i));
        }
    }
}

/// Element `op(A)[i][l]` resolver data: (data, leading dim, transposed).
struct Operand<'a> {
    data: &'a [f64],
    ld: usize,
    t: bool,
}

impl<'a> Operand<'a> {
    fn new(view: &MatrixView<'a>, tr: Trans) -> Self {
        Self {
            data: view.data(),
            ld: view.stride(),
            t: matches!(tr, Trans::T),
        }
    }

    #[inline(always)]
    fn get(&self, i: usize, j: usize) -> f64 {
        if self.t {
            self.data[j * self.ld + i]
        } else {
            self.data[i * self.ld + j]
        }
    }
}

/// Fused `i-l-j` kernel for small products (`C` pre-scaled by β):
/// unit-stride accumulation over `C` rows, operand transposes read in
/// place.
fn gemm_small(alpha: f64, a: &MatrixView, ta: Trans, b: &MatrixView, tb: Trans, c: &mut MatrixViewMut) {
    let (m, n) = (c.rows(), c.cols());
    let cs = c.stride();
    let k = match ta {
        Trans::N => a.cols(),
        Trans::T => a.rows(),
    };
    let av = Operand::new(a, ta);
    let bv = Operand::new(b, tb);
    let data = c.data_mut();
    for i in 0..m {
        let c_row = &mut data[i * cs..i * cs + n];
        for l in 0..k {
            let f = alpha * av.get(i, l);
            if f == 0.0 {
                continue;
            }
            if bv.t {
                for (j, cv) in c_row.iter_mut().enumerate() {
                    *cv += f * bv.data[j * bv.ld + l];
                }
            } else {
                let b_row = &bv.data[l * bv.ld..l * bv.ld + n];
                for (cv, &bb) in c_row.iter_mut().zip(b_row) {
                    *cv += f * bb;
                }
            }
        }
    }
}

/// Pack the `kb × nb` panel of `op(B)` starting at `(pc, jc)` into
/// `NR`-wide column strips: strip `t` holds `kb` rows of `NR` contiguous
/// values (zero-padded past `nb`).
fn pack_b(buf: &mut [f64], bv: &Operand, pc: usize, jc: usize, kb: usize, nb: usize) {
    let strips = nb.div_ceil(NR);
    for t in 0..strips {
        let j0 = jc + t * NR;
        let nr_eff = NR.min(jc + nb - j0);
        let strip = &mut buf[t * kb * NR..(t + 1) * kb * NR];
        for (l, row) in strip.chunks_exact_mut(NR).enumerate() {
            for (cc, slot) in row.iter_mut().enumerate() {
                *slot = if cc < nr_eff {
                    bv.get(pc + l, j0 + cc)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Pack the `mb × kb` block of `op(A)` starting at `(i0, pc)` into
/// `MR`-tall row strips: strip `s` holds `kb` columns of `MR` contiguous
/// values (zero-padded past `mb`).
fn pack_a(buf: &mut [f64], av: &Operand, i0: usize, pc: usize, mb: usize, kb: usize) {
    let strips = mb.div_ceil(MR);
    for s in 0..strips {
        let r0 = i0 + s * MR;
        let mr_eff = MR.min(i0 + mb - r0);
        let strip = &mut buf[s * kb * MR..(s + 1) * kb * MR];
        for (l, col) in strip.chunks_exact_mut(MR).enumerate() {
            for (rr, slot) in col.iter_mut().enumerate() {
                *slot = if rr < mr_eff {
                    av.get(r0 + rr, pc + l)
                } else {
                    0.0
                };
            }
        }
    }
}

/// The `MR × NR` register micro-kernel: `acc += Ap·Bp` over `kb` packed
/// steps. The fixed-size array refs let the compiler keep the whole
/// accumulator tile in registers with no bounds checks.
#[inline(always)]
fn micro_kernel(kb: usize, pa: &[f64], pb: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (avec, bvec) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)).take(kb) {
        let avec: &[f64; MR] = avec.try_into().unwrap();
        let bvec: &[f64; NR] = bvec.try_into().unwrap();
        for r in 0..MR {
            let ar = avec[r];
            for cc in 0..NR {
                acc[r][cc] += ar * bvec[cc];
            }
        }
    }
}

/// [`micro_kernel`] compiled with 256-bit vectors (AVX2). The
/// arithmetic is the same statement sequence — separate multiply and
/// add (Rust never contracts to FMA), and each vector lane is a
/// *distinct* element of `C`, so every `C` element sees the identical
/// rounding sequence as the portable kernel: results are bitwise
/// equal. Selected at runtime by [`simd_kernel_enabled`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn micro_kernel_avx2(kb: usize, pa: &[f64], pb: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (avec, bvec) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)).take(kb) {
        let avec: &[f64; MR] = avec.try_into().unwrap();
        let bvec: &[f64; NR] = bvec.try_into().unwrap();
        for r in 0..MR {
            let ar = avec[r];
            for cc in 0..NR {
                acc[r][cc] += ar * bvec[cc];
            }
        }
    }
}

/// True when the host supports the wide micro-kernel; hosts without
/// AVX2 run the bitwise-identical portable tile.
#[cfg(target_arch = "x86_64")]
fn simd_kernel_enabled() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}


/// The three-level blocked path (`C` pre-scaled by β). Works on strided
/// `C`: row indexing uses the view stride, and each `MC`-row slab still
/// covers disjoint output rows (`cols ≤ stride`, so slab boundaries at
/// multiples of `MC·stride` never split a row's live columns).
fn gemm_blocked(alpha: f64, a: &MatrixView, ta: Trans, b: &MatrixView, tb: Trans, c: &mut MatrixViewMut) {
    let (m, n) = (c.rows(), c.cols());
    let cs = c.stride();
    let k = match ta {
        Trans::N => a.cols(),
        Trans::T => a.rows(),
    };
    let av = Operand::new(a, ta);
    let bv = Operand::new(b, tb);

    let kc = KC.min(k);
    let nb_max = NC.min(n).div_ceil(NR) * NR;
    let mut bpack = vec![0.0f64; kc * nb_max];
    #[cfg(target_arch = "x86_64")]
    let wide = simd_kernel_enabled();

    for jc in (0..n).step_by(NC) {
        let nb = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            pack_b(&mut bpack, &bv, pc, jc, kb, nb);
            let bpack = &bpack;
            let av = &av;

            // Each MC-row slab of C is owned by exactly one task.
            let do_slab = |blk: usize, slab: &mut [f64]| {
                let i0 = blk * MC;
                // The final slab may end at its last row's `n`-th column
                // rather than a full stride, hence the ceiling division.
                let mb = slab.len().div_ceil(cs);
                let mut apack = vec![0.0f64; mb.div_ceil(MR) * MR * kb];
                pack_a(&mut apack, av, i0, pc, mb, kb);
                for s in 0..mb.div_ceil(MR) {
                    let mr_eff = MR.min(mb - s * MR);
                    let pa = &apack[s * kb * MR..(s + 1) * kb * MR];
                    for t in 0..nb.div_ceil(NR) {
                        let nr_eff = NR.min(nb - t * NR);
                        let pb = &bpack[t * kb * NR..(t + 1) * kb * NR];
                        let mut acc = [[0.0f64; NR]; MR];
                        #[cfg(target_arch = "x86_64")]
                        if wide {
                            // SAFETY: `wide` implies AVX2 was detected.
                            unsafe { micro_kernel_avx2(kb, pa, pb, &mut acc) };
                        } else {
                            micro_kernel(kb, pa, pb, &mut acc);
                        }
                        #[cfg(not(target_arch = "x86_64"))]
                        micro_kernel(kb, pa, pb, &mut acc);
                        let col0 = jc + t * NR;
                        for r in 0..mr_eff {
                            let row = &mut slab[(s * MR + r) * cs + col0..][..nr_eff];
                            for (cv, &x) in row.iter_mut().zip(&acc[r][..nr_eff]) {
                                *cv += alpha * x;
                            }
                        }
                    }
                }
            };

            let live = (m - 1) * cs + n;
            let data = &mut c.data_mut()[..live];
            if m > MC {
                data.par_chunks_mut(MC * cs)
                    .enumerate()
                    .for_each(|(blk, slab)| do_slab(blk, slab));
            } else {
                do_slab(0, data);
            }
        }
    }
}

/// Convenience: allocate and return `op(A)·op(B)`.
pub fn matmul(a: &Matrix, ta: Trans, b: &Matrix, tb: Trans) -> Matrix {
    let _span = ca_obs::kernel_span("gemm.matmul");
    let m = match ta {
        Trans::N => a.rows(),
        Trans::T => a.cols(),
    };
    let n = match tb {
        Trans::N => b.cols(),
        Trans::T => b.rows(),
    };
    let mut c = Matrix::zeros(m, n);
    gemm(1.0, a, ta, b, tb, 0.0, &mut c);
    c
}

/// Dense symmetric matrix–vector product `y = A·x` (used by the
/// ScaLAPACK-style baseline's per-column trailing updates). Each row's
/// dot product runs over slices with four independent accumulators;
/// rows are distributed over rayon threads when large.
pub fn symv(a: &Matrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(a.rows(), a.cols());
    assert_eq!(a.rows(), x.len());
    let n = x.len();
    let data = a.data();
    let dot_row = |i: usize| -> f64 {
        let row = &data[i * n..(i + 1) * n];
        let mut acc = [0.0f64; 4];
        for (r4, x4) in row.chunks_exact(4).zip(x.chunks_exact(4)) {
            acc[0] += r4[0] * x4[0];
            acc[1] += r4[1] * x4[1];
            acc[2] += r4[2] * x4[2];
            acc[3] += r4[3] * x4[3];
        }
        let tail = row
            .chunks_exact(4)
            .remainder()
            .iter()
            .zip(x.chunks_exact(4).remainder())
            .map(|(&r, &xx)| r * xx)
            .sum::<f64>();
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    };
    let mut y = vec![0.0; n];
    if n >= PAR_ROWS {
        y.par_iter_mut()
            .enumerate()
            .for_each(|(i, yi)| *yi = dot_row(i));
    } else {
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = dot_row(i);
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for l in 0..a.cols() {
                    s += a.get(i, l) * b.get(l, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    #[test]
    fn matches_naive_nn() {
        let a = Matrix::from_fn(7, 5, |i, j| (i * 5 + j) as f64 * 0.1);
        let b = Matrix::from_fn(5, 6, |i, j| (i as f64) - (j as f64) * 0.5);
        assert!(matmul(&a, Trans::N, &b, Trans::N).max_diff(&naive(&a, &b)) < 1e-12);
    }

    #[test]
    fn matches_naive_transposed() {
        let a = Matrix::from_fn(4, 7, |i, j| ((i + 1) * (j + 2)) as f64 * 0.01);
        let b = Matrix::from_fn(6, 4, |i, j| (i as f64 * 1.5) - j as f64);
        let c = matmul(&a, Trans::T, &b, Trans::T);
        let reference = naive(&a.transpose(), &b.transpose());
        assert!(c.max_diff(&reference) < 1e-12);
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let b = Matrix::identity(3);
        let mut c = Matrix::from_fn(3, 3, |_, _| 1.0);
        gemm(2.0, &a, Trans::N, &b, Trans::N, 3.0, &mut c);
        // C = 2A + 3·ones
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c.get(i, j), 2.0 * (i + j) as f64 + 3.0);
            }
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(5, 5, |i, j| ((i * j) as f64).sin());
        let c = matmul(&a, Trans::N, &Matrix::identity(5), Trans::N);
        assert!(c.max_diff(&a) < 1e-15);
    }

    #[test]
    fn large_parallel_path_matches() {
        let a = Matrix::from_fn(200, 30, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(30, 40, |i, j| ((i * 17 + j * 3) % 11) as f64 - 5.0);
        assert!(matmul(&a, Trans::N, &b, Trans::N).max_diff(&naive(&a, &b)) < 1e-10);
    }

    #[test]
    fn blocked_path_matches_naive_all_orientations() {
        // Odd sizes exercise every packing edge (partial MR/NR strips,
        // partial KC panel) and cross the blocked-path threshold.
        let (m, k, n) = (131, 67, 93);
        let gen_a = |r: usize, c: usize| {
            Matrix::from_fn(r, c, |i, j| ((i * 37 + j * 11) % 19) as f64 * 0.25 - 2.0)
        };
        let gen_b = |r: usize, c: usize| {
            Matrix::from_fn(r, c, |i, j| ((i * 13 + j * 29) % 23) as f64 * 0.125 - 1.0)
        };
        for (ta, tb) in [
            (Trans::N, Trans::N),
            (Trans::N, Trans::T),
            (Trans::T, Trans::N),
            (Trans::T, Trans::T),
        ] {
            let a = match ta {
                Trans::N => gen_a(m, k),
                Trans::T => gen_a(k, m),
            };
            let b = match tb {
                Trans::N => gen_b(k, n),
                Trans::T => gen_b(n, k),
            };
            let a_eff = match ta {
                Trans::N => a.clone(),
                Trans::T => a.transpose(),
            };
            let b_eff = match tb {
                Trans::N => b.clone(),
                Trans::T => b.transpose(),
            };
            let want = naive(&a_eff, &b_eff);
            let got = matmul(&a, ta, &b, tb);
            assert!(
                got.max_diff(&want) < 1e-10,
                "ta={ta:?} tb={tb:?}: {}",
                got.max_diff(&want)
            );
        }
    }

    #[test]
    fn blocked_path_alpha_beta() {
        let a = Matrix::from_fn(150, 80, |i, j| ((i + 2 * j) % 7) as f64 - 3.0);
        let b = Matrix::from_fn(80, 120, |i, j| ((3 * i + j) % 5) as f64 - 2.0);
        let c0 = Matrix::from_fn(150, 120, |i, j| ((i * j) % 11) as f64 * 0.5);
        let mut c = c0.clone();
        gemm(-1.5, &a, Trans::N, &b, Trans::N, 0.25, &mut c);
        let mut want = c0;
        want.scale(0.25);
        want.axpy(-1.5, &naive(&a, &b));
        assert!(c.max_diff(&want) < 1e-10);
    }

    #[test]
    fn deep_inner_dimension_multiple_kc_panels() {
        // k > KC exercises the pc-loop accumulation across packed panels.
        let a = Matrix::from_fn(40, 600, |i, j| ((i * 3 + j) % 9) as f64 * 0.1 - 0.4);
        let b = Matrix::from_fn(600, 35, |i, j| ((i + j * 5) % 8) as f64 * 0.2 - 0.7);
        assert!(matmul(&a, Trans::N, &b, Trans::N).max_diff(&naive(&a, &b)) < 1e-9);
    }

    #[test]
    fn symv_matches_gemm() {
        let mut a = Matrix::from_fn(6, 6, |i, j| ((i * 6 + j) as f64).cos());
        a.symmetrize();
        let x: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let xm = Matrix::from_vec(6, 1, x.clone());
        let want = matmul(&a, Trans::N, &xm, Trans::N);
        let got = symv(&a, &x);
        for i in 0..6 {
            assert!((got[i] - want.get(i, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn symv_large_parallel_path() {
        let n = 200;
        let mut a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 17) as f64 * 0.1 - 0.8);
        a.symmetrize();
        let x: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
        let xm = Matrix::from_vec(n, 1, x.clone());
        let want = matmul(&a, Trans::N, &xm, Trans::N);
        let got = symv(&a, &x);
        for i in 0..n {
            assert!((got[i] - want.get(i, 0)).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_inner_dimension_zeroes_output() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let mut c = Matrix::from_fn(3, 4, |_, _| 7.0);
        gemm(1.0, &a, Trans::N, &b, Trans::N, 0.0, &mut c);
        assert_eq!(c.norm_max(), 0.0);
    }
}
