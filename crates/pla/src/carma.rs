//! Recursive communication-optimal rectangular matrix multiplication
//! (Lemma III.2; Demmel et al.'s CARMA \[24\]).
//!
//! BFS recursion: split the largest of the three dimensions in half,
//! assign half the processor group to each part, and recurse; `m`/`n`
//! splits replicate the other operand down into both halves (charged),
//! `k` splits combine the two partial products with a summed reduction
//! (charged). The base case (one processor) is a charged local GEMM.
//!
//! The memory parameter `v` of Lemma III.2 serializes the multiply into
//! `v` inner-dimension chunks, trading `α·v log p` synchronization for a
//! `(mnk/(vp))^{2/3}` replication footprint — exactly how Algorithm IV.1
//! invokes it (`v = p^{2−3δ}`).
//!
//! Operands enter evenly spread over the group (`words/g` per processor)
//! and the output leaves evenly spread — the paper's "any load balanced
//! starting layout" precondition.

use crate::grid::Grid;
use crate::kern;
use ca_bsp::Machine;
use ca_dla::gemm::Trans;
use ca_dla::view::{MatrixView, MatrixViewMut};
use ca_dla::Matrix;

/// `C = A·B` on `group` with memory parameter `v ≥ 1` (Lemma III.2),
/// from an *arbitrary* load-balanced layout: pays the one-time
/// `O((mn + nk + mk)/p)`-per-processor redistribution into CARMA's
/// recursive layout (the entry charge of Lemma III.2's proof) before
/// the recursion.
/// ```
/// use ca_bsp::{Machine, MachineParams};
/// use ca_pla::{carma::carma, Grid};
/// use ca_dla::Matrix;
///
/// let m = Machine::new(MachineParams::new(4));
/// let a = Matrix::identity(8);
/// let b = Matrix::from_fn(8, 8, |i, j| (i + j) as f64);
/// let c = carma(&m, &Grid::all(4), &a, &b, 1);
/// assert!(c.max_diff(&b) < 1e-15);
/// assert!(m.report().horizontal_words > 0); // the multiply was charged
/// ```
pub fn carma(m: &Machine, group: &Grid, a: &Matrix, b: &Matrix, v: usize) -> Matrix {
    let (mm, kk) = (a.rows(), a.cols());
    let nn = b.cols();
    let entry = ((mm * kk + kk * nn + mm * nn) as u64).div_ceil(group.len() as u64);
    for &pid in group.procs() {
        m.charge_comm(pid, entry);
    }
    m.step(group.procs(), 1);
    carma_spread(m, group, a, b, v)
}

/// [`carma`] for operands already in the recursive layout (produced by
/// an enclosing recursion or an earlier charged redistribution): skips
/// the entry charge, keeping only the internal replication/reduction
/// traffic.
pub fn carma_spread(m: &Machine, group: &Grid, a: &Matrix, b: &Matrix, v: usize) -> Matrix {
    let (mm, kk) = (a.rows(), a.cols());
    let (kk2, nn) = (b.rows(), b.cols());
    assert_eq!(kk, kk2, "carma: inner dimensions disagree");
    let mut out = Matrix::zeros(mm, nn);
    carma_spread_into(m, group, &a.view(), &b.view(), v, &mut out.view_mut());
    out
}

/// Zero-copy [`carma_spread`]: `out ← A·B` written directly into a
/// strided output view, with operands taken as views of their parent
/// storage.
///
/// Callers can address operand panels in place instead of extracting
/// blocks. The result and the ledger charges are **bitwise identical**
/// to the copying recursion (kept as the test oracle) on extracted
/// copies:
///
/// * every split recurses on the same logical sub-shapes, so the charge
///   sequence (values *and* order) is unchanged;
/// * `m`/`n` splits route disjoint output regions instead of
///   `vstack`/`set_block` assembly — pure data-movement elimination;
/// * `k` splits and `v`-chunking keep the copy path's
///   temporary-plus-elementwise-add accumulation, preserving the exact
///   add sequence (including the `0.0 + x` of the first chunk);
/// * the one-processor base writes through a `β = 0` GEMM, which
///   pre-zeroes the output and therefore stores the same bits as a
///   fresh-matrix product copied into place.
pub fn carma_spread_into(
    m: &Machine,
    group: &Grid,
    a: &MatrixView,
    b: &MatrixView,
    v: usize,
    out: &mut MatrixViewMut,
) {
    let (mm, kk) = (a.rows(), a.cols());
    let (kk2, nn) = (b.rows(), b.cols());
    assert_eq!(kk, kk2, "carma: inner dimensions disagree");
    assert_eq!(
        (out.rows(), out.cols()),
        (mm, nn),
        "carma_spread_into: output shape disagrees"
    );
    let v = v.max(1).min(kk.max(1));
    if v == 1 || kk < 2 * v {
        carma_rec_into(m, group, a, b, out);
        return;
    }
    // v inner-dimension chunks, accumulated chunk-by-chunk exactly as
    // the copy path does (zero-fill + add, not first-chunk direct write:
    // the `0.0 + x` add is observable on signed zeros).
    out.fill(0.0);
    let bounds: Vec<usize> = (0..=v).map(|i| i * kk / v).collect();
    let g = group.len() as u64;
    for w in bounds.windows(2) {
        if w[1] == w[0] {
            continue;
        }
        let ac = a.sub(0, w[0], mm, w[1] - w[0]);
        let bc = b.sub(w[0], 0, w[1] - w[0], nn);
        let mut part = Matrix::zeros(mm, nn);
        carma_rec_into(m, group, &ac, &bc, &mut part.view_mut());
        out.add_scaled(1.0, &part.view());
        for &pid in group.procs() {
            m.charge_flops(pid, (mm * nn) as u64 / g);
        }
    }
}

/// The recursion behind [`carma_spread_into`]: Lemma III.2's splits
/// (rows, columns, or the inner dimension with a reduction), with the
/// output routed to disjoint sub-views instead of copied blocks.
fn carma_rec_into(
    m: &Machine,
    group: &Grid,
    a: &MatrixView,
    b: &MatrixView,
    out: &mut MatrixViewMut,
) {
    let g = group.len();
    let (mm, kk) = (a.rows(), a.cols());
    let nn = b.cols();
    if g == 1 {
        kern::local_matmul_into(m, group.proc(0), a, Trans::N, b, Trans::N, out);
        return;
    }
    let g1 = g / 2;
    let halves = (group.prefix(g1), Grid::new_1d(group.procs()[g1..].to_vec()));
    let gw = g as u64;

    if mm >= kk && mm >= nn && mm >= 2 {
        // Split rows of A (and C); B is replicated into both halves.
        let cut = mm * g1 / g;
        let a1 = a.sub(0, 0, cut, kk);
        let a2 = a.sub(cut, 0, mm - cut, kk);
        for &pid in group.procs() {
            m.charge_comm(pid, 2 * (kk * nn) as u64 / gw);
            m.alloc(pid, (kk * nn) as u64 / gw);
        }
        m.step(group.procs(), 1);
        carma_rec_into(m, &halves.0, &a1, b, &mut out.sub_mut(0, 0, cut, nn));
        carma_rec_into(m, &halves.1, &a2, b, &mut out.sub_mut(cut, 0, mm - cut, nn));
        for &pid in group.procs() {
            m.free(pid, (kk * nn) as u64 / gw);
        }
    } else if nn >= kk && nn >= 2 {
        // Split columns of B (and C); A is replicated into both halves.
        let cut = nn * g1 / g;
        let b1 = b.sub(0, 0, kk, cut);
        let b2 = b.sub(0, cut, kk, nn - cut);
        for &pid in group.procs() {
            m.charge_comm(pid, 2 * (mm * kk) as u64 / gw);
            m.alloc(pid, (mm * kk) as u64 / gw);
        }
        m.step(group.procs(), 1);
        carma_rec_into(m, &halves.0, a, &b1, &mut out.sub_mut(0, 0, mm, cut));
        carma_rec_into(m, &halves.1, a, &b2, &mut out.sub_mut(0, cut, mm, nn - cut));
        for &pid in group.procs() {
            m.free(pid, (mm * kk) as u64 / gw);
        }
    } else if kk >= 2 {
        // Split the inner dimension: both halves compute a partial C,
        // combined with a summed reduction over the full group. The
        // copy path's `c2.axpy(1.0, c1)` accumulation is preserved:
        // first half into a temporary, second half into `out`, one
        // elementwise add.
        let cut = kk * g1 / g;
        let a1 = a.sub(0, 0, mm, cut);
        let a2 = a.sub(0, cut, mm, kk - cut);
        let b1 = b.sub(0, 0, cut, nn);
        let b2 = b.sub(cut, 0, kk - cut, nn);
        let mut c1 = Matrix::zeros(mm, nn);
        carma_rec_into(m, &halves.0, &a1, &b1, &mut c1.view_mut());
        carma_rec_into(m, &halves.1, &a2, &b2, out);
        for &pid in group.procs() {
            m.charge_comm(pid, 2 * (mm * nn) as u64 / gw);
            m.charge_flops(pid, (mm * nn) as u64 / gw);
        }
        m.step(group.procs(), 1);
        out.add_scaled(1.0, &c1.view());
    } else {
        // Degenerate tiny dimensions: compute on rank 0.
        kern::local_matmul_into(m, group.proc(0), a, Trans::N, b, Trans::N, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::gemm::matmul;
    use ca_dla::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    /// The copying recursion [`carma_spread_into`] replaced: every split
    /// extracts its operand blocks. Kept as the bitwise and ledger
    /// oracle for the zero-copy path.
    fn carma_spread_copy(m: &Machine, group: &Grid, a: &Matrix, b: &Matrix, v: usize) -> Matrix {
        let (mm, kk) = (a.rows(), a.cols());
        let nn = b.cols();
        let v = v.max(1).min(kk.max(1));
        if v == 1 || kk < 2 * v {
            return carma_rec(m, group, a, b);
        }
        // Serialize into v inner-dimension chunks (streaming): each chunk is
        // a full recursive multiply; partial products accumulate in place.
        let mut c = Matrix::zeros(mm, nn);
        let bounds: Vec<usize> = (0..=v).map(|i| i * kk / v).collect();
        let g = group.len() as u64;
        for w in bounds.windows(2) {
            if w[1] == w[0] {
                continue;
            }
            let ac = a.block(0, w[0], mm, w[1] - w[0]);
            let bc = b.block(w[0], 0, w[1] - w[0], nn);
            let part = carma_rec(m, group, &ac, &bc);
            c.axpy(1.0, &part);
            for &pid in group.procs() {
                m.charge_flops(pid, (mm * nn) as u64 / g);
            }
        }
        c
    }

    fn carma_rec(m: &Machine, group: &Grid, a: &Matrix, b: &Matrix) -> Matrix {
        let g = group.len();
        if g == 1 {
            return kern::local_matmul(m, group.proc(0), a, Trans::N, b, Trans::N);
        }
        let (mm, kk) = (a.rows(), a.cols());
        let nn = b.cols();
        let g1 = g / 2;
        let halves = (group.prefix(g1), Grid::new_1d(group.procs()[g1..].to_vec()));
        let gw = g as u64;

        if mm >= kk && mm >= nn && mm >= 2 {
            // Split rows of A (and C); B is replicated into both halves.
            let cut = mm * g1 / g;
            let a1 = a.block(0, 0, cut, kk);
            let a2 = a.block(cut, 0, mm - cut, kk);
            for &pid in group.procs() {
                // Each processor's share of B doubles (A rows stay in place
                // in the recursive layout).
                m.charge_comm(pid, 2 * (kk * nn) as u64 / gw);
                m.alloc(pid, (kk * nn) as u64 / gw);
            }
            m.step(group.procs(), 1);
            let c1 = carma_rec(m, &halves.0, &a1, b);
            let c2 = carma_rec(m, &halves.1, &a2, b);
            for &pid in group.procs() {
                m.free(pid, (kk * nn) as u64 / gw);
            }
            Matrix::vstack(&[&c1, &c2])
        } else if nn >= kk && nn >= 2 {
            // Split columns of B (and C); A is replicated into both halves.
            let cut = nn * g1 / g;
            let b1 = b.block(0, 0, kk, cut);
            let b2 = b.block(0, cut, kk, nn - cut);
            for &pid in group.procs() {
                m.charge_comm(pid, 2 * (mm * kk) as u64 / gw);
                m.alloc(pid, (mm * kk) as u64 / gw);
            }
            m.step(group.procs(), 1);
            let c1 = carma_rec(m, &halves.0, a, &b1);
            let c2 = carma_rec(m, &halves.1, a, &b2);
            for &pid in group.procs() {
                m.free(pid, (mm * kk) as u64 / gw);
            }
            let mut c = Matrix::zeros(mm, nn);
            c.set_block(0, 0, &c1);
            c.set_block(0, cut, &c2);
            c
        } else if kk >= 2 {
            // Split the inner dimension: both halves compute a partial C,
            // combined with a summed reduction over the full group.
            let cut = kk * g1 / g;
            let a1 = a.block(0, 0, mm, cut);
            let a2 = a.block(0, cut, mm, kk - cut);
            let b1 = b.block(0, 0, cut, nn);
            let b2 = b.block(cut, 0, kk - cut, nn);
            let c1 = carma_rec(m, &halves.0, &a1, &b1);
            let mut c2 = carma_rec(m, &halves.1, &a2, &b2);
            for &pid in group.procs() {
                m.charge_comm(pid, 2 * (mm * nn) as u64 / gw);
                m.charge_flops(pid, (mm * nn) as u64 / gw);
            }
            m.step(group.procs(), 1);
            c2.axpy(1.0, &c1);
            c2
        } else {
            // Degenerate tiny dimensions: compute on rank 0.
            kern::local_matmul(m, group.proc(0), a, Trans::N, b, Trans::N)
        }
    }

    fn check(mm: usize, kk: usize, nn: usize, g: usize, v: usize, seed: u64) {
        let m = machine(g);
        let grid = Grid::all(g);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = gen::random_matrix(&mut rng, mm, kk);
        let b = gen::random_matrix(&mut rng, kk, nn);
        let c = carma(&m, &grid, &a, &b, v);
        let want = matmul(&a, Trans::N, &b, Trans::N);
        assert!(
            c.max_diff(&want) < 1e-10 * (kk as f64),
            "m={mm} k={kk} n={nn} g={g} v={v}: wrong product"
        );
    }

    #[test]
    fn square_on_various_groups() {
        check(16, 16, 16, 1, 1, 110);
        check(16, 16, 16, 4, 1, 111);
        check(16, 16, 16, 8, 1, 112);
        check(17, 13, 19, 6, 1, 113);
    }

    #[test]
    fn tall_wide_and_inner_shapes() {
        check(64, 8, 8, 4, 1, 114); // m-dominant (1D regime)
        check(8, 8, 64, 4, 1, 115); // n-dominant
        check(8, 64, 8, 4, 1, 116); // k-dominant (reduction path)
    }

    #[test]
    fn v_parameter_preserves_product() {
        check(24, 32, 16, 4, 4, 117);
        check(12, 40, 12, 8, 5, 118);
    }

    #[test]
    fn into_variant_is_bitwise_identical_with_matching_charges() {
        // The zero-copy recursion must reproduce the copy path exactly:
        // same f64 bits in the product (written into an offset region of
        // a larger buffer) and the same folded ledger, with v-chunking
        // active.
        for (mm, kk, nn, g, v, seed) in [
            (24usize, 32usize, 16usize, 4usize, 1usize, 310u64),
            (24, 32, 16, 4, 4, 311),
            (64, 8, 8, 6, 1, 312),
            (8, 40, 8, 8, 5, 313), // k-split + chunking
            (17, 13, 19, 5, 2, 314),
            (32, 24, 16, 4, 3, 315),
        ] {
            let grid = Grid::all(g);
            let mut rng = StdRng::seed_from_u64(seed);
            let a = gen::random_matrix(&mut rng, mm, kk);
            let b = gen::random_matrix(&mut rng, kk, nn);

            let m1 = machine(g);
            let want = carma_spread_copy(&m1, &grid, &a, &b, v);
            m1.fence();

            let m2 = machine(g);
            // Write into an interior region of a larger host to exercise
            // the strided case.
            let mut host = Matrix::zeros(mm + 3, nn + 2);
            carma_spread_into(
                &m2,
                &grid,
                &a.view(),
                &b.view(),
                v,
                &mut host.subview_mut(2, 1, mm, nn),
            );
            m2.fence();

            for i in 0..mm {
                for j in 0..nn {
                    assert!(
                        host.get(2 + i, 1 + j).to_bits() == want.get(i, j).to_bits(),
                        "m={mm} k={kk} n={nn} g={g} v={v}: bit mismatch at ({i},{j})"
                    );
                }
            }
            assert_eq!(
                m1.report(),
                m2.report(),
                "m={mm} k={kk} n={nn} g={g} v={v}: ledger diverged"
            );
        }
    }

    #[test]
    fn one_d_regime_moves_small_operands_only() {
        // m ≫ n = k with few processors: per-proc W should be O(nk),
        // not O(mn/p) — the 1D case of Lemma III.2.
        let (mm, nk) = (512usize, 8usize);
        let g = 4;
        let m = machine(g);
        let a = Matrix::zeros(mm, nk);
        let b = Matrix::zeros(nk, nk);
        let snap = m.snapshot();
        let _ = carma(&m, &Grid::all(g), &a, &b, 1);
        m.fence();
        let w = m.costs_since(&snap).horizontal_words;
        // Lemma III.2's bound for this shape: O((mn + nk + mk)/p) —
        // crucially NOT O(m·k) (the tall operand is never replicated).
        let bound = 2 * (mm * nk + nk * nk + mm * nk) / g;
        assert!(w < bound as u64, "1D regime W={w} exceeds bound {bound}");
        // And below moving the tall operand wholesale (the per-processor
        // charge is the one-time O((mn+nk+mk)/p) entry redistribution
        // plus O(nk·log g) of B-replication — never O(m·k)).
        assert!(w < (mm * nk) as u64, "tall operand was replicated");
    }

    #[test]
    fn k_split_reduction_charges_flops() {
        let g = 2;
        let m = machine(g);
        let a = Matrix::identity(4);
        let b = Matrix::identity(4);
        // k is largest when m = n < k: use a 2×8 · 8×2 product.
        let a2 = Matrix::zeros(2, 8);
        let b2 = Matrix::zeros(8, 2);
        let _ = carma(&m, &Grid::all(g), &a2, &b2, 1);
        let _ = (a, b);
        m.fence();
        // Reduction adds mn/g flops per proc on top of local gemms.
        assert!(m.report().flops > 0);
    }

    #[test]
    fn more_processors_reduce_or_hold_per_proc_volume() {
        let n = 32;
        let mut vols = Vec::new();
        for g in [2usize, 8] {
            let m = machine(g);
            let a = Matrix::zeros(n, n);
            let b = Matrix::zeros(n, n);
            let snap = m.snapshot();
            let _ = carma(&m, &Grid::all(g), &a, &b, 1);
            m.fence();
            vols.push(m.costs_since(&snap).horizontal_words);
        }
        assert!(vols[1] <= 2 * vols[0], "W grew too fast with p: {vols:?}");
    }
}
