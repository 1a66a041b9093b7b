//! Algorithm IV.1: **2.5D-Full-to-Band** — reduce a dense symmetric
//! matrix to band-width `b`, preserving eigenvalues.
//!
//! The algorithm is *left-looking with aggregation*: the trailing matrix
//! is never updated in place. Instead the two-sided transformations are
//! accumulated as growing panels `U⁽⁰⁾`, `V⁽⁰⁾` with
//! `A̅ = A + U⁽⁰⁾V⁽⁰⁾ᵀ + V⁽⁰⁾U⁽⁰⁾ᵀ` (Eqn. IV.1), and every product
//! against `A` or the aggregates is a *replicated* multiplication
//! (Algorithm III.1 / Lemma III.3) on the `q × q × c` grid — which is
//! where the `Θ(√c)` communication saving materializes.
//!
//! Per panel (matching the pseudocode line numbers):
//! * line 5 — update the current column panel from the aggregates,
//! * line 7 — QR of the sub-diagonal panel `A̅₂₁` on `z·pᵟ` processors
//!   ([`ca_pla::rect_qr`]),
//! * line 8 — `W = A₂₂U₁ + U₂⁽⁰⁾(V₂⁽⁰⁾ᵀU₁) + V₂⁽⁰⁾(U₂⁽⁰⁾ᵀU₁)`
//!   (three streaming multiplies),
//! * line 9 — `V₁ = ½U₁(Tᵀ(U₁ᵀ(W·T))) − W·T` (Lemma III.2 multiplies
//!   with `v = p^{2−3δ}`),
//! * line 10 — replicate `U₁`, `V₁` and append to the aggregates.

use crate::params::EigenParams;
use ca_bsp::Machine;
use ca_dla::{BandedSym, Matrix};
use ca_pla::carma::carma_spread;
use ca_pla::dist::DistMatrix;
use ca_pla::exec;
use ca_pla::grid::Grid;
use ca_pla::kern;
use ca_pla::rect_qr::rect_qr;
use ca_pla::streaming::streaming_mm_dense;

/// Structural trace of the reduction, used by the Figure-1 regeneration
/// binary and by tests.
#[derive(Debug, Clone, Default)]
pub struct FullToBandTrace {
    /// One record per eliminated panel.
    pub panels: Vec<PanelTrace>,
}

/// What Algorithm IV.1 did for one panel (cf. Figure 1's depiction of
/// two consecutive recursive steps).
#[derive(Debug, Clone)]
pub struct PanelTrace {
    /// Panel index (0-based recursion depth).
    pub step: usize,
    /// Global offset of the panel (`A₁₁` starts here).
    pub offset: usize,
    /// Rows remaining in the trailing problem (dimension of `A`).
    pub remaining: usize,
    /// Aggregate width `m` before this panel (`U⁽⁰⁾`/`V⁽⁰⁾` columns).
    pub agg_cols: usize,
    /// Processors used for the panel QR (`z·pᵟ`).
    pub qr_procs: usize,
}

/// Reduce the symmetric `a` to a banded matrix of band-width `b` with
/// the same eigenvalues (Algorithm IV.1). Requires `1 ≤ b < n`; `n`
/// need not be a multiple of `b` — the final panel is simply shorter
/// (its sub-diagonal block has fewer than `b` rows, factored by a
/// local wide QR).
pub fn full_to_band(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    b: usize,
) -> (BandedSym, FullToBandTrace) {
    try_full_to_band(machine, params, a, b).unwrap_or_else(|e| panic!("{e}"))
}

/// [`full_to_band`] with typed input validation: malformed requests
/// (non-square or asymmetric `a`, band-width outside `1 ≤ b < n`,
/// inconsistent grid parameters) come back as `Err(EigenError)` with
/// the ledger untouched.
pub fn try_full_to_band(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    b: usize,
) -> Result<(BandedSym, FullToBandTrace), crate::EigenError> {
    use crate::EigenError;
    params.revalidate()?;
    let n = a.rows();
    if n != a.cols() {
        return Err(EigenError::NonSquareInput {
            rows: n,
            cols: a.cols(),
        });
    }
    if a.asymmetry() >= 1e-10 * a.norm_max().max(1.0) {
        return Err(EigenError::AsymmetricInput {
            asymmetry: a.asymmetry() / a.norm_max().max(1.0),
        });
    }
    if b < 1 || b >= n {
        return Err(EigenError::InvalidBandwidth { n, b });
    }
    Ok(full_to_band_impl(machine, params, a, b, None))
}

/// [`full_to_band`] with transform recording for eigenvector
/// back-transformation: each panel's `(U₁, T)` is appended to `rec` in
/// application order.
pub fn full_to_band_logged(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    b: usize,
    rec: &mut Vec<crate::transforms::Reflectors>,
) -> (BandedSym, FullToBandTrace) {
    full_to_band_impl(machine, params, a, b, Some(rec))
}

/// The straight-line Algorithm IV.1 superstep schedule, one `fence`
/// per panel.
fn full_to_band_impl(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    b: usize,
    mut rec: Option<&mut Vec<crate::transforms::Reflectors>>,
) -> (BandedSym, FullToBandTrace) {
    let _span = ca_obs::kernel_span("driver.full_to_band");
    let n = a.rows();
    assert_eq!(n, a.cols(), "input must be square");
    assert!(a.asymmetry() < 1e-10 * a.norm_max().max(1.0), "input must be symmetric");
    assert!(b >= 1 && b < n, "band-width must satisfy 1 ≤ b < n");

    let grid3 = params.grid3();
    let w_depth = params.stream_depth(n, b);
    let v_mem = params.p_2m3d();
    let all = Grid::all(params.p);
    // Per-processor share of a `words`-sized object, rounded up: the
    // straggler holding the ragged remainder sets the BSP cost, so
    // truncating here would under-count whenever p ∤ words.
    let per_proc = |words: usize| (words as u64).div_ceil(params.p.max(1) as u64);

    // Replicate A over the c layers (the Require block of Alg IV.1).
    // The dense copy below is the numerical stand-in for the per-layer
    // distributed copies; all charges flow through the replicate call.
    let rep = ca_pla::streaming::Replicated::replicate(machine, &grid3, a);

    let mut out = BandedSym::zeros(n, b, b);
    let mut trace = FullToBandTrace::default();

    // Aggregates, preallocated at full height with *global* row
    // alignment (row r of the aggregate is global row r) and the final
    // column count: panels append in place via `set_block` and every
    // product takes an offset block spec, instead of the seed's
    // per-panel O(n²) reallocate-and-copy rebuild. Rows above the
    // current trailing range and columns beyond `m_agg` are never read.
    let total_agg: usize = {
        let mut total = 0usize;
        let mut oo = 0usize;
        while n - oo > b {
            total += (n - oo - b).min(b);
            oo += b;
        }
        total
    };
    let mut u_agg = Matrix::zeros(n, total_agg);
    let mut v_agg = Matrix::zeros(n, total_agg);
    let mut m_agg = 0usize;

    let mut o = 0usize;
    let mut step = 0usize;
    while n - o > b {
        let rem = n - o;
        trace.panels.push(PanelTrace {
            step,
            offset: o,
            remaining: rem,
            agg_cols: m_agg,
            qr_procs: params.panel_qr_procs(n, b),
        });

        // Line 5: update the current panel from the aggregates. The two
        // products are independent — the executor runs them concurrently
        // (both only charge commutative ledger entries).
        let mut panel = a.block(o, o, rem, b);
        if m_agg > 0 {
            let (upd1, upd2) = exec::join(
                || {
                    let v1_0t = v_agg.block(o, 0, b, m_agg).transpose();
                    streaming_mm_dense(
                        machine, &grid3, &u_agg, (o, 0, rem, m_agg), false, &v1_0t, w_depth,
                    )
                },
                || {
                    let u1_0t = u_agg.block(o, 0, b, m_agg).transpose();
                    streaming_mm_dense(
                        machine, &grid3, &v_agg, (o, 0, rem, m_agg), false, &u1_0t, w_depth,
                    )
                },
            );
            panel.axpy(1.0, &upd1);
            panel.axpy(1.0, &upd2);
            for &pid in all.procs() {
                machine.charge_flops(pid, 2 * per_proc(rem * b));
            }
        }

        // The diagonal block A̅₁₁ goes straight into the output band.
        let mut a11 = panel.block(0, 0, b, b);
        a11.symmetrize();
        write_diag_block(&mut out, o, &a11);

        // Line 7: QR of A̅₂₁ on z·pᵟ processors. A ragged n leaves the
        // final panel's sub-diagonal block wide (fewer than b rows);
        // rect_qr requires m ≥ n, so that block is factored locally on
        // the group leader with the factors re-spread — the same
        // small-block fallback Algorithm IV.2's executor uses.
        let qr_procs = params.panel_qr_procs(n, b).min(rem - b).max(1);
        let a21 = panel.block(b, 0, rem - b, b);
        let (u1, t1, r1) = if rem - b >= b {
            let qr_group = Grid::new_2d((0..qr_procs).collect(), qr_procs, 1);
            let da21 = DistMatrix::from_dense(machine, &qr_group, &a21);
            let f = rect_qr(machine, &da21);
            da21.release(machine);
            let u1 = f.u.assemble_unchecked();
            f.u.release(machine);
            (u1, f.t, f.r)
        } else {
            let f = kern::local_qr(machine, all.proc(0), &a21);
            let factor_words = (f.u.len() + f.t.len() + f.r.len()) as u64;
            for &pid in all.procs() {
                machine.charge_comm(pid, 2 * factor_words.div_ceil(params.p as u64));
            }
            machine.step(all.procs(), 1);
            (f.u, f.t, f.r)
        };

        // R is the sub-diagonal block of the band (upper-trapezoidal
        // when the panel is ragged).
        write_subdiag_block(&mut out, o, &r1);

        // Line 8: W = A₂₂·U₁ + U₂⁽⁰⁾(V₂⁽⁰⁾ᵀU₁) + V₂⁽⁰⁾(U₂⁽⁰⁾ᵀU₁).
        if let Some(r) = rec.as_deref_mut() {
            r.push(crate::transforms::Reflectors {
                row0: o + b,
                u: u1.clone(),
                t: t1.clone(),
            });
        }
        let mut w = streaming_mm_dense(
            machine, &grid3, a, (o + b, o + b, rem - b, rem - b), false, &u1, w_depth,
        );
        if m_agg > 0 {
            // The U₂⁽⁰⁾(V₂⁽⁰⁾ᵀU₁) and V₂⁽⁰⁾(U₂⁽⁰⁾ᵀU₁) chains are
            // independent of each other — run them concurrently. The
            // U₂⁽⁰⁾/V₂⁽⁰⁾ sub-panels are addressed by block spec, no
            // copies.
            let (w2, w3) = exec::join(
                || {
                    let vtu = streaming_mm_dense(
                        machine, &grid3, &v_agg, (o + b, 0, rem - b, m_agg), true, &u1, w_depth,
                    );
                    streaming_mm_dense(
                        machine, &grid3, &u_agg, (o + b, 0, rem - b, m_agg), false, &vtu, w_depth,
                    )
                },
                || {
                    let utu = streaming_mm_dense(
                        machine, &grid3, &u_agg, (o + b, 0, rem - b, m_agg), true, &u1, w_depth,
                    );
                    streaming_mm_dense(
                        machine, &grid3, &v_agg, (o + b, 0, rem - b, m_agg), false, &utu, w_depth,
                    )
                },
            );
            w.axpy(1.0, &w2);
            w.axpy(1.0, &w3);
            for &pid in all.procs() {
                machine.charge_flops(pid, 2 * per_proc((rem - b) * b));
            }
        }

        // Line 9: V₁ = ½U₁(Tᵀ(U₁ᵀ(W·T))) − W·T, via Lemma III.2
        // multiplies with v = p^{2−3δ} (right to left, as the
        // Lemma IV.1 proof prescribes).
        let wt = carma_spread(machine, &all, &w, &t1, v_mem);
        let u1t = u1.transpose();
        let utwt = carma_spread(machine, &all, &u1t, &wt, 1);
        let tt = t1.transpose();
        let t_utwt = carma_spread(machine, &all, &tt, &utwt, 1);
        let corr = carma_spread(machine, &all, &u1, &t_utwt, v_mem);
        let mut v1 = wt;
        v1.scale(-1.0);
        v1.axpy(0.5, &corr);
        for &pid in all.procs() {
            machine.charge_flops(pid, 2 * per_proc((rem - b) * b));
        }

        // Line 10: replicate U₁ and V₁ over the layers and append. A
        // ragged final panel contributes only k = min(rem − b, b)
        // reflector columns.
        let kk = u1.cols();
        let rep_words = 2 * (rem - b) * kk;
        for &pid in grid3.procs() {
            machine.charge_comm(pid, 2 * (rep_words as u64).div_ceil(params.p as u64));
            machine.alloc(pid, (rep_words as u64).div_ceil((params.q * params.q) as u64));
        }
        machine.step(grid3.procs(), 2);

        u_agg.set_block(o + b, m_agg, &u1);
        v_agg.set_block(o + b, m_agg, &v1);
        m_agg += kk;

        o += b;
        step += 1;
        machine.fence();
    }

    // Base case (lines 1–2): the final b×b block.
    let rem = n - o;
    let mut last = a.block(o, o, rem, rem);
    if m_agg > 0 {
        let (upd1, upd2) = exec::join(
            || {
                let vt = v_agg.block(o, 0, rem, m_agg).transpose();
                streaming_mm_dense(machine, &grid3, &u_agg, (o, 0, rem, m_agg), false, &vt, w_depth)
            },
            || {
                let ut = u_agg.block(o, 0, rem, m_agg).transpose();
                streaming_mm_dense(machine, &grid3, &v_agg, (o, 0, rem, m_agg), false, &ut, w_depth)
            },
        );
        last.axpy(1.0, &upd1);
        last.axpy(1.0, &upd2);
        for &pid in all.procs() {
            machine.charge_flops(pid, 2 * per_proc(rem * rem));
        }
    }
    last.symmetrize();
    write_diag_block(&mut out, o, &last);

    rep.release(machine);
    machine.fence();
    (out, trace)
}

/// Write a symmetric `b×b` diagonal block into the band at offset `o`.
fn write_diag_block(out: &mut BandedSym, o: usize, blk: &Matrix) {
    let b = blk.rows();
    for j in 0..b {
        for i in j..b {
            out.set(o + i, o + j, blk.get(i, j));
        }
    }
}

/// Write the upper-triangular `R` as the sub-diagonal block: the band
/// rows `o+b..o+2b` of columns `o..o+b` receive `R` (line 13's
/// `[A̅₁₁, Rᵀ; R, B₂]` structure).
fn write_subdiag_block(out: &mut BandedSym, o: usize, r: &Matrix) {
    let b = r.cols();
    for j in 0..b {
        for i in 0..r.rows().min(b) {
            if i <= j {
                out.set(o + b + i, o + j, r.get(i, j));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::gen;
    use ca_dla::tridiag::{banded_eigenvalues, spectrum_distance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    fn check_reduction(n: usize, b: usize, p: usize, c: usize, seed: u64) {
        let m = machine(p);
        let params = EigenParams::new(p, c);
        let mut rng = StdRng::seed_from_u64(seed);
        let spectrum = gen::linspace_spectrum(n, -3.0, 5.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        let (band, trace) = full_to_band(&m, &params, &a, b);
        assert!(band.measured_bandwidth(1e-9) <= b);
        assert_eq!(trace.panels.len(), n.div_ceil(b) - 1);
        let ev = banded_eigenvalues(&band);
        let d = spectrum_distance(&ev, &spectrum);
        assert!(
            d < 1e-8 * (n as f64),
            "n={n} b={b} p={p} c={c}: spectrum drifted by {d}"
        );
    }

    #[test]
    fn reduces_and_preserves_spectrum_2d() {
        check_reduction(32, 4, 4, 1, 200);
    }

    #[test]
    fn reduces_and_preserves_spectrum_25d() {
        check_reduction(32, 8, 8, 2, 201);
    }

    #[test]
    fn reduces_with_full_replication() {
        // c = p^{1/3} exactly (δ = 2/3): p = 64, c = 4.
        check_reduction(32, 4, 64, 4, 202);
    }

    #[test]
    fn single_processor_machine() {
        check_reduction(16, 4, 1, 1, 203);
    }

    #[test]
    fn wide_band_single_panel() {
        check_reduction(16, 8, 4, 1, 204);
    }

    #[test]
    fn ragged_dimension_short_final_panel() {
        // b ∤ n: the last panel's sub-diagonal block is wide
        // (rem − b < b) and takes the local-QR fallback.
        check_reduction(37, 6, 4, 1, 207);
        check_reduction(50, 8, 8, 2, 208);
        check_reduction(65, 16, 16, 1, 209);
    }

    #[test]
    fn ragged_dimension_odd_and_prime() {
        check_reduction(29, 4, 4, 1, 217);
        check_reduction(53, 7, 1, 1, 218);
    }

    #[test]
    fn tiny_dimensions_reduce_to_tridiagonal() {
        // n < 4 forces b = 1 (direct tridiagonalization shape).
        for (n, seed) in [(2usize, 230u64), (3, 231)] {
            let m = machine(1);
            let params = EigenParams::new(1, 1);
            let mut rng = StdRng::seed_from_u64(seed);
            let spectrum = gen::linspace_spectrum(n, -1.0, 1.0);
            let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
            let (band, _) = full_to_band(&m, &params, &a, 1);
            let ev = banded_eigenvalues(&band);
            assert!(spectrum_distance(&ev, &spectrum) < 1e-9);
        }
    }

    #[test]
    fn replication_reduces_communication() {
        // Θ(√c) claim: at fixed p, measured W drops as c grows.
        let n = 96;
        let b = 8;
        let mut ws = Vec::new();
        for c in [1usize, 4] {
            let p = 64;
            let m = machine(p);
            let params = EigenParams::new(p, c);
            let mut rng = StdRng::seed_from_u64(205);
            let a = gen::random_symmetric(&mut rng, n);
            let snap = m.snapshot();
            let _ = full_to_band(&m, &params, &a, b);
            ws.push(m.costs_since(&snap).horizontal_words as f64);
        }
        assert!(
            ws[1] < ws[0],
            "W did not drop with replication: c=1 → {}, c=4 → {}",
            ws[0],
            ws[1]
        );
    }

    #[test]
    fn trace_records_growing_aggregates() {
        let m = machine(4);
        let params = EigenParams::new(4, 1);
        let mut rng = StdRng::seed_from_u64(206);
        let a = gen::random_symmetric(&mut rng, 24);
        let (_, trace) = full_to_band(&m, &params, &a, 4);
        for (s, p) in trace.panels.iter().enumerate() {
            assert_eq!(p.step, s);
            assert_eq!(p.offset, s * 4);
            assert_eq!(p.agg_cols, s * 4);
        }
    }
}
