//! CA-SBR band halving (Lemma IV.2; Ballard–Demmel–Knight \[12\]).
//!
//! For thin bands (`b ≤ n/p`) the matrix is laid out 1D over columns
//! (`O(nb/p)` words per processor) and each processor chases the bulges
//! that live in its column range, exchanging only window boundaries with
//! its neighbour. Work (`F`), horizontal words (`W`) and vertical words
//! (`Q`) are charged physically per chase; the superstep count is
//! charged per the *aggregated* schedule analyzed in \[12\]
//! (`S = O(p)` parallel steps per halving) — our executor runs the
//! chases in dependency order rather than reproducing CA-SBR's exact
//! wavefront, so op-level stepping would overcount `S`
//! (recorded deviation, DESIGN.md §8).

use ca_bsp::Machine;
use ca_dla::bulge::{chase_plan, execute_chase};
use ca_dla::costs;
use ca_dla::BandedSym;
use ca_pla::grid::Grid;

/// Halve the band-width of `bmat` (`b → ⌈b/2⌉`) on the processors of
/// `grid` (1D column layout). Odd band-widths (which arise for
/// arbitrary `n`) round the target up.
pub fn ca_sbr(machine: &Machine, grid: &Grid, bmat: &BandedSym) -> BandedSym {
    ca_sbr_impl(machine, grid, bmat, None)
}

/// [`ca_sbr`] with transform recording for eigenvector
/// back-transformation.
pub fn ca_sbr_logged(
    machine: &Machine,
    grid: &Grid,
    bmat: &BandedSym,
    rec: &mut Vec<crate::transforms::Reflectors>,
) -> BandedSym {
    ca_sbr_impl(machine, grid, bmat, Some(rec))
}

/// Sequential sweep: chases execute in plan order on the shared band.
fn ca_sbr_impl(
    machine: &Machine,
    grid: &Grid,
    bmat: &BandedSym,
    mut rec: Option<&mut Vec<crate::transforms::Reflectors>>,
) -> BandedSym {
    let _span = ca_obs::kernel_span("driver.ca_sbr");
    let n = bmat.n();
    let b = bmat.bandwidth();
    assert!(b >= 2, "cannot halve a band-width below 2");
    let p = grid.len();
    let cols_per_proc = n.div_ceil(p);

    // Redistribution from any starting layout: O(nb/p) words each
    // (the lemma's O(β·nb) total term; ceiling division — the straggler
    // with the ragged remainder sets the cost).
    for &pid in grid.procs() {
        machine.charge_comm(pid, ((n * (b + 1)) as u64).div_ceil(p as u64) * 2);
    }
    machine.step(grid.procs(), 1);

    let cap = (2 * b).min(n - 1);
    let mut work = BandedSym::zeros(n, b, cap);
    for j in 0..n {
        for i in j..n.min(j + b + 1) {
            work.set(i, j, bmat.get(i, j));
        }
    }

    let h_cache = machine.cache_words();
    for op in chase_plan(n, b, 2) {
        let (lo, hi) = op.window();
        let owner_idx = (lo / cols_per_proc).min(p - 1);
        let owner = grid.proc(owner_idx);
        let h = op.h();
        let (nr, nc) = (op.nr(), op.nc());

        // Flops: the QR of the bulge block plus the W/V/update products
        // (Lemma III.1/III.4 counts).
        let f = costs::qr_flops(nr, h)
            + costs::gemm_flops(nc, nr, h)       // B·U
            + 2 * costs::gemm_flops(h, h, h)     // T chains
            + costs::gemm_flops(nr, h, h)        // correction
            + 2 * costs::gemm_flops(nr, h, nc); // rank-2h update
        machine.charge_flops(owner, f);
        // Vertical traffic: the O(b²) window per chase (Lemma IV.2's
        // ν·n²/p total over the n²/(p·b²)-per-processor chases).
        let win_words = ((hi - lo) * (cap + 1).min(hi - lo)) as u64;
        machine.charge_vert(owner, win_words.min(h_cache.max(1)) + win_words.saturating_sub(h_cache));

        // Boundary exchange when the window spans processors: only the
        // bulge hand-off region (h columns of band data) moves, giving
        // the lemma's O(β·nb) total per halving.
        let last_idx = ((hi - 1) / cols_per_proc).min(p - 1);
        if last_idx != owner_idx {
            let boundary = h * (b + 1);
            machine.charge_transfer(owner, grid.proc(last_idx), 2 * boundary as u64);
        }

        if let Some(r) = rec.as_deref_mut() {
            let (u, t) = ca_dla::bulge::execute_chase_recording(&mut work, &op);
            r.push(crate::transforms::Reflectors {
                row0: op.qr_rows.0,
                u,
                t,
            });
        } else {
            execute_chase(&mut work, &op);
        }
    }

    // Aggregated pipeline schedule of [12]: O(p) parallel steps per
    // halving (charged analytically — see module docs).
    machine.step(grid.procs(), p as u64);
    machine.fence();

    work.set_bandwidth(b.div_ceil(2));
    work
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

    #[test]
    fn halves_and_preserves_spectrum() {
        let (n, b, p) = (64usize, 8usize, 4usize);
        let m = machine(p);
        let mut rng = StdRng::seed_from_u64(220);
        let dense = gen::random_banded(&mut rng, n, b);
        let bm = BandedSym::from_dense(&dense, b, b);
        let reference = banded_eigenvalues(&bm);
        let out = ca_sbr(&m, &Grid::all(p), &bm);
        assert_eq!(out.bandwidth(), b / 2);
        assert!(out.measured_bandwidth(1e-9) <= b / 2);
        let ev = banded_eigenvalues(&out);
        assert!(spectrum_distance(&ev, &reference) < 1e-9 * n as f64);
    }

    #[test]
    fn repeated_halving_reaches_tridiagonal() {
        let (n, p) = (32usize, 2usize);
        let m = machine(p);
        let mut rng = StdRng::seed_from_u64(221);
        let dense = gen::random_banded(&mut rng, n, 8);
        let mut bm = BandedSym::from_dense(&dense, 8, 8);
        let reference = banded_eigenvalues(&bm);
        while bm.bandwidth() > 1 {
            bm = ca_sbr(&m, &Grid::all(p), &bm);
        }
        assert!(bm.measured_bandwidth(1e-9) <= 1);
        let ev = banded_eigenvalues(&bm);
        assert!(spectrum_distance(&ev, &reference) < 1e-9 * n as f64);
    }

    #[test]
    fn supersteps_charged_per_schedule() {
        let p = 4;
        let m = machine(p);
        let mut rng = StdRng::seed_from_u64(222);
        let dense = gen::random_banded(&mut rng, 40, 4);
        let bm = BandedSym::from_dense(&dense, 4, 4);
        let _ = ca_sbr(&m, &Grid::all(p), &bm);
        let s = m.report().supersteps;
        // Redistribution (1) + aggregated pipeline (p) + fence.
        assert_eq!(s, 1 + p as u64 + 1);
    }

    #[test]
    fn work_is_spread_over_owners() {
        let p = 4;
        let m = machine(p);
        let mut rng = StdRng::seed_from_u64(223);
        let dense = gen::random_banded(&mut rng, 64, 4);
        let bm = BandedSym::from_dense(&dense, 4, 4);
        let _ = ca_sbr(&m, &Grid::all(p), &bm);
        let f = m.flops_per_proc();
        // Every processor owns some chases.
        assert!(f.iter().all(|&x| x > 0), "{f:?}");
    }
}
