//! Stage-by-stage replay of the values-only solver through each layer's
//! public functions, timing every call from outside.
//!
//! [`replay_values`] makes the calls `ca_eigen::solver` makes, in the
//! same order and with the same arguments: `full_to_band`, then the
//! band-to-band halvings (`band_to_band_to`) and CA-SBR halvings
//! (`ca_sbr`), then the sequential finale of
//! `tridiag::try_banded_eigenvalues` unrolled into
//! `bulge::reduce_band`, `bulge::sweep_to_tridiagonal` and
//! `dnc::dnc_eigenvalues`. Its eigenvalues must be bit-identical to
//! `try_symm_eigen_25d`; the per-call times then say where a solve's
//! wall time went.

use crate::layers::Stage;
use ca_bsp::Machine;
use ca_dla::{bulge, dnc, tridiag, tune, BandedSym, Matrix};
use ca_eigen::{band_to_band_to, ca_sbr, full_to_band, EigenParams};
use ca_pla::coll;
use ca_pla::grid::Grid;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Call {
    /// The solver stage the call belongs to.
    pub stage: Stage,
    /// The public function called.
    pub name: &'static str,
    /// Wall seconds.
    pub secs: f64,
}

/// The outcome of one replay.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Ascending eigenvalues.
    pub ev: Vec<f64>,
    /// Every timed call, in order.
    pub calls: Vec<Call>,
    /// Bandwidth entering the fused rank-1 sweep (0 if none ran).
    pub sweep_bandwidth: usize,
}

impl Replay {
    /// Seconds spent in the calls of `stage`.
    pub fn stage_secs(&self, stage: Stage) -> f64 {
        self.calls
            .iter()
            .filter(|c| c.stage == stage)
            .map(|c| c.secs)
            .sum()
    }

    /// Seconds spent in calls to `name`.
    pub fn call_secs(&self, name: &str) -> f64 {
        self.calls
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.secs)
            .sum()
    }
}

/// Names of the finale calls, for per-kernel reporting.
pub const REDUCE_BAND: &str = "bulge::reduce_band";
/// See [`REDUCE_BAND`].
pub const SWEEP: &str = "bulge::sweep_to_tridiagonal";
/// See [`REDUCE_BAND`].
pub const DNC: &str = "dnc::dnc_eigenvalues";

fn timed<R>(calls: &mut Vec<Call>, stage: Stage, name: &'static str, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    calls.push(Call {
        stage,
        name,
        secs: t0.elapsed().as_secs_f64(),
    });
    r
}

/// Replay the values-only solve of `a` on `machine`. Fails when the
/// engine knobs select a finale other than the default
/// divide-and-conquer one, which is the only one replayed.
pub fn replay_values(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
) -> Result<Replay, String> {
    if !tune::dnc_enabled() {
        return Err("replay covers the divide-and-conquer finale only".into());
    }
    let n = a.rows();
    let p = params.p;
    let mut calls = Vec::new();
    let c = &mut calls;

    let b0 = params.initial_bandwidth(n);
    let (mut band, _) = timed(c, Stage::FullToBand, "full_to_band", || {
        full_to_band(machine, params, a, b0)
    });

    let target_mid = n.div_ceil(params.p_delta().max(1)).max(2);
    let zeta = (1.0 - params.delta()) / params.delta();
    let mut step = 0usize;
    while band.bandwidth() > target_mid && band.bandwidth() >= 4 {
        let shrink = 2f64.powf(zeta * step as f64);
        let active = ((p as f64 / shrink).round() as usize).clamp(1, p);
        let grid = Grid::all(p).prefix(active);
        let bw = band.bandwidth();
        let target = if bw.div_ceil(4) >= target_mid {
            bw.div_ceil(2)
        } else {
            target_mid
        };
        let words = ((n * (bw + 1)) as u64).div_ceil(p as u64);
        timed(c, Stage::BandToBand, "coll::gather", || {
            coll::gather(machine, &Grid::all(p), 0, words)
        });
        let (next, _) = timed(c, Stage::BandToBand, "band_to_band_to", || {
            band_to_band_to(machine, &grid, &band, target, params.p_2m3d())
        });
        band = next;
        step += 1;
    }

    let target_low = n.div_ceil(p).max(1);
    let sbr_grid = Grid::all(p).prefix(params.p_delta().clamp(1, p));
    while band.bandwidth() > target_low && band.bandwidth() >= 2 {
        band = timed(c, Stage::CaSbr, "ca_sbr", || {
            ca_sbr(machine, &sbr_grid, &band)
        });
    }

    let words = ((n * (band.bandwidth() + 1)) as u64).div_ceil(p as u64);
    timed(c, Stage::SeqEigensolve, "coll::gather", || {
        coll::gather(machine, &Grid::all(p), 0, words)
    });
    let (ev, sweep_bandwidth) = finale(c, &band)?;
    Ok(Replay {
        ev,
        calls,
        sweep_bandwidth,
    })
}

/// `tridiag::try_banded_eigenvalues` under the divide-and-conquer
/// knobs, one timed call per kernel.
fn finale(c: &mut Vec<Call>, b: &BandedSym) -> Result<(Vec<f64>, usize), String> {
    let s = Stage::SeqEigensolve;
    let n = b.n();
    let bw = b.bandwidth().max(b.measured_bandwidth(0.0));
    let mut sweep_bandwidth = 0;
    let (d, e) = if bw <= 1 {
        b.tridiagonal()
    } else {
        let mut work = timed(c, s, "BandedSym::rehouse", || {
            let mut w = BandedSym::zeros(n, bw, (2 * bw).min(n - 1));
            for j in 0..n {
                for i in j..n.min(j + bw + 1) {
                    w.set(i, j, b.get(i, j));
                }
            }
            w
        });
        let floor = tune::halve_floor();
        while work.bandwidth() > floor {
            timed(c, s, REDUCE_BAND, || bulge::reduce_band(&mut work, 2));
        }
        if work.bandwidth() > 1 {
            sweep_bandwidth = work.bandwidth();
            timed(c, s, SWEEP, || bulge::sweep_to_tridiagonal(&mut work));
        }
        timed(c, s, "BandedSym::tridiagonal", || work.tridiagonal())
    };
    let ev = if d.len() > tune::dnc_leaf() {
        timed(c, s, DNC, || dnc::dnc_eigenvalues(&d, &e))
    } else {
        timed(c, s, "tridiag::try_tridiag_eigenvalues", || {
            tridiag::try_tridiag_eigenvalues(&d, &e)
        })
    };
    Ok((
        ev.map_err(|e| format!("replay finale: {e}"))?,
        sweep_bandwidth,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::same_bits;
    use ca_bsp::MachineParams;
    use ca_dla::gen;
    use ca_eigen::try_symm_eigen_25d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn solve_both(n: usize, p: usize, c: usize, seed: u64) -> (Vec<f64>, Replay) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = gen::symmetric_with_spectrum(&mut rng, &gen::linspace_spectrum(n, -1.0, 1.0));
        let params = EigenParams::new(p, c);
        let (ev, _) =
            try_symm_eigen_25d(&Machine::new(MachineParams::new(p)), &params, &a).expect("solver");
        let replay =
            replay_values(&Machine::new(MachineParams::new(p)), &params, &a).expect("replay");
        (ev, replay)
    }

    #[test]
    fn replay_is_bit_identical_to_the_solver() {
        // c = 1: full-to-band, CA-SBR halvings, finale.
        let (ev, r) = solve_both(96, 4, 1, 11);
        assert!(same_bits(&ev, &r.ev));
        assert!(r.calls.iter().any(|c| c.stage == Stage::CaSbr));
        assert!(r.calls.iter().any(|c| c.name == DNC));
        // c = 2: adds the band-to-band stage.
        let (ev, r) = solve_both(128, 8, 2, 12);
        assert!(same_bits(&ev, &r.ev));
        assert!(r.calls.iter().any(|c| c.stage == Stage::BandToBand));
    }

    #[test]
    fn replay_times_add_up_per_stage() {
        let (_, r) = solve_both(64, 4, 1, 13);
        let total: f64 = Stage::ALL.iter().map(|&s| r.stage_secs(s)).sum();
        let sum: f64 = r.calls.iter().map(|c| c.secs).sum();
        assert!((total - sum).abs() < 1e-12);
        assert!(r.stage_secs(Stage::FullToBand) > 0.0);
        assert_eq!(r.stage_secs(Stage::BackTransform), 0.0);
    }
}
