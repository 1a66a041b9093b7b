#![allow(clippy::needless_range_loop)]
//! Golden cost pins: the exact ledger values of a few fixed
//! configurations. The simulator is deterministic and costs are
//! data-independent, so these numbers are stable; any accounting change
//! (a collective's charge formula, a stage's structure) shows up here
//! as an exact diff and must be reviewed deliberately rather than
//! slipping into the experiment tables unnoticed.
//!
//! When an intentional accounting change lands, re-run with
//! `UPDATE_GOLDEN=1 cargo test --test golden_costs -- --nocapture`
//! to print the new values, then update the constants.

use ca_symm_eig::bsp::{Costs, Machine, MachineParams};
use ca_symm_eig::dla::{gen, BandedSym};
use ca_symm_eig::eigen::band_to_band::band_to_band_to_logged;
use ca_symm_eig::eigen::full_to_band::full_to_band_logged;
use ca_symm_eig::eigen::transforms::Reflectors;
use ca_symm_eig::eigen::{symm_eigen_25d, symm_eigen_25d_vectors, EigenParams};
use ca_symm_eig::pla::Grid;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(n: usize, p: usize, c: usize) -> Costs {
    let mut rng = StdRng::seed_from_u64(12345);
    let a = gen::random_symmetric(&mut rng, n);
    let m = Machine::new(MachineParams::new(p));
    let _ = symm_eigen_25d(&m, &EigenParams::new(p, c), &a);
    m.report()
}

fn check(name: &str, got: Costs, want_w: u64, want_s: u64, want_f: u64) {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        println!(
            "{name}: W = {}, S = {}, F = {}",
            got.horizontal_words, got.supersteps, got.flops
        );
        return;
    }
    assert_eq!(got.horizontal_words, want_w, "{name}: W drifted");
    assert_eq!(got.supersteps, want_s, "{name}: S drifted");
    assert_eq!(got.flops, want_f, "{name}: F drifted");
}

#[test]
fn golden_small_2d() {
    check("n=64 p=4 c=1", run(64, 4, 1), 22480, 50, 1136044);
}

#[test]
fn golden_medium_2d() {
    check("n=64 p=16 c=1", run(64, 16, 1), 26924, 333, 655068);
}

#[test]
fn golden_replicated() {
    // Re-pinned again for the divide-and-conquer finale: the sequential
    // eigensolve charge dropped from 6nb² + 30n² (QL rotations) to
    // 6nb² + 16n² (secular solves + row-carrier merge GEMMs), so F
    // fell by exactly 14n² on every configuration.
    // Earlier re-pin, when power-of-two band-width snapping was removed: the
    // initial band-width for p = 64 is now the paper's exact
    // ⌊64/log₂ 64⌋ = 10 rather than 8, which reshapes the reduction
    // chain (fewer, larger chases: S down, F up).
    check("n=64 p=64 c=4", run(64, 64, 4), 17882, 1304, 297004);
}

// ---------------------------------------------------------------------
// Golden bit pins: exact output and per-processor ledger fingerprints.
//
// The cost pins above fold the ledger to its per-superstep maxima; the
// pins below hash every bit of the outputs (eigenvalues, eigenvectors,
// reduced bands and recorded Householder transforms) together with the
// raw per-processor flop/word/superstep tallies. Any change to the
// arithmetic order of a kernel, the schedule of a driver or a charge
// formula shows up here as a hash mismatch. Re-print with
// `UPDATE_GOLDEN=1` (see the module docs) only for a deliberate change.
// ---------------------------------------------------------------------

/// FNV-1a over the exact bit patterns of a stream of `f64`s.
fn bit_hash(values: impl IntoIterator<Item = f64>) -> u64 {
    fnv(values.into_iter().map(f64::to_bits))
}

/// FNV-1a over the little-endian bytes of a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

/// The per-processor flop, word and superstep tallies, folded into one
/// hash (the folded maxima could agree by accident; these cannot).
fn ledger_hash(machine: &Machine) -> u64 {
    let mut words = machine.flops_per_proc();
    words.extend(machine.comm_per_proc());
    words.extend(machine.steps_per_proc());
    fnv(words)
}

/// Every stored word of the band plus every recorded transform. `row0`
/// rides along so a transform applied at the wrong offset changes the
/// fingerprint even if `U`/`T` agree.
fn band_hash(band: &BandedSym, rec: &[Reflectors]) -> u64 {
    let mut bits: Vec<f64> = band.bands().to_vec();
    bits.push(band.bandwidth() as f64);
    for r in rec {
        bits.push(r.row0 as f64);
        bits.extend_from_slice(r.u.data());
        bits.extend_from_slice(r.t.data());
    }
    bit_hash(bits)
}

/// Compare (or, under `UPDATE_GOLDEN`, print) one row of hashes.
fn check_bits(name: &str, got: &[u64], want: &[u64]) {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let row: Vec<String> = got.iter().map(|h| format!("0x{h:016x}")).collect();
        println!("{name}: [{}]", row.join(", "));
        return;
    }
    let hex = |v: &[u64]| v.iter().map(|h| format!("{h:016x}")).collect::<Vec<_>>();
    assert_eq!(hex(got), hex(want), "{name}: output or ledger bits drifted");
}

/// `[values, values-only ledger, values+vectors, vectors ledger]` for
/// one `(n, p, c)` solve of a fixed well-separated spectrum.
fn solve_bits(n: usize, p: usize, c: usize) -> [u64; 4] {
    let mut rng = StdRng::seed_from_u64(3000 + n as u64);
    let a = gen::symmetric_with_spectrum(&mut rng, &gen::linspace_spectrum(n, -2.0, 2.0));
    let params = EigenParams::new(p, c);

    let m = Machine::new(MachineParams::new(p));
    let (ev, _) = symm_eigen_25d(&m, &params, &a);
    let values = bit_hash(ev);
    let values_ledger = ledger_hash(&m);

    let m = Machine::new(MachineParams::new(p));
    let (ev, v, _) = symm_eigen_25d_vectors(&m, &params, &a);
    let mut bits = ev;
    bits.extend_from_slice(v.data());
    [values, values_ledger, bit_hash(bits), ledger_hash(&m)]
}

/// The pinned `(p, c)` grids: serial, 2D, wide 2D and replicated.
const GRIDS: [(usize, usize); 4] = [(1, 1), (4, 1), (16, 1), (8, 2)];

fn check_solves(n: usize, want: [[u64; 4]; 4]) {
    for ((p, c), want) in GRIDS.into_iter().zip(want) {
        check_bits(
            &format!("solve n={n} p={p} c={c}"),
            &solve_bits(n, p, c),
            &want,
        );
    }
}

#[test]
fn golden_solve_bits_n48() {
    check_solves(
        48,
        [
            [
                0x677bbd11b2a281d5,
                0xae6fc5f934adb6d2,
                0x64becd7ba45410b6,
                0x89338db62d8601fe,
            ],
            [
                0xf046e21a205ee7a2,
                0x8dda60e2b6f58132,
                0x77d5b500a88677a6,
                0x7f7bcd7d083a5311,
            ],
            [
                0x159f6de574f29af2,
                0xa9eb149a62a23881,
                0x88ce66232ceff07e,
                0x601181228a99fc1b,
            ],
            [
                0x2f2b24785b9892ce,
                0x30ad2b367917a20b,
                0x685f1ad307a54169,
                0x476f216e22d906a6,
            ],
        ],
    );
}

#[test]
fn golden_solve_bits_n65() {
    check_solves(
        65,
        [
            [
                0xafbf9216e6198fe6,
                0xa6a2fa4c0d00f21a,
                0x309253ef7b6d4a77,
                0x4a8817ab1044a474,
            ],
            [
                0x8fec5de8064bcea5,
                0xac21b7627ea177d0,
                0xcf33b9bccdd48e96,
                0x50d19766d5dfa04b,
            ],
            [
                0xd9d431567d8ca117,
                0xb09f68f7c484eb3e,
                0xca37cdd174b860c2,
                0x00cd789850eb6976,
            ],
            [
                0x4189846ea57cc138,
                0x41770970f4aeff1e,
                0xad2af05e4f24ab1c,
                0x58a0c1e5b0b2c8aa,
            ],
        ],
    );
}

#[test]
fn golden_solve_bits_n129() {
    check_solves(
        129,
        [
            [
                0x55d509ade80f2d29,
                0xe7f44cfe237a6274,
                0xe8579694a8602e97,
                0x3708040f13384cfe,
            ],
            [
                0x63e0451815bdf627,
                0x28d6d246901af904,
                0x62996073ca6f0abd,
                0x44d1f12d7b7863f3,
            ],
            [
                0x3ef0e79c39b8bc13,
                0x45733d855c02a15c,
                0xc735b34b9fd5f17f,
                0xc846f20b4f567067,
            ],
            [
                0xb943fd5b1fceafd6,
                0x1249907bb7a67d12,
                0xeb1f9aa6318b4344,
                0x698b8078f9da2e11,
            ],
        ],
    );
}

#[test]
fn golden_solve_bits_n257() {
    check_solves(
        257,
        [
            [
                0x0c11aefe9306572f,
                0xa038b7f6b600281a,
                0x1baedf346f03a9fa,
                0xc354bf4ad85fe37d,
            ],
            [
                0x999ca26b3fb26986,
                0xbf3beeafc3ff7e69,
                0x144243913605adb6,
                0xa9f74ed998930372,
            ],
            [
                0x724712dc637e9adf,
                0xf78783712a024208,
                0xc894b8e29a4dafb2,
                0x5153745a868e1e4c,
            ],
            [
                0x9203c90771f2c584,
                0xfb46746dfebd1d3c,
                0x252e702a9c485d23,
                0x09971b0559b82d54,
            ],
        ],
    );
}

#[test]
fn golden_solve_bits_n512() {
    check_bits(
        "solve n=512 p=4 c=1",
        &solve_bits(512, 4, 1),
        &[
            0xa462289f1ed51ff2,
            0x67927986367863ad,
            0x3933c6db3f9c7138,
            0x9a875ec39b134859,
        ],
    );
}

#[test]
fn golden_full_to_band_bits() {
    // Ragged b (n % b != 0) so the last panel is short.
    let cases = [(48, 7), (48, 16), (65, 9), (65, 12)];
    let want: [[u64; 2]; 4] = [
        [0xbf498c8155594afb, 0x40e15cf150fc3946],
        [0x29b197309da4678c, 0x17e3785f7338ba20],
        [0x75e9d63b3884c7dd, 0x158abef13cf7b5f8],
        [0x3f8058a34fe8a70e, 0x1b9ddb2ee3d72e83],
    ];
    for ((n, b), want) in cases.into_iter().zip(want) {
        let machine = Machine::new(MachineParams::new(4));
        let mut rng = StdRng::seed_from_u64(1000 + n as u64);
        let a = gen::symmetric_with_spectrum(&mut rng, &gen::linspace_spectrum(n, -3.0, 3.0));
        let mut rec = Vec::new();
        let (band, _) = full_to_band_logged(&machine, &EigenParams::new(4, 1), &a, b, &mut rec);
        let got = [band_hash(&band, &rec), ledger_hash(&machine)];
        check_bits(&format!("full_to_band n={n} b={b}"), &got, &want);
    }
}

#[test]
fn golden_band_to_band_bits() {
    // h ∤ b everywhere: the clamped final halving of the arbitrary-n
    // schedule produces exactly these ragged windows.
    let want: [[u64; 2]; 24] = [
        [0x05b5e6710f99d03c, 0xe319c654e5bd24a7],
        [0x05b5e6710f99d03c, 0x3c62316f0360015c],
        [0xa2eb50f147cfde3f, 0xc6c53dd9bac4debd],
        [0xa2eb50f147cfde3f, 0x709d06dfe0ae897e],
        [0x54c98f4ec37f09bb, 0x51620f6a9c6a974e],
        [0x54c98f4ec37f09bb, 0xfbac8e43ba2fe6d6],
        [0xf341e65e0e1a3ae9, 0xc73b5b0926aa1be7],
        [0xf341e65e0e1a3ae9, 0x41e915d2911f43ad],
        [0xe8d8fb71683c20f8, 0x8c2cbb7e1214ca9c],
        [0xe8d8fb71683c20f8, 0x7fdd126acefdcc92],
        [0x698046b170a68697, 0x92ea766e64febaba],
        [0x698046b170a68697, 0x1cc036a17dd71eb7],
        [0xc6b59c4883e4e659, 0xfa3330384783a83e],
        [0xc6b59c4883e4e659, 0xeab3f042936b4045],
        [0x7e3e801690a8a9d0, 0x3571aea329562a25],
        [0x7e3e801690a8a9d0, 0xf29cb9ce33018611],
        [0x8e9314d457c13ba4, 0xca1c57607a9f0bd3],
        [0x8e9314d457c13ba4, 0x7b1bd2c0b57ef611],
        [0x2aa19ce4676bb638, 0xa50dd6f9b3bd4841],
        [0x2aa19ce4676bb638, 0x11ac268ba273f4e1],
        [0xb4253997d2a10f1f, 0x2904dcf314098138],
        [0xb4253997d2a10f1f, 0x17f8dab22cff9a93],
        [0x469418bb8d3c8262, 0x927520382b2730d5],
        [0x469418bb8d3c8262, 0xdf59e75094d66241],
    ];
    let mut want = want.into_iter();
    for n in [48, 65, 129, 257] {
        for (b, h) in [(9, 4), (7, 3), (12, 5)] {
            for p in [1, 4] {
                let machine = Machine::new(MachineParams::new(p));
                let mut rng = StdRng::seed_from_u64(2000 + n as u64);
                let dense = gen::random_banded(&mut rng, n, b);
                let bm = BandedSym::from_dense(&dense, b, b);
                let mut rec = Vec::new();
                let (out, _) = band_to_band_to_logged(&machine, &Grid::all(p), &bm, h, 1, &mut rec);
                let got = [band_hash(&out, &rec), ledger_hash(&machine)];
                let name = format!("band_to_band n={n} b={b} h={h} p={p}");
                check_bits(&name, &got, &want.next().unwrap());
            }
        }
    }
}
