//! `CA_SERIAL` knob semantics, end to end.
//!
//! The seed had two private parsers for the same variable: the BSP
//! executor accepted "set and not `0`" while the D&C eigensolver
//! accepted only `1`/`true` — so `CA_SERIAL=yes` ran the executor
//! serial and the eigensolver parallel. Both now route through
//! [`ca_obs::knobs::serial`]; these tests pin the unified behaviour by
//! spawning this test binary as a subprocess per spelling (the knob is
//! cached on first read, so distinct values need distinct processes).
//!
//! Checks:
//! * every truthy spelling (`1`, `true`, `yes`, `on`, `TRUE`) switches
//!   **both** subsystems to serial, and the eigenvalues/vectors are
//!   bit-identical to the parallel run (serial ↔ parallel equivalence
//!   is the repo's documented invariant);
//! * falsy and unset leave both parallel;
//! * malformed values (`CA_SERIAL=banana`, `CA_DNC_LEAF=fast`,
//!   `CA_TRACE=fast`) warn once on stderr naming the knob, instead of
//!   being silently ignored;
//! * the service pins a knob snapshot at construction: a global
//!   `set_dnc_leaf`/`set_halve_floor` change while jobs sit queued
//!   changes neither the schedule they run under nor a single output
//!   bit (the per-solve knob-read footgun, regression-tested in its own
//!   subprocess).

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gen;
use ca_symm_eig::eigen::{symm_eigen_25d_vectors, EigenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;

const N: usize = 48;
const P: usize = 4;
const SEED: u64 = 97;

/// FNV-1a over the exact bit patterns of the eigenvalues and vectors.
fn bit_hash(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

fn solve_hash() -> u64 {
    let machine = Machine::new(MachineParams::new(P));
    let params = EigenParams::new(P, 1);
    let mut rng = StdRng::seed_from_u64(SEED);
    let spectrum = gen::linspace_spectrum(N, -2.0, 2.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
    let (ev, v, _) = symm_eigen_25d_vectors(&machine, &params, &a);
    let mut bits = ev;
    bits.extend_from_slice(v.data());
    bit_hash(&bits)
}

/// Subprocess payload: solves the fixed problem under whatever env the
/// parent set and reports the result hash plus what each subsystem's
/// serial knob resolved to. Ignored in normal runs; the driver tests
/// below invoke it with `--ignored --exact`.
#[test]
#[ignore = "subprocess payload for the CA_SERIAL driver tests"]
fn inner_emit_hash() {
    println!(
        "HASH={:016x} SERIAL_EXEC={} SERIAL_DNC={}",
        solve_hash(),
        ca_symm_eig::pla::exec::serial_forced(),
        ca_symm_eig::dla::tune::serial(),
    );
}

struct Probe {
    hash: String,
    serial_exec: bool,
    serial_dnc: bool,
    stderr: String,
}

/// Run [`inner_emit_hash`] in a child process with the given env knobs.
fn probe(env: &[(&str, &str)]) -> Probe {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args(["--ignored", "--exact", "inner_emit_hash", "--nocapture"])
        .env_remove("CA_SERIAL")
        .env_remove("CA_DNC_LEAF")
        .env_remove("CA_HALVE_FLOOR")
        .env_remove("CA_TRACE");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn test subprocess");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "subprocess failed under {env:?}:\n{stdout}\n{stderr}"
    );
    // The harness prints the payload on the "test inner_emit_hash ..."
    // line itself, so match the marker anywhere in the line.
    let line = stdout
        .lines()
        .find(|l| l.contains("HASH="))
        .unwrap_or_else(|| panic!("no HASH line under {env:?}:\n{stdout}"));
    let field = |key: &str| -> String {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key} in {line:?}"))
            .to_string()
    };
    Probe {
        hash: field("HASH"),
        serial_exec: field("SERIAL_EXEC") == "true",
        serial_dnc: field("SERIAL_DNC") == "true",
        stderr,
    }
}

/// Subprocess payload for [`service_snapshot_survives_global_knob_flip`]:
/// in a clean process, a service's construction-time [`KnobSnapshot`]
/// must govern every queued job even after the process-global knob is
/// changed out from under it. Without the snapshot each solve would
/// re-read the schedule knobs at dispatch time, so a change mid-queue
/// could split one batch across two configurations.
///
/// [`KnobSnapshot`]: ca_symm_eig::dla::tune::KnobSnapshot
#[test]
#[ignore = "subprocess payload for the knob-snapshot driver test"]
fn inner_service_snapshot_pins_knobs() {
    use ca_service::{EigenService, ServiceConfig, SymmEigenJob};
    use ca_symm_eig::dla::tune;

    let service = EigenService::new(ServiceConfig {
        workers: 2,
        paused: true, // hold the queue so the flip lands before dispatch
        ..ServiceConfig::default()
    });
    let knobs = service.knobs();

    let jobs: Vec<SymmEigenJob> = (0..6)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(SEED + i);
            let a = gen::symmetric_with_spectrum(&mut rng, &gen::linspace_spectrum(N, -2.0, 2.0));
            if i % 2 == 0 {
                SymmEigenJob::with_vectors(a, P, 1)
            } else {
                SymmEigenJob::values(a, P, 1)
            }
        })
        .collect();

    let result_hash = |r: &ca_service::JobResult| {
        let mut bits = r.eigenvalues.clone();
        if let Some(v) = &r.vectors {
            bits.extend_from_slice(v.data());
        }
        bit_hash(&bits)
    };

    // Solo references under the pinned snapshot, before any flip.
    let solo: Vec<u64> = jobs
        .iter()
        .map(|j| result_hash(&ca_service::solve_job(j, knobs).expect("solo reference")))
        .collect();

    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| service.submit(j.clone()).expect("admit"))
        .collect();

    // The footgun this pins: a global schedule change while jobs sit
    // queued (a deeper D&C recursion and forced band halvings).
    tune::set_dnc_leaf(8);
    tune::set_halve_floor(2);
    assert_ne!(
        tune::KnobSnapshot::capture(),
        knobs,
        "the global change must be visible outside the service"
    );
    service.resume();

    for (t, want) in tickets.into_iter().zip(&solo) {
        let r = t.wait().expect("queued job");
        assert_eq!(
            r.knobs, knobs,
            "job ran under the changed global, not the service snapshot"
        );
        assert_eq!(
            result_hash(&r),
            *want,
            "global knob flip changed a queued job's output bits"
        );
    }
    println!("KNOB_PIN_OK=1");
}

#[test]
fn service_snapshot_survives_global_knob_flip() {
    // The payload mutates process-global knob state, so it runs in its
    // own subprocess like the CA_SERIAL probes above.
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([
            "--ignored",
            "--exact",
            "inner_service_snapshot_pins_knobs",
            "--nocapture",
        ])
        .env_remove("CA_DNC_LEAF")
        .env_remove("CA_HALVE_FLOOR")
        .output()
        .expect("spawn test subprocess");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "knob-snapshot payload failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("KNOB_PIN_OK=1"),
        "payload did not reach its end marker:\n{stdout}"
    );
}

#[test]
fn truthy_spellings_serialize_both_subsystems_bit_identically() {
    let parallel_hash = format!("{:016x}", solve_hash());
    for spelling in ["1", "true", "yes", "on", "TRUE"] {
        let p = probe(&[("CA_SERIAL", spelling)]);
        assert!(
            p.serial_exec && p.serial_dnc,
            "CA_SERIAL={spelling}: executor serial={}, dnc serial={} — the knob must mean \
             the same thing to both subsystems",
            p.serial_exec,
            p.serial_dnc
        );
        assert_eq!(
            p.hash, parallel_hash,
            "CA_SERIAL={spelling}: serial eigenvalues/vectors must be bit-identical to parallel"
        );
    }
}

#[test]
fn falsy_and_unset_stay_parallel_in_both_subsystems() {
    for env in [&[][..], &[("CA_SERIAL", "0")][..], &[("CA_SERIAL", "off")][..]] {
        let p = probe(env);
        assert!(
            !p.serial_exec && !p.serial_dnc,
            "{env:?}: expected parallel dispatch in both subsystems"
        );
    }
}

#[test]
fn malformed_knobs_warn_on_stderr_and_fall_back() {
    let p = probe(&[("CA_SERIAL", "banana")]);
    assert!(
        !p.serial_exec && !p.serial_dnc,
        "malformed CA_SERIAL must fall back to the parallel default"
    );
    assert!(
        p.stderr.contains("CA_SERIAL"),
        "malformed CA_SERIAL must warn on stderr naming the knob; got:\n{}",
        p.stderr
    );

    for knob in ["CA_DNC_LEAF", "CA_TRACE"] {
        let p = probe(&[(knob, "fast")]);
        assert!(
            p.stderr.contains(knob),
            "malformed {knob}=fast must warn on stderr naming the knob; got:\n{}",
            p.stderr
        );
    }
}
