//! Host facts and process counters: core count, CPU model, peak
//! resident memory, process CPU time, and a single-thread GEMM
//! calibration that turns achieved rates into fractions of this host's
//! peak.

use ca_dla::{gemm, Matrix, Trans};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The first `model name` line of `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by this process so far, from
/// `/proc/self/stat` (clock ticks at the Linux `USER_HZ` of 100).
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line; `f[0]` is
    // field 3 (the state), so they sit at indices 11 and 12.
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Single-thread `ca_dla::gemm` rate in GF/s: a `64 × 512 · 512 × 512`
/// product, which stays below the kernel's row-parallel threshold and so
/// runs on the calling thread. The best of nine timed batches of about
/// half a GFLOP each: the peak is what the kernel reaches when nothing
/// else on the host gets in its way.
pub fn gemm_peak_gflops() -> f64 {
    const M: usize = 64;
    const K: usize = 512;
    const N: usize = 512;
    const BATCH: usize = 16;
    let mut rng = StdRng::seed_from_u64(0x6e33);
    let a = ca_dla::gen::random_matrix(&mut rng, M, K);
    let b = ca_dla::gen::random_matrix(&mut rng, K, N);
    let mut c = Matrix::zeros(M, N);
    gemm(1.0, &a, Trans::N, &b, Trans::N, 0.0, &mut c);
    (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                gemm(
                    1.0,
                    black_box(&a),
                    Trans::N,
                    black_box(&b),
                    Trans::N,
                    0.5,
                    &mut c,
                );
            }
            black_box(&c);
            (2 * M * K * N * BATCH) as f64 / t0.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}
