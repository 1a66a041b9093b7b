//! Service soak benchmark: sustained mixed-size load through the
//! [`ca_service::EigenService`] front-end, reporting tail latency and
//! throughput — the PR-9 acceptance artifact (`BENCH_PR9.json`).
//!
//! What one run does:
//!
//! 1. builds a deterministic mixed workload (sizes 8–96, ~1 in 4 jobs
//!    with eigenvectors) and submits it from
//!    several client threads concurrently;
//! 2. records per-job latency (submit → result) and summarizes p50 /
//!    p99 / mean / max plus jobs-per-second throughput;
//! 3. re-solves the same workload sequentially in-process
//!    ([`ca_service::solve_job`] on the main thread) to get a
//!    host-independent *speedup* ratio and a bit-identity spot check
//!    (every 7th job's output bits must match the service's);
//! 4. exits nonzero if **any** job errored, any bits diverged, the run
//!    shrank below 100 jobs, or the `--check` gate failed.
//!
//! Flags:
//!
//! * `--quick` — 120 jobs from 4 clients (CI-sized; the full run is
//!   240 jobs from 8 clients);
//! * `--out <path>` — output path (default `BENCH_PR9.json`);
//! * `--check <ref.json>` — compare the concurrency speedup against a
//!   committed reference and fail on a > 50% relative drop. Speedups
//!   (service wall vs sequential wall on the same host, same build) are
//!   compared rather than absolute times, so the gate is meaningful
//!   across machines; the generous slack absorbs core-count differences
//!   between CI runners.
//!
//! Admission-control knobs (`CA_SERVICE_WORKERS`, `CA_QUEUE_CAP`,
//! `CA_BATCH_FLOOR`) apply as usual via [`EigenService::from_env`]
//! semantics — the soak constructs its config through
//! `ServiceConfig::from_env()` so CI lanes can vary the pool shape.
//! With `CA_SERVICE_WORKERS` unset the pool is floored at **two**
//! workers: the available-parallelism default degenerates to one on
//! single-core hosts, and a one-worker soak never exercises the
//! concurrent claim paths the benchmark exists to cover.

use ca_service::{EigenService, JobResult, ServiceConfig, SymmEigenJob};
use ca_dla::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Job sizes cycled through the workload; mixed enough that coalescing
/// (below the batch floor) and singleton dispatch both occur.
const SIZES: [usize; 8] = [8, 13, 16, 24, 32, 48, 64, 96];

/// Fractional speedup loss tolerated by `--check` before failing.
const REGRESSION_SLACK: f64 = 0.5;

/// The acceptance floor: a soak run must cover at least this many jobs.
const MIN_JOBS: usize = 100;

/// Deterministic workload: job `i` is fully determined by its index.
fn make_job(i: usize) -> SymmEigenJob {
    let n = SIZES[i % SIZES.len()];
    let mut rng = StdRng::seed_from_u64(0x50AC ^ (i as u64));
    let a = gen::symmetric_with_spectrum(&mut rng, &gen::linspace_spectrum(n, -2.0, 2.0));
    if i.is_multiple_of(4) {
        SymmEigenJob::with_vectors(a, 4, 1)
    } else {
        SymmEigenJob::values(a, 4, 1)
    }
}

/// FNV-1a over a result's exact output bits (eigenvalues then vectors).
fn result_hash(r: &JobResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: f64| {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    };
    r.eigenvalues.iter().copied().for_each(&mut eat);
    if let Some(v) = &r.vectors {
        v.data().iter().copied().for_each(&mut eat);
    }
    h
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// Extract the number following `"key": ` on `line` (the emitted JSON
/// keeps each record on one line so this scan suffices — the vendored
/// `serde_json` shim serializes but does not parse).
fn num_after(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Percentile by nearest-rank on a sorted slice.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_PR9.json");
    let check = flag_value(&args, "--check");
    let (clients, jobs_per_client) = if quick { (4usize, 30usize) } else { (8usize, 30usize) };
    let total_jobs = clients * jobs_per_client;
    assert!(total_jobs >= MIN_JOBS, "soak must cover >= {MIN_JOBS} jobs");

    // Load the reference *before* running (and possibly overwriting it,
    // when `--check` and `--out` name the same file).
    let reference_speedup: Option<f64> = check.map(|ref_path| {
        let text = std::fs::read_to_string(ref_path)
            .unwrap_or_else(|e| panic!("read reference {ref_path}: {e}"));
        text.lines()
            .find_map(|l| num_after(l, "speedup"))
            .unwrap_or_else(|| panic!("no \"speedup\" entry in {ref_path}"))
    });

    let mut config = ServiceConfig::from_env();
    // The soak exists to exercise the concurrent pool, but the
    // available-parallelism default degenerates to a single worker on
    // small hosts — BENCH_PR9.json recorded `workers: 1`, so the
    // committed artifact never ran two workers' claim paths at once.
    // Keep the pool multi-worker by default; an explicit
    // CA_SERVICE_WORKERS still pins any size (including 1).
    if ca_obs::knobs::usize_env("CA_SERVICE_WORKERS").is_none() {
        config.workers = config.workers.max(2);
    }
    let service = Arc::new(EigenService::new(config.clone()));
    let workers = service.config().effective_workers();
    println!(
        "soak: {total_jobs} jobs from {clients} clients over {workers} workers \
         (queue {}, batch floor {})",
        service.config().effective_capacity(),
        service.config().batch_floor
    );

    // Warm up each worker's arena and the code paths once, off the clock.
    for r in service.solve_batch((0..workers).map(make_job)) {
        r.expect("warm-up job");
    }

    // ---- Concurrent serving leg --------------------------------------
    let t0 = Instant::now();
    let client_threads: Vec<_> = (0..clients)
        .map(|c| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(jobs_per_client);
                let mut hashes = Vec::with_capacity(jobs_per_client);
                let mut errors = 0usize;
                for i in (c * jobs_per_client)..((c + 1) * jobs_per_client) {
                    let submitted = Instant::now();
                    match service.submit(make_job(i)).and_then(|t| t.wait()) {
                        Ok(r) => {
                            lat.push(submitted.elapsed().as_secs_f64() * 1e3);
                            hashes.push((i, result_hash(&r)));
                        }
                        Err(e) => {
                            eprintln!("job {i} failed: {e}");
                            errors += 1;
                        }
                    }
                }
                (lat, hashes, errors)
            })
        })
        .collect();

    let mut latencies_ms = Vec::with_capacity(total_jobs);
    let mut hashes = Vec::with_capacity(total_jobs);
    let mut errors = 0usize;
    for t in client_threads {
        let (lat, h, e) = t.join().expect("client thread");
        latencies_ms.extend(lat);
        hashes.extend(h);
        errors += e;
    }
    let service_wall = t0.elapsed().as_secs_f64();

    // ---- Sequential baseline + determinism spot check ----------------
    let knobs = service.knobs();
    let t1 = Instant::now();
    let mut divergent = 0usize;
    let mut seq_done = 0usize;
    for i in 0..total_jobs {
        match ca_service::solve_job(&make_job(i), knobs) {
            Ok(r) => {
                seq_done += 1;
                if i % 7 == 0 {
                    if let Some(&(_, h)) = hashes.iter().find(|(j, _)| *j == i) {
                        if h != result_hash(&r) {
                            eprintln!("DIVERGENCE: job {i} served bits != solo bits");
                            divergent += 1;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("sequential job {i} failed: {e}");
                errors += 1;
            }
        }
    }
    let sequential_wall = t1.elapsed().as_secs_f64();
    let speedup = sequential_wall / service_wall.max(1e-9);

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = percentile(&latencies_ms, 50.0);
    let p99 = percentile(&latencies_ms, 99.0);
    let mean = latencies_ms.iter().sum::<f64>() / latencies_ms.len().max(1) as f64;
    let max = latencies_ms.last().copied().unwrap_or(0.0);
    let throughput = latencies_ms.len() as f64 / service_wall.max(1e-9);
    let stats = service.stats();

    println!(
        "latency: p50 {p50:.2} ms, p99 {p99:.2} ms, mean {mean:.2} ms, max {max:.2} ms"
    );
    println!(
        "throughput: {throughput:.1} jobs/s ({} jobs in {service_wall:.2} s; \
         sequential {sequential_wall:.2} s, speedup {speedup:.2}x)",
        latencies_ms.len()
    );
    println!(
        "scheduler: {} coalesced batches covering {} jobs, queue peak {}",
        stats.batches, stats.batched_jobs, stats.queue_depth_peak
    );

    let out = format!(
        "{{\n  \"workload\": {{\"jobs\": {total_jobs}, \"clients\": {clients}, \
         \"workers\": {workers}, \"quick\": {quick}}},\n  \
         \"latency_ms\": {{\"p50\": {p50:.3}, \"p99\": {p99:.3}, \"mean\": {mean:.3}, \"max\": {max:.3}}},\n  \
         \"throughput_jobs_per_s\": {throughput:.2},\n  \
         \"service_wall_s\": {service_wall:.3},\n  \
         \"sequential_wall_s\": {sequential_wall:.3},\n  \
         \"speedup\": {speedup:.3},\n  \
         \"errors\": {errors},\n  \
         \"scheduler\": {{\"batches\": {}, \"batched_jobs\": {}, \"queue_depth_peak\": {}}}\n}}\n",
        stats.batches, stats.batched_jobs, stats.queue_depth_peak
    );
    std::fs::write(out_path, &out).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");

    // ---- Acceptance gates --------------------------------------------
    let mut failed = false;
    if errors > 0 {
        eprintln!("FAIL: {errors} job(s) errored (acceptance requires zero)");
        failed = true;
    }
    if divergent > 0 {
        eprintln!("FAIL: {divergent} served result(s) diverged from solo bits");
        failed = true;
    }
    if latencies_ms.len() < MIN_JOBS || seq_done < MIN_JOBS {
        eprintln!(
            "FAIL: only {} served / {seq_done} sequential jobs completed (need {MIN_JOBS})",
            latencies_ms.len()
        );
        failed = true;
    }
    if stats.accounted() != stats.submitted {
        eprintln!(
            "FAIL: lost jobs — {} accounted of {} submitted",
            stats.accounted(),
            stats.submitted
        );
        failed = true;
    }
    if let Some(want) = reference_speedup {
        let floor = want * (1.0 - REGRESSION_SLACK);
        if speedup < floor {
            eprintln!(
                "REGRESSION: speedup {speedup:.2}x < {floor:.2}x \
                 (reference {want:.2}x - {:.0}% slack)",
                REGRESSION_SLACK * 100.0
            );
            failed = true;
        } else {
            println!("check: speedup {speedup:.2}x vs reference {want:.2}x ok");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
