//! The `service-burst` workload: `EigenService` with its default
//! configuration; two client threads each submit a burst of 8 small jobs
//! and wait for all 8 before sending the next (closed loop).

use crate::check::{self, Answer};
use crate::host;
use crate::layers::{add_costs, ratio, Layers, StageSums};
use crate::report::{num, Metrics};
use crate::solve::push_ledger;
use crate::stats::{self, Latencies, Tally};
use crate::steal::StealMeter;
use crate::trace::Tracer;
use crate::{child, Outcome, Run};
use ca_dla::gen;
use ca_service::{solve_job, EigenService, JobResult, KnobSnapshot, ServiceConfig, SymmEigenJob};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Job sizes; a burst holds one job of each, smallest first.
const SIZES: [usize; 8] = [8, 12, 16, 24, 32, 48, 64, 96];
/// Distinct seeded jobs the clients cycle through.
const POOL: usize = 32;
const BURST: usize = SIZES.len();
const CLIENTS: usize = 2;
/// Virtual processors per job.
const P: usize = 4;
/// Service constructions (each with a warm-up pass over the pool) whose
/// median is `setup_s`; each takes tens of milliseconds.
const SETUP_REPS: usize = 9;
/// Minimum wall time of the solo passes behind `service.solo_ms_p50`.
const SOLO_S: f64 = 2.0;

/// One pool entry: the job and the spectrum its matrix was built from.
pub struct Entry {
    job: SymmEigenJob,
    spectrum: Vec<f64>,
}

/// The seeded pool. Entry `i` has `n = SIZES[i % 8]`; every fourth job
/// wants vectors, rotating so that each size asks for them once.
pub fn pool(seed: u64) -> Vec<Entry> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..POOL)
        .map(|i| {
            let n = SIZES[i % BURST];
            let spectrum = gen::linspace_spectrum(n, -1.0, 1.0);
            let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
            let job = if (i + i / BURST) % 4 == 3 {
                SymmEigenJob::with_vectors(a, P, 1)
            } else {
                SymmEigenJob::values(a, P, 1)
            };
            Entry { job, spectrum }
        })
        .collect()
}

fn answer(r: JobResult) -> Answer {
    Answer {
        total: r.costs.total(),
        ev: r.eigenvalues,
        v: r.vectors,
    }
}

/// What the clients of one timed phase saw.
#[derive(Default)]
struct Phase {
    job: Latencies,
    solve: Latencies,
    sums: StageSums,
    tally: Tally,
    /// Pool entry of each `job` sample, for condemning an entry later.
    entries: Vec<usize>,
    /// Served jobs per pool entry.
    served: Vec<u64>,
    completed: usize,
    started: Option<Instant>,
    elapsed_s: f64,
}

/// A burst's jobs: 8 consecutive pool entries.
fn burst_entries(client: usize, burst: usize) -> impl Iterator<Item = usize> {
    let start = (client * POOL / CLIENTS + burst * BURST) % POOL;
    start..start + BURST
}

/// Both clients' closed loops for `seconds`; every answer is compared
/// with the reference bits.
fn phase(svc: &EigenService, pool: &[Entry], refs: &[Answer], seconds: f64) -> Phase {
    let total = Mutex::new(Phase {
        served: vec![0; POOL],
        ..Phase::default()
    });
    let t0 = Instant::now();
    std::thread::scope(|sc| {
        for client in 0..CLIENTS {
            let total = &total;
            sc.spawn(move || {
                let mut ph = Phase {
                    served: vec![0; POOL],
                    ..Phase::default()
                };
                let mut burst = 0;
                while t0.elapsed().as_secs_f64() < seconds {
                    let ids: Vec<usize> = burst_entries(client, burst).collect();
                    let jobs: Vec<SymmEigenJob> =
                        ids.iter().map(|&k| pool[k].job.clone()).collect();
                    let sent = Instant::now();
                    let tickets = svc.submit_batch(jobs);
                    for (&k, ticket) in ids.iter().zip(tickets) {
                        let res = ticket.and_then(|t| t.wait());
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        ph.served[k] += 1;
                        ph.entries.push(k);
                        let outcome = match res {
                            Ok(r) => {
                                ph.sums.absorb(&r.costs);
                                ph.solve.hit(r.costs.wall_seconds("") * 1e3);
                                check::check_repeat(&refs[k], &answer(r))
                            }
                            Err(e) => Err(job_error(&e)),
                        };
                        match outcome {
                            Ok(()) => {
                                ph.job.hit(ms);
                                ph.completed += 1;
                                ph.tally.record(Ok(()));
                            }
                            Err(e) => {
                                ph.job.miss();
                                ph.tally.record(Err(e));
                            }
                        }
                    }
                    burst += 1;
                }
                let mut t = total.lock().expect("client panicked while merging");
                t.job.extend(&ph.job);
                t.entries.extend_from_slice(&ph.entries);
                t.solve.extend(&ph.solve);
                t.sums.merge(&ph.sums);
                t.tally.merge(&ph.tally);
                for (a, b) in t.served.iter_mut().zip(&ph.served) {
                    *a += b;
                }
                t.completed += ph.completed;
            });
        }
    });
    let mut ph = total.into_inner().expect("client panicked while merging");
    ph.started = Some(t0);
    ph.elapsed_s = t0.elapsed().as_secs_f64();
    ph
}

/// Construct a service and serve the whole pool once, a burst at a
/// time (so the warm-up never queues deeper than the clients will).
/// Returns the service, the milliseconds that took, and the answers.
fn set_up(pool: &[Entry]) -> (EigenService, f64, Vec<Result<Answer, String>>) {
    let jobs: Vec<SymmEigenJob> = pool.iter().map(|e| e.job.clone()).collect();
    let t0 = Instant::now();
    let svc = EigenService::new(ServiceConfig::default());
    let results: Vec<_> = jobs
        .chunks(BURST)
        .flat_map(|b| svc.solve_batch(b.to_vec()))
        .collect();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let answers = results
        .into_iter()
        .map(|r| r.map(answer).map_err(|e| job_error(&e)))
        .collect();
    (svc, ms, answers)
}

/// Solo passes over the pool through `solve_job` on this thread, for at
/// least `min_s` seconds. Returns per-job ms, per-pass ms and answers of
/// the first pass.
fn solo(
    pool: &[Entry],
    knobs: KnobSnapshot,
    min_s: f64,
) -> (Vec<f64>, Vec<f64>, Vec<Result<Answer, String>>) {
    let (mut job_ms, mut pass_ms, mut first) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while pass_ms.is_empty() || t0.elapsed().as_secs_f64() < min_s {
        let tp = Instant::now();
        for e in pool {
            let tj = Instant::now();
            let r = solve_job(&e.job, knobs);
            job_ms.push(tj.elapsed().as_secs_f64() * 1e3);
            if pass_ms.is_empty() {
                first.push(r.map(answer).map_err(|e| job_error(&e)));
            }
        }
        pass_ms.push(tp.elapsed().as_secs_f64() * 1e3);
    }
    (job_ms, pass_ms, first)
}

/// Run `service-burst`.
pub fn run(run: &Run) -> Outcome {
    let pool = pool(run.seed);
    let mut tally = Tally::default();
    let meter = StealMeter::start();
    let mut setup = Vec::new();
    let mut refs: Vec<Answer> = Vec::new();
    let mut svc = None;
    for _ in 0..SETUP_REPS {
        let (s, ms, answers) = set_up(&pool);
        setup.push((ms, Instant::now()));
        for (k, a) in answers.into_iter().enumerate() {
            tally.record(match (a, refs.get(k)) {
                (Ok(a), Some(r)) => check::check_repeat(r, &a),
                (Ok(a), None) => {
                    refs.push(a);
                    Ok(())
                }
                (Err(e), _) => Err(e),
            });
        }
        if refs.len() < POOL {
            // Without a full reference set nothing later can be checked.
            return Outcome {
                metrics: Metrics::default(),
                tally,
                info: Vec::new(),
            };
        }
        svc = Some(s);
    }
    let svc = svc.expect("set up at least once");
    let knobs = svc.knobs();

    let before = svc.stats();
    if run.trace {
        ca_obs::alloc::take();
        ca_obs::alloc::set_metering(true);
    }
    let cpu0 = host::cpu_seconds();
    // A traced run splits its time between an untraced and a traced phase.
    let phase_s = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let mut ph = phase(&svc, &pool, &refs, phase_s);
    let cpu = host::cpu_seconds() - cpu0;
    ca_obs::alloc::set_metering(false);
    let (allocs, bytes) = ca_obs::alloc::take();
    let after = svc.stats();
    let steal = meter.finish();

    // Served == solo, and the solo answers are accurate: any entry that
    // fails condemns every served job of that entry.
    let (solo_job_ms, solo_pass_ms, solo_first) =
        solo(&pool, knobs, if run.trace { SOLO_S } else { 0.0 });
    let mut accuracy = 0.0f64;
    for (k, s) in solo_first.iter().enumerate() {
        let verdict = s.as_ref().map_err(Clone::clone).and_then(|s| {
            check::check_repeat(&refs[k], s)
                .map_err(|_| "served bits differ from solo".to_string())?;
            check::check_reference(&pool[k].job.a, &pool[k].spectrum, s)
        });
        tally.record(verdict.as_ref().map(|_| ()).map_err(Clone::clone));
        match verdict {
            Ok(acc) => accuracy = accuracy.max(acc),
            Err(e) => {
                accuracy = f64::INFINITY;
                ph.tally.condemn(ph.served[k], &e);
                ph.job = ph.job.voided(|i| ph.entries[i] == k);
            }
        }
    }
    tally.merge(&ph.tally);

    let batched_frac = ratio(
        (after.batched_jobs - before.batched_jobs) as f64,
        (after.submitted - before.submitted) as f64,
    );
    let mut info = vec![
        ("samples".into(), ph.job.samples().len().to_string()),
        ("accuracy_eps".into(), num(accuracy)),
        ("batched_frac".into(), num(batched_frac)),
        (
            "service_workers".into(),
            svc.config().effective_workers().to_string(),
        ),
    ];
    let p99 = stats::percentile(ph.job.samples(), 0.99);
    info.push(("job_ms_p99".into(), p99.map_or("unreported".into(), num)));
    let jobs_per_s = ph.completed as f64 / ph.elapsed_s;
    let started = ph.started.expect("phase ran");
    let phase_steal = steal.fraction(started, started + Duration::from_secs_f64(ph.elapsed_s));
    let raw_setup: Vec<f64> = setup.iter().map(|&(ms, _)| ms / 1e3).collect();
    info.push(("steal_frac".into(), num(steal.overall())));
    info.push((
        "raw_wall".into(),
        format!(
            "{{\"setup_s\": {}, \"solve_ms_p50\": {}, \"job_ms_p50\": {}, \"jobs_per_s\": {}}}",
            num(stats::median(&raw_setup).expect("setup ran")),
            num(stats::p50_or_median(ph.solve.samples())),
            num(stats::p50_or_median(ph.job.samples())),
            num(jobs_per_s),
        ),
    ));

    let metrics = if !run.trace {
        let net_setup: Vec<f64> = setup
            .iter()
            .map(|&(ms, end)| steal.net_ms(ms, end) / 1e3)
            .collect();
        let mut m = Metrics::default();
        m.push(
            "setup_s",
            stats::median(&net_setup).expect("setup ran"),
            "s",
        );
        m.push(
            "solve_ms_p50",
            stats::p50_or_median(&ph.solve.net(&steal)),
            "ms",
        );
        m.push(
            "job_ms_p50",
            stats::p50_or_median(&ph.job.net(&steal)),
            "ms",
        );
        m.push("jobs_per_s", jobs_per_s / (1.0 - phase_steal), "1/s");
        m.push("peak_rss_mb", host::peak_rss_mb(), "MiB");
        let mut total = ca_bsp::Costs::default();
        for r in &refs {
            add_costs(&mut total, &r.total);
        }
        push_ledger(&mut m, total);
        m
    } else {
        let jobs = ph.job.samples().len().max(1) as f64;
        let accounted = (after.accounted() - before.accounted()).max(1) as f64;
        let mut l = Layers {
            peak_gflops: host::gemm_peak_gflops(),
            accuracy_eps: accuracy,
            ..Layers::default()
        };
        l.stages_from(&ph.sums);
        l.cores_busy = cpu / ph.elapsed_s;
        l.alloc_count = allocs as f64 / jobs;
        l.alloc_bytes = bytes as f64 / jobs;
        l.svc_queue_wait_ms = (after.queue_wait_us - before.queue_wait_us) as f64 / accounted / 1e3;
        l.svc_solve_ms = (after.solve_us - before.solve_us) as f64 / accounted / 1e3;
        l.svc_batched_frac = batched_frac;
        l.svc_batches = (after.batches - before.batches) as f64 / ph.elapsed_s;
        l.svc_queue_depth_peak = after.queue_depth_peak as f64;
        l.svc_rejected = (after.rejected - before.rejected) as f64;
        l.svc_failed = (after.failed - before.failed) as f64;
        l.svc_deadline_missed = (after.deadline_missed - before.deadline_missed) as f64;
        l.svc_job_ms_p99 = p99.unwrap_or(0.0);
        l.svc_solo_ms_p50 = stats::p50_or_median(&solo_job_ms);
        let solo_pass = stats::median(&solo_pass_ms).unwrap_or(0.0);
        l.svc_speedup_vs_solo = ratio(jobs_per_s, ratio(POOL as f64 * 1e3, solo_pass));

        let tracer = Tracer::start();
        let mut traced = phase(&svc, &pool, &refs, phase_s);
        tracer.close(traced.job.samples().len());
        let (agg, counters, dropped) = tracer.finish();
        tally.record(if dropped == 0 {
            Ok(())
        } else {
            Err("trace ring dropped events".into())
        });
        tally.merge(&std::mem::take(&mut traced.tally));
        l.spans_from(&agg, &counters, dropped, traced.job.samples().len());
        let traced_p50 = stats::median(traced.job.samples()).unwrap_or(0.0);
        l.trace_overhead_frac =
            ratio(traced_p50, stats::median(ph.job.samples()).unwrap_or(0.0)) - 1.0;

        match child::serial_solve("service-burst", run.seed) {
            Ok((ms, fp)) => {
                tally.record(if fp == pool_fingerprint(&refs) {
                    Ok(())
                } else {
                    Err("CA_SERIAL=1 eigenvalue bits differ".into())
                });
                l.serial_solve_ms = ms;
                l.parallel_speedup = ratio(ms, solo_pass);
            }
            Err(e) => tally.record(Err(format!("serial child: {e}"))),
        }
        l.metrics()
    };
    svc.shutdown();
    Outcome {
        metrics,
        tally,
        info,
    }
}

fn job_error(e: &ca_service::EigenError) -> String {
    format!("job error: {e}")
}

fn pool_fingerprint(answers: &[Answer]) -> u64 {
    let all: Vec<f64> = answers.iter().flat_map(|a| a.ev.iter().copied()).collect();
    check::fingerprint(&all)
}

/// The `CA_SERIAL=1` child's work: solo passes over the pool (one
/// warm-up, then at least three). Returns the median pass ms and the
/// fingerprint of all eigenvalues.
pub fn serial_unit(seed: u64) -> Result<(f64, u64), String> {
    let pool = pool(seed);
    let knobs = KnobSnapshot::capture();
    let (_, _, first) = solo(&pool, knobs, 0.0);
    let answers: Result<Vec<Answer>, String> = first.into_iter().collect();
    let answers = answers?;
    let mut passes = Vec::new();
    while passes.len() < 3 {
        let (_, pass_ms, _) = solo(&pool, knobs, 0.0);
        passes.extend(pass_ms);
    }
    Ok((
        stats::median(&passes).expect("three passes"),
        pool_fingerprint(&answers),
    ))
}
