//! The two direct-solve workloads: one caller in a closed loop, a fresh
//! `Machine` for each `try_symm_eigen_25d[_vectors]` call, the same
//! seeded input every time.

use crate::check::{self, Answer};
use crate::host;
use crate::layers::{Layers, Stage, StageSums};
use crate::replay::{self, Replay};
use crate::report::{num, Metrics};
use crate::stats::{self, Latencies, Tally};
use crate::steal::StealMeter;
use crate::trace::Tracer;
use crate::{child, Outcome, Run};
use ca_bsp::{Machine, MachineParams};
use ca_dla::{gen, Matrix};
use ca_eigen::{try_symm_eigen_25d, try_symm_eigen_25d_vectors, EigenParams, StageCosts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// One direct-solve workload.
#[derive(Debug, Clone, Copy)]
pub struct SolveSpec {
    /// Workload name.
    pub name: &'static str,
    /// Matrix dimension.
    pub n: usize,
    /// Virtual processors.
    pub p: usize,
    /// Replication factor.
    pub c: usize,
    /// Eigenvectors wanted.
    pub vectors: bool,
}

/// Cold solves whose median is `setup_s`, each on a fresh thread so its
/// workspace arenas start empty.
const SETUP_REPS: usize = 5;
/// A timed phase runs at least enough solves for a reportable median,
/// unless this much wall time has passed.
const PHASE_CAP_S: f64 = 100.0;
/// Solves per phase of a traced run, whose two phases share the run's
/// `--seconds`: per-layer numbers are means and medians with no
/// percentile rule.
const TRACED_MIN_SOLVES: usize = 5;
/// Replays per traced run.
const REPLAYS: usize = 3;

/// The seeded input: `A = Q·diag(λ)·Qᵀ` with `λ` evenly spaced in
/// `[-1, 1]` and `Q` drawn from the seed.
pub fn input(spec: &SolveSpec, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spectrum = gen::linspace_spectrum(spec.n, -1.0, 1.0);
    (gen::symmetric_with_spectrum(&mut rng, &spectrum), spectrum)
}

/// One solve, timed two ways: `job` around the whole closed-loop
/// iteration (machine construction, the call, dropping the machine) and
/// `solve` around the solver call alone.
struct Timed {
    ans: Answer,
    costs: StageCosts,
    job_ms: f64,
    solve_ms: f64,
}

fn solve_once(spec: &SolveSpec, params: &EigenParams, a: &Matrix) -> Result<Timed, String> {
    let t0 = Instant::now();
    let machine = Machine::new(MachineParams::new(spec.p));
    let t1 = Instant::now();
    let out = if spec.vectors {
        try_symm_eigen_25d_vectors(&machine, params, a).map(|(ev, v, c)| (ev, Some(v), c))
    } else {
        try_symm_eigen_25d(&machine, params, a).map(|(ev, c)| (ev, None, c))
    };
    let solve_ms = t1.elapsed().as_secs_f64() * 1e3;
    drop(machine);
    let job_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (ev, v, costs) = out.map_err(|e| {
        eprintln!("solve failed: {e}");
        "typed error from the solver".to_string()
    })?;
    let ans = Answer {
        ev,
        v,
        total: costs.total(),
    };
    Ok(Timed {
        ans,
        costs,
        job_ms,
        solve_ms,
    })
}

/// Samples of one timed phase.
#[derive(Default)]
struct Phase {
    job: Latencies,
    solve: Latencies,
    sums: StageSums,
    elapsed_s: f64,
    completed: usize,
}

struct Solver<'a> {
    spec: SolveSpec,
    params: EigenParams,
    a: &'a Matrix,
    spectrum: &'a [f64],
    reference: Option<Answer>,
    accuracy: f64,
    tally: Tally,
}

impl Solver<'_> {
    /// Check an answer: the first against the spectrum (and residual and
    /// orthogonality), every later one for identical bits and ledger.
    fn check(&mut self, ans: &Answer) -> Result<(), String> {
        match &self.reference {
            None => {
                self.accuracy = check::check_reference(self.a, self.spectrum, ans)?;
                self.reference = Some(ans.clone());
                Ok(())
            }
            Some(r) => {
                check::check_repeat(r, ans)?;
                // Cheap on every answer; implied by the bits, but stated.
                if check::spectral_eps(self.a, self.spectrum, &ans.ev) > check::ACCURACY_TOL {
                    return Err("eigenvalues outside tolerance".into());
                }
                Ok(())
            }
        }
    }

    /// One cold solve (the caller runs it on a fresh thread); returns
    /// its wall milliseconds and the instant it ended.
    fn setup_solve(&mut self) -> (f64, Instant) {
        let t0 = Instant::now();
        let r = solve_once(&self.spec, &self.params, self.a);
        let done = (t0.elapsed().as_secs_f64() * 1e3, Instant::now());
        let outcome = r.and_then(|t| self.check(&t.ans));
        self.tally.record(outcome);
        done
    }

    /// Solve in a closed loop for `seconds` and at least `min_solves`
    /// times, checking every answer; `after` runs after each solve,
    /// outside the timed region.
    fn phase(&mut self, seconds: f64, min_solves: usize, after: &dyn Fn()) -> Phase {
        let mut ph = Phase::default();
        let t0 = Instant::now();
        loop {
            let elapsed = t0.elapsed().as_secs_f64();
            let enough = elapsed >= seconds && ph.job.samples().len() >= min_solves;
            if enough || elapsed >= PHASE_CAP_S {
                ph.elapsed_s = elapsed;
                break;
            }
            let r = solve_once(&self.spec, &self.params, self.a);
            after();
            match r.and_then(|t| self.check(&t.ans).map(|()| t)) {
                Ok(t) => {
                    ph.job.hit(t.job_ms);
                    ph.solve.hit(t.solve_ms);
                    ph.sums.absorb(&t.costs);
                    ph.completed += 1;
                    self.tally.record(Ok(()));
                }
                Err(e) => {
                    ph.job.miss();
                    ph.solve.miss();
                    self.tally.record(Err(e));
                }
            }
        }
        ph
    }
}

/// Run a direct-solve workload.
pub fn run(spec: &SolveSpec, run: &Run) -> Outcome {
    let (a, spectrum) = input(spec, run.seed);
    let mut s = Solver {
        spec: *spec,
        params: EigenParams::new(spec.p, spec.c),
        a: &a,
        spectrum: &spectrum,
        reference: None,
        accuracy: f64::INFINITY,
        tally: Tally::default(),
    };
    let meter = StealMeter::start();
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS - 1 {
        setup.push(on_fresh_thread(|| s.setup_solve()));
    }
    // The last cold thread stays on for the measured work.
    let (metrics, info) = on_fresh_thread(|| {
        setup.push(s.setup_solve());
        if run.trace {
            drop(meter);
            (traced(&mut s, run), Vec::new())
        } else {
            untraced(&mut s, run, &setup, meter)
        }
    });
    let mut info = info;
    info.push(("accuracy_eps".into(), num(s.accuracy)));
    Outcome {
        metrics,
        tally: s.tally,
        info,
    }
}

fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|sc| sc.spawn(f).join().expect("benchmark thread panicked"))
}

/// The end-to-end metrics: times net of host steal, with the raw wall
/// times beside them in the report.
fn untraced(
    s: &mut Solver,
    run: &Run,
    setup: &[(f64, Instant)],
    meter: StealMeter,
) -> (Metrics, Vec<(String, String)>) {
    let t0 = Instant::now();
    let ph = s.phase(run.seconds, stats::min_samples(0.5), &|| {});
    let steal = meter.finish();
    let setup_s: Vec<f64> = setup
        .iter()
        .map(|&(ms, end)| steal.net_ms(ms, end) / 1e3)
        .collect();
    let net_elapsed =
        ph.elapsed_s * (1.0 - steal.fraction(t0, t0 + Duration::from_secs_f64(ph.elapsed_s)));
    let mut m = Metrics::default();
    m.push("setup_s", stats::median(&setup_s).expect("setup ran"), "s");
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
    m.push("jobs_per_s", ph.completed as f64 / net_elapsed, "1/s");
    m.push("peak_rss_mb", host::peak_rss_mb(), "MiB");
    push_ledger(
        &mut m,
        s.reference.as_ref().map(|r| r.total).unwrap_or_default(),
    );
    let raw_setup: Vec<f64> = setup.iter().map(|&(ms, _)| ms / 1e3).collect();
    let info = vec![
        ("samples".into(), ph.job.samples().len().to_string()),
        ("steal_frac".into(), num(steal.overall())),
        (
            "raw_wall".into(),
            format!(
                "{{\"setup_s\": {}, \"solve_ms_p50\": {}, \"job_ms_p50\": {}, \"jobs_per_s\": {}, \"solve_ms_iqr_frac\": {}}}",
                num(stats::median(&raw_setup).expect("setup ran")),
                num(stats::p50_or_median(ph.solve.samples())),
                num(stats::p50_or_median(ph.job.samples())),
                num(ph.completed as f64 / ph.elapsed_s),
                num(stats::iqr_frac(ph.solve.samples()).unwrap_or(0.0)),
            ),
        ),
    ];
    (m, info)
}

/// `ledger_*`: the paper's `F/W/Q/S` of one solve.
pub fn push_ledger(m: &mut Metrics, total: ca_bsp::Costs) {
    m.push("ledger_flops", total.flops as f64, "flops");
    m.push("ledger_words", total.horizontal_words as f64, "words");
    m.push("ledger_vwords", total.vertical_words as f64, "words");
    m.push("ledger_supersteps", total.supersteps as f64, "count");
}

/// The per-layer metrics: an untraced phase (stage walls, CPU use,
/// allocations), a level-2 traced phase (spans, counters), the replay,
/// and the `CA_SERIAL=1` child.
fn traced(s: &mut Solver, run: &Run) -> Metrics {
    let mut l = Layers {
        peak_gflops: host::gemm_peak_gflops(),
        ..Layers::default()
    };
    l.accuracy_eps = s.accuracy;

    ca_obs::alloc::take();
    ca_obs::alloc::set_metering(true);
    let cpu0 = host::cpu_seconds();
    let plain = s.phase(run.seconds / 2.0, TRACED_MIN_SOLVES, &|| {});
    let cpu = host::cpu_seconds() - cpu0;
    ca_obs::alloc::set_metering(false);
    let (allocs, bytes) = ca_obs::alloc::take();
    let solves = plain.job.samples().len().max(1) as f64;
    l.stages_from(&plain.sums);
    l.cores_busy = cpu / plain.elapsed_s;
    l.alloc_count = allocs as f64 / solves;
    l.alloc_bytes = bytes as f64 / solves;
    let plain_p50 = stats::median(plain.solve.samples()).unwrap_or(0.0);

    let tracer = Tracer::start();
    let traced = s.phase(run.seconds / 2.0, TRACED_MIN_SOLVES, &|| tracer.close(1));
    let (agg, counters, dropped) = tracer.finish();
    s.tally.record(if dropped == 0 {
        Ok(())
    } else {
        Err("trace ring dropped events".into())
    });
    l.spans_from(&agg, &counters, dropped, traced.job.samples().len());
    let traced_p50 = stats::median(traced.solve.samples()).unwrap_or(0.0);
    l.trace_overhead_frac = crate::layers::ratio(traced_p50, plain_p50) - 1.0;

    if !s.spec.vectors {
        replay_layers(s, &mut l);
    }

    match child::serial_solve(s.spec.name, run.seed) {
        Ok((ms, fp)) => {
            let want = s.reference.as_ref().map(|r| check::fingerprint(&r.ev));
            s.tally.record(if Some(fp) == want {
                Ok(())
            } else {
                Err("CA_SERIAL=1 eigenvalue bits differ".into())
            });
            l.serial_solve_ms = ms;
            l.parallel_speedup = crate::layers::ratio(ms, plain_p50);
        }
        Err(e) => s.tally.record(Err(format!("serial child: {e}"))),
    }
    l.metrics()
}

/// Replay the values path [`REPLAYS`] times, each right after a solver
/// call on the same input: every replay must match the solver's bits;
/// its call times give the finale kernels, and divided by the stage
/// walls of the solve beside it, each stage's coverage.
fn replay_layers(s: &mut Solver, l: &mut Layers) {
    let mut runs: Vec<Replay> = Vec::new();
    let mut cover: [Vec<f64>; 5] = Default::default();
    for _ in 0..REPLAYS {
        let solved = solve_once(&s.spec, &s.params, s.a);
        let outcome = solved
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|t| s.check(&t.ans));
        s.tally.record(outcome);
        let machine = Machine::new(MachineParams::new(s.spec.p));
        let r = replay::replay_values(&machine, &s.params, s.a);
        let outcome = match (&r, &s.reference) {
            (Ok(r), Some(reference)) if check::same_bits(&r.ev, &reference.ev) => Ok(()),
            (Ok(_), _) => Err("replay eigenvalue bits differ from the solver".to_string()),
            (Err(e), _) => Err(e.clone()),
        };
        s.tally.record(outcome);
        if let (Ok(r), Ok(t)) = (r, solved) {
            let mut walls = StageSums::default();
            walls.absorb(&t.costs);
            for st in Stage::ALL {
                let wall = walls.ms(st);
                if wall > 0.0 {
                    cover[st.index()].push(r.stage_secs(st) * 1e3 / wall);
                }
            }
            runs.push(r);
        }
    }
    let med = |f: &dyn Fn(&Replay) -> f64| {
        stats::median(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0) * 1e3
    };
    l.band_halving_ms = med(&|r| r.call_secs(replay::REDUCE_BAND));
    l.fused_sweep_ms = med(&|r| r.call_secs(replay::SWEEP));
    l.dnc_ms = med(&|r| r.call_secs(replay::DNC));
    if let Some(r) = runs.first() {
        let b = r.sweep_bandwidth as f64;
        l.fused_sweep_gflops = crate::layers::rate(6.0 * s.spec.n as f64 * b * b, l.fused_sweep_ms);
    }
    for st in Stage::ALL {
        l.coverage[st.index()] = stats::median(&cover[st.index()]).unwrap_or(0.0);
    }
}

/// The `CA_SERIAL=1` child's work: one warm-up and three timed solves.
/// Returns the median ms and the eigenvalue fingerprint.
pub fn serial_unit(spec: &SolveSpec, seed: u64) -> Result<(f64, u64), String> {
    let (a, _) = input(spec, seed);
    let params = EigenParams::new(spec.p, spec.c);
    let first = solve_once(spec, &params, &a)?;
    let mut ms = Vec::new();
    for _ in 0..3 {
        let t = solve_once(spec, &params, &a)?;
        check::check_repeat(&first.ans, &t.ans)?;
        ms.push(t.solve_ms);
    }
    Ok((
        stats::median(&ms).expect("three solves"),
        check::fingerprint(&first.ans.ev),
    ))
}
