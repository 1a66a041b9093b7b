//! The solver's stages, as named in `StageCosts` records and trace
//! spans; per-stage sums over a solve's records; and the per-layer
//! metric set. Every traced run reports every per-layer metric, in the
//! order [`Layers::metrics`] lists them; a layer a workload does not
//! exercise reads 0.

use crate::report::Metrics;
use crate::trace::{counter, SpanAgg};
use ca_bsp::Costs;
use ca_eigen::StageCosts;

/// One stage of Algorithm IV.3 (plus the §IV.C back-transformation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Algorithm IV.1.
    FullToBand,
    /// Algorithm IV.2 (only with replication `c > 1`).
    BandToBand,
    /// CA-SBR band halvings.
    CaSbr,
    /// Gather + sequential band → tridiagonal → eigenvalues.
    SeqEigensolve,
    /// Eigenvector back-transformation.
    BackTransform,
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; 5] = [
        Stage::FullToBand,
        Stage::BandToBand,
        Stage::CaSbr,
        Stage::SeqEigensolve,
        Stage::BackTransform,
    ];

    /// Metric-name key.
    pub fn key(self) -> &'static str {
        match self {
            Stage::FullToBand => "full_to_band",
            Stage::BandToBand => "band_to_band",
            Stage::CaSbr => "ca_sbr",
            Stage::SeqEigensolve => "seq_eigensolve",
            Stage::BackTransform => "back_transform",
        }
    }

    /// Prefix of the stage's `StageRecord` and span names.
    pub fn prefix(self) -> &'static str {
        match self {
            Stage::FullToBand => "full-to-band",
            Stage::BandToBand => "band-to-band",
            Stage::CaSbr => "ca-sbr",
            Stage::SeqEigensolve => "sequential eigensolve",
            Stage::BackTransform => "back-transformation",
        }
    }

    /// The stage a record or span name belongs to.
    pub fn of_name(name: &str) -> Option<Stage> {
        Stage::ALL
            .into_iter()
            .find(|s| name.starts_with(s.prefix()))
    }

    /// Position in [`Stage::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-stage wall seconds and costs summed over solves.
#[derive(Debug, Clone, Default)]
pub struct StageSums {
    /// Solves (or jobs) absorbed.
    pub solves: usize,
    /// Wall seconds per stage.
    pub secs: [f64; 5],
    /// Costs per stage.
    pub costs: [Costs; 5],
}

impl StageSums {
    /// Add one solve's stage records.
    pub fn absorb(&mut self, sc: &StageCosts) {
        self.solves += 1;
        for (rec, secs) in sc.stages.iter().zip(&sc.wall_secs) {
            if let Some(s) = Stage::of_name(&rec.name) {
                self.secs[s.index()] += secs;
                add_costs(&mut self.costs[s.index()], &rec.costs);
            }
        }
    }

    /// Merge another accumulator.
    pub fn merge(&mut self, other: &StageSums) {
        self.solves += other.solves;
        for i in 0..5 {
            self.secs[i] += other.secs[i];
            add_costs(&mut self.costs[i], &other.costs[i]);
        }
    }

    /// Mean wall milliseconds of `stage` per solve.
    pub fn ms(&self, stage: Stage) -> f64 {
        self.per_solve(self.secs[stage.index()] * 1e3)
    }

    /// Mean costs of `stage` per solve, each component divided.
    pub fn mean(&self, stage: Stage, pick: impl Fn(&Costs) -> u64) -> f64 {
        self.per_solve(pick(&self.costs[stage.index()]) as f64)
    }

    fn per_solve(&self, x: f64) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            x / self.solves as f64
        }
    }
}

/// `c += o` over the summed components (`F`, total flops, `W`, `Q`, `S`).
pub fn add_costs(c: &mut Costs, o: &Costs) {
    c.flops += o.flops;
    c.total_flops += o.total_flops;
    c.horizontal_words += o.horizontal_words;
    c.vertical_words += o.vertical_words;
    c.supersteps += o.supersteps;
}

/// Per-layer values of one traced run; see `perfbench/README.md` for
/// the definitions and which end-to-end metric each should move.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Single-thread `ca_dla::gemm` GF/s.
    pub peak_gflops: f64,
    /// Per stage: mean wall ms per solve.
    pub stage_ms: [f64; 5],
    /// Per stage: metered total flops per solve.
    pub stage_flops: [f64; 5],
    /// Per stage: `W` words per solve.
    pub stage_words: [f64; 5],
    /// Per stage: `Q` words per solve.
    pub stage_vwords: [f64; 5],
    /// Per stage: supersteps per solve.
    pub stage_supersteps: [f64; 5],
    /// `gemm.matmul` spans per solve.
    pub gemm_calls: f64,
    /// `gemm.matmul` ms per solve.
    pub gemm_ms: f64,
    /// `qr.factor` spans per solve.
    pub qr_calls: f64,
    /// `qr.factor` ms per solve.
    pub qr_ms: f64,
    /// Replay: `bulge::reduce_band` ms per solve.
    pub band_halving_ms: f64,
    /// Replay: `bulge::sweep_to_tridiagonal` ms per solve.
    pub fused_sweep_ms: f64,
    /// Replay: fused sweep model GF/s (`6·n·b²` flops).
    pub fused_sweep_gflops: f64,
    /// Replay: `dnc::dnc_eigenvalues` ms per solve.
    pub dnc_ms: f64,
    /// Secular-equation iterations per root.
    pub dnc_iters_per_root: f64,
    /// Bulge-chase windows per solve.
    pub chase_windows: f64,
    /// Workspace buffer grows per solve.
    pub ws_grows: f64,
    /// Largest workspace buffer, in words.
    pub ws_high_water: f64,
    /// Heap allocations per solve.
    pub alloc_count: f64,
    /// Heap bytes allocated per solve.
    pub alloc_bytes: f64,
    /// `exec.*` spans per solve.
    pub exec_calls: f64,
    /// `exec.*` ms per solve.
    pub exec_ms: f64,
    /// Distinct span thread ids per solve.
    pub threads_seen: f64,
    /// `dag.task` spans per solve.
    pub dag_tasks: f64,
    /// `dag.task` ms per solve.
    pub dag_task_ms: f64,
    /// Process CPU seconds per wall second.
    pub cores_busy: f64,
    /// One unit of work under `CA_SERIAL=1`, ms.
    pub serial_solve_ms: f64,
    /// `serial_solve_ms` over the parallel time of the same unit.
    pub parallel_speedup: f64,
    /// Service: mean queue wait per job, ms.
    pub svc_queue_wait_ms: f64,
    /// Service: mean in-worker solve time per job, ms.
    pub svc_solve_ms: f64,
    /// Service: share of jobs that ran coalesced.
    pub svc_batched_frac: f64,
    /// Service: coalesced batches per second.
    pub svc_batches: f64,
    /// Service: deepest queue seen.
    pub svc_queue_depth_peak: f64,
    /// Service: median job time through `solve_job` on the caller's thread.
    pub svc_solo_ms_p50: f64,
    /// Service: served jobs/s over solo jobs/s.
    pub svc_speedup_vs_solo: f64,
    /// Service: jobs refused at admission.
    pub svc_rejected: f64,
    /// Service: jobs that returned a typed error.
    pub svc_failed: f64,
    /// Service: jobs cancelled for a missed deadline.
    pub svc_deadline_missed: f64,
    /// Service: 99th-percentile job time, ms.
    pub svc_job_ms_p99: f64,
    /// Traced median over untraced median, minus one.
    pub trace_overhead_frac: f64,
    /// Events the trace ring dropped.
    pub dropped_events: f64,
    /// Per stage: share of wall covered by timed child calls.
    pub coverage: [f64; 5],
    /// Worst accuracy defect of the checked answers, in `n·ε·‖A‖`.
    pub accuracy_eps: f64,
}

impl Layers {
    /// Fill the stage metrics from `sums` (per solve).
    pub fn stages_from(&mut self, sums: &StageSums) {
        for s in Stage::ALL {
            let i = s.index();
            self.stage_ms[i] = sums.ms(s);
            self.stage_flops[i] = sums.mean(s, |c| c.total_flops);
            self.stage_words[i] = sums.mean(s, |c| c.horizontal_words);
            self.stage_vwords[i] = sums.mean(s, |c| c.vertical_words);
            self.stage_supersteps[i] = sums.mean(s, |c| c.supersteps);
        }
    }

    /// Fill the span- and counter-derived metrics of a traced phase that
    /// ran `solves` units of work.
    pub fn spans_from(
        &mut self,
        agg: &SpanAgg,
        counters: &[(&'static str, u64)],
        dropped: u64,
        solves: usize,
    ) {
        let per = |x: f64| x / solves.max(1) as f64;
        self.gemm_calls = per(agg.gemm.calls as f64);
        self.gemm_ms = per(agg.gemm.secs * 1e3);
        self.qr_calls = per(agg.qr.calls as f64);
        self.qr_ms = per(agg.qr.secs * 1e3);
        self.exec_calls = per(agg.exec.calls as f64);
        self.exec_ms = per(agg.exec.secs * 1e3);
        self.dag_tasks = per(agg.dag.calls as f64);
        self.dag_task_ms = per(agg.dag.secs * 1e3);
        self.threads_seen = crate::stats::median(&agg.threads_seen).unwrap_or(0.0);
        let roots = counter(counters, "dnc.secular_roots");
        if roots > 0 {
            self.dnc_iters_per_root = counter(counters, "dnc.secular_iters") as f64 / roots as f64;
        }
        self.chase_windows = per(counter(counters, "bulge.chase_windows") as f64);
        self.ws_grows = per(counter(counters, "workspace.grows") as f64);
        self.ws_high_water = counter(counters, "workspace.high_water_words") as f64;
        self.dropped_events = dropped as f64;
        for s in Stage::ALL {
            self.coverage[s.index()] = agg.coverage(s);
        }
    }

    /// Every per-layer metric, by name with its unit.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let peak = self.peak_gflops;
        for s in Stage::ALL {
            let i = s.index();
            let gflops = rate(self.stage_flops[i], self.stage_ms[i]);
            m.push(format!("eigen.{}.ms", s.key()), self.stage_ms[i], "ms");
            m.push(format!("eigen.{}.gflops", s.key()), gflops, "GF/s");
            m.push(
                format!("eigen.{}.peak_frac", s.key()),
                ratio(gflops, peak),
                "frac",
            );
        }
        for s in Stage::ALL {
            let i = s.index();
            m.push(
                format!("bsp.{}.words", s.key()),
                self.stage_words[i],
                "words",
            );
            m.push(
                format!("bsp.{}.vwords", s.key()),
                self.stage_vwords[i],
                "words",
            );
            m.push(
                format!("bsp.{}.supersteps", s.key()),
                self.stage_supersteps[i],
                "count",
            );
        }
        m.push("dla.gemm.peak_gflops", peak, "GF/s");
        m.push("dla.gemm.calls", self.gemm_calls, "count");
        m.push("dla.gemm.ms", self.gemm_ms, "ms");
        m.push("dla.qr.calls", self.qr_calls, "count");
        m.push("dla.qr.ms", self.qr_ms, "ms");
        m.push("dla.band_halving.ms", self.band_halving_ms, "ms");
        m.push("dla.fused_sweep.ms", self.fused_sweep_ms, "ms");
        m.push("dla.fused_sweep.gflops", self.fused_sweep_gflops, "GF/s");
        m.push("dla.dnc.ms", self.dnc_ms, "ms");
        m.push("dla.dnc.iters_per_root", self.dnc_iters_per_root, "count");
        m.push("dla.bulge.chase_windows", self.chase_windows, "count");
        m.push("dla.workspace.grows_per_solve", self.ws_grows, "count");
        m.push(
            "dla.workspace.high_water_words",
            self.ws_high_water,
            "words",
        );
        m.push("dla.alloc.count_per_solve", self.alloc_count, "count");
        m.push("dla.alloc.bytes_per_solve", self.alloc_bytes, "bytes");
        m.push("pla.exec.calls", self.exec_calls, "count");
        m.push("pla.exec.ms", self.exec_ms, "ms");
        m.push("pla.exec.threads_seen", self.threads_seen, "count");
        m.push("pla.dag.tasks", self.dag_tasks, "count");
        m.push("pla.dag.task_ms", self.dag_task_ms, "ms");
        m.push("pla.cores_busy", self.cores_busy, "cores");
        m.push("pla.serial_solve_ms", self.serial_solve_ms, "ms");
        m.push("pla.parallel_speedup", self.parallel_speedup, "ratio");
        m.push("service.queue_wait_ms_mean", self.svc_queue_wait_ms, "ms");
        m.push("service.solve_ms_mean", self.svc_solve_ms, "ms");
        m.push("service.batched_frac", self.svc_batched_frac, "frac");
        m.push("service.batches", self.svc_batches, "1/s");
        m.push(
            "service.queue_depth_peak",
            self.svc_queue_depth_peak,
            "count",
        );
        m.push("service.solo_ms_p50", self.svc_solo_ms_p50, "ms");
        m.push("service.speedup_vs_solo", self.svc_speedup_vs_solo, "ratio");
        m.push("service.rejected", self.svc_rejected, "count");
        m.push("service.failed", self.svc_failed, "count");
        m.push("service.deadline_missed", self.svc_deadline_missed, "count");
        m.push("service.job_ms_p99", self.svc_job_ms_p99, "ms");
        m.push("obs.trace_overhead_frac", self.trace_overhead_frac, "frac");
        m.push("obs.dropped_events", self.dropped_events, "count");
        for s in Stage::ALL {
            m.push(
                format!("obs.coverage.{}", s.key()),
                self.coverage[s.index()],
                "frac",
            );
        }
        m.push("conformance.accuracy_eps", self.accuracy_eps, "n_eps_A");
        m
    }
}

/// GF/s of `flops` in `ms` milliseconds (0 when nothing ran).
pub fn rate(flops: f64, ms: f64) -> f64 {
    if ms > 0.0 {
        flops / ms / 1e6
    } else {
        0.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
