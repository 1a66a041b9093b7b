//! `perfbench`: the repository's benchmark. One command runs one
//! workload, checks every answer it times, and prints every metric by
//! name with its unit; the last line of stdout is the result object.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with tracing off;
//! `--trace 1` reports the per-layer metrics from an untraced phase, a
//! `ca_obs` level-2 traced phase, a stage-by-stage replay and a
//! `CA_SERIAL=1` child. See `README.md` beside this crate for the
//! workloads and the metric definitions.

mod check;
mod child;
mod host;
mod layers;
mod replay;
mod report;
mod service;
mod solve;
mod stats;
mod steal;
mod trace;

use report::{num, string, Metrics};
use solve::SolveSpec;
use stats::Tally;
use std::process::ExitCode;

/// Allocation metering for `dla.alloc.*`; off except around the
/// metered phase of a traced run.
#[global_allocator]
static ALLOC: ca_obs::alloc::CountingAllocator = ca_obs::alloc::CountingAllocator;

/// The workloads, by the names later changes refer to.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// A direct-solve workload.
    Solve(SolveSpec),
    /// `service-burst`.
    Service,
}

const VALUES: SolveSpec = SolveSpec {
    name: "values-n1024",
    n: 1024,
    p: 4,
    c: 1,
    vectors: false,
};
const VECTORS: SolveSpec = SolveSpec {
    name: "vectors-2p5d-n768",
    n: 768,
    p: 8,
    c: 2,
    vectors: true,
};

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "values-n1024" => Some(Workload::Solve(VALUES)),
            "vectors-2p5d-n768" => Some(Workload::Solve(VECTORS)),
            "service-burst" => Some(Workload::Service),
            _ => None,
        }
    }

    /// `{"name":…, "n":…, "p":…, "c":…}` for the report.
    fn describe(self) -> String {
        match self {
            Workload::Solve(s) => format!(
                "{{\"name\": {}, \"n\": {}, \"p\": {}, \"c\": {}, \"vectors\": {}, \"clients\": 1}}",
                string(s.name),
                s.n,
                s.p,
                s.c,
                s.vectors
            ),
            Workload::Service => "{\"name\": \"service-burst\", \"n\": [8, 12, 16, 24, 32, 48, 64, 96], \"p\": 4, \"c\": 1, \"vectors\": \"every 4th job\", \"clients\": 2, \"burst\": 8}".to_string(),
        }
    }
}

/// One invocation's settings.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Length of each timed phase.
    pub seconds: f64,
    /// Per-layer (`true`) or end-to-end (`false`) metrics.
    pub trace: bool,
}

/// What a workload hands back: its metrics, the failure accounting,
/// and extra facts for the report.
pub struct Outcome {
    /// End-to-end or per-layer metrics.
    pub metrics: Metrics,
    /// Attempted and failed checks.
    pub tally: Tally,
    /// Extra `(key, JSON value)` facts.
    pub info: Vec<(String, String)>,
}

const USAGE: &str = "usage: perfbench --workload <values-n1024|vectors-2p5d-n768|service-burst> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(Workload, Run), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let run = Run {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(0.0),
        trace: trace.unwrap_or(false),
    };
    Ok((workload.ok_or("--workload is required")?, run))
}

/// Refuse to measure under a non-default configuration: any `CA_*`
/// variable, or any knob away from its default.
fn knob_guard() -> Result<String, String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CA_"))
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to measure with {} set: unset every CA_* variable",
            set.join(", ")
        ));
    }
    let k = ca_dla::tune::KnobSnapshot::capture();
    let lookahead = ca_obs::knobs::lookahead();
    let zero_copy = ca_dla::bulge::zero_copy_enabled();
    let level = ca_obs::level();
    let default = k.dnc_enabled
        && k.dnc_leaf == ca_dla::tune::DEFAULT_DNC_LEAF
        && k.halve_floor == ca_dla::tune::DEFAULT_HALVE_FLOOR
        && !k.serial
        && lookahead
        && zero_copy
        && level == 0;
    let desc = format!(
        "{{\"dnc_enabled\": {}, \"dnc_leaf\": {}, \"halve_floor\": {}, \"serial\": {}, \"lookahead\": {lookahead}, \"zero_copy\": {zero_copy}, \"trace_level\": {level}}}",
        k.dnc_enabled, k.dnc_leaf, k.halve_floor, k.serial
    );
    if default {
        Ok(desc)
    } else {
        Err(format!(
            "refusing to measure under non-default knobs {desc}"
        ))
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let child = child::is_child(&args);
    if child {
        args.remove(0);
    }
    let (workload, run) = match parse_args(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if child {
        return child::main(workload, run.seed);
    }
    if run.seconds <= 0.0 {
        eprintln!("--seconds is required\n{USAGE}");
        return ExitCode::from(2);
    }
    let knobs = match knob_guard() {
        Ok(k) => k,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let out = match workload {
        Workload::Solve(spec) => solve::run(&spec, &run),
        Workload::Service => service::run(&run),
    };

    let peak = host::gemm_peak_gflops();
    let reasons: Vec<String> = out
        .tally
        .reasons()
        .iter()
        .map(|(r, k)| format!("{}: {k}", string(r)))
        .collect();
    let mut info = vec![
        ("seed".to_string(), run.seed.to_string()),
        ("trace".to_string(), run.trace.to_string()),
        ("workload".to_string(), workload.describe()),
        (
            "host".to_string(),
            format!(
                "{{\"nproc\": {}, \"cpu_model\": {}, \"gemm_peak_gflops\": {}}}",
                host::nproc(),
                string(&host::cpu_model()),
                num(peak)
            ),
        ),
        ("knobs".to_string(), knobs),
        ("error_rate".to_string(), num(out.tally.error_rate())),
        (
            "failures".to_string(),
            format!("{{{}}}", reasons.join(", ")),
        ),
    ];
    info.extend(out.info);
    let body: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    println!("info {{{}}}", body.join(", "));

    let correct = out.tally.attempted() > 0 && out.tally.failed() == 0 && !out.metrics.0.is_empty();
    report::emit(
        &out.metrics,
        correct,
        out.tally.attempted(),
        out.tally.failed(),
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let (w, r) = parse_args(&args(
            "--workload service-burst --seed 7 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert!(matches!(w, Workload::Service));
        assert_eq!((r.seed, r.seconds, r.trace), (7, 2.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload service-burst")).is_err());
        assert!(parse_args(&args("--workload service-burst --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload service-burst --seed")).is_err());
    }
}
