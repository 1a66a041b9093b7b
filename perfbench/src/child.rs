//! The single-threaded baseline: the same unit of work re-run in a
//! child process of this binary with `CA_SERIAL=1`, which the program
//! reads once per process.

use crate::Workload;
use std::process::{Command, ExitCode, Stdio};

const FLAG: &str = "--serial-child";

/// Run the workload's unit of work in a `CA_SERIAL=1` child and wait
/// for it. Returns the child's median ms and its eigenvalue fingerprint.
pub fn serial_solve(workload: &str, seed: u64) -> Result<(f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args([FLAG, "--workload", workload, "--seed", &seed.to_string()])
        .env("CA_SERIAL", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the serial child: {e}"))?;
    if !out.status.success() {
        return Err(format!("serial child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse(stdout.lines().last().unwrap_or(""))
        .ok_or_else(|| format!("unreadable serial child output {stdout:?}"))
}

fn parse(line: &str) -> Option<(f64, u64)> {
    let mut ms = None;
    let mut fp = None;
    for field in line.split_whitespace() {
        match field.split_once('=') {
            Some(("serial_solve_ms", v)) => ms = v.parse().ok(),
            Some(("fingerprint", v)) => fp = u64::from_str_radix(v, 16).ok(),
            _ => {}
        }
    }
    Some((ms?, fp?))
}

/// Whether `args` ask for the child role.
pub fn is_child(args: &[String]) -> bool {
    args.first().is_some_and(|a| a == FLAG)
}

/// The child's entry point: refuses unless the program reads
/// `CA_SERIAL` as on, then prints one `serial_solve_ms=… fingerprint=…`
/// line.
pub fn main(workload: Workload, seed: u64) -> ExitCode {
    if !ca_obs::knobs::serial() {
        eprintln!("serial child started without CA_SERIAL=1");
        return ExitCode::from(2);
    }
    let r = match workload {
        Workload::Solve(spec) => crate::solve::serial_unit(&spec, seed),
        Workload::Service => crate::service::serial_unit(seed),
    };
    match r {
        Ok((ms, fp)) => {
            println!("serial_solve_ms={ms:?} fingerprint={fp:x}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serial child failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_line_round_trips() {
        assert_eq!(
            parse("serial_solve_ms=12.5 fingerprint=ff"),
            Some((12.5, 255))
        );
        assert_eq!(parse("serial_solve_ms=12.5"), None);
        assert_eq!(parse(""), None);
    }
}
