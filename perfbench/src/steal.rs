//! Hypervisor steal: time the host withheld from this machine's CPUs
//! while they had work.
//!
//! On a shared virtual machine the host periodically runs other tenants
//! on this machine's physical cores. A CPU that wants to run but is not
//! scheduled accrues *steal* ticks in `/proc/stat`; during such
//! stretches every timing here stretches by `1 / (1 − s)`, where `s` is
//! the stolen share of the wanted CPU time, or more for work that
//! synchronises several CPUs (on a 2-vCPU Xeon guest, 30% steal doubled
//! the wall time of a `values-n1024` solve, and `wall · (1 − s)` brought
//! it back to within 10–20% of the quiet value).
//! A [`StealMeter`] samples the counters every 100 ms so each timed
//! interval can be scaled by the steal of the windows it spans. The
//! correction assumes the benchmark is the only load on the machine.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sampling period.
const PERIOD: Duration = Duration::from_millis(100);
/// Largest steal share applied; beyond it a timing says nothing.
pub const MAX_STEAL: f64 = 0.9;

/// `(busy, steal)` clock ticks summed over all CPUs (`/proc/stat`).
/// Busy is user + nice + system + irq + softirq; idle and iowait are
/// neither.
fn ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    (at(0) + at(1) + at(2) + at(5) + at(6), at(7))
}

/// One reading of the counters.
#[derive(Debug, Clone, Copy)]
struct Reading {
    at: Instant,
    busy: u64,
    steal: u64,
}

fn read() -> Reading {
    let (busy, steal) = ticks();
    Reading {
        at: Instant::now(),
        busy,
        steal,
    }
}

/// Stolen share of the wanted CPU time between the last reading at or
/// before `from` and the first at or after `to` (0 when the readings do
/// not span the interval), capped at [`MAX_STEAL`].
fn fraction(readings: &[Reading], from: Instant, to: Instant) -> f64 {
    let a = readings.iter().rev().find(|r| r.at <= from);
    let b = readings.iter().find(|r| r.at >= to);
    match (a, b) {
        (Some(a), Some(b)) => {
            let steal = b.steal.saturating_sub(a.steal) as f64;
            let wanted = b.busy.saturating_sub(a.busy) as f64 + steal;
            if wanted > 0.0 {
                (steal / wanted).min(MAX_STEAL)
            } else {
                0.0
            }
        }
        _ => 0.0,
    }
}

/// A running sampler; [`StealMeter::finish`] stops it.
pub struct StealMeter {
    readings: Arc<Mutex<Vec<Reading>>>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

/// The readings of a finished meter.
#[derive(Debug, Clone, Default)]
pub struct Steal {
    readings: Vec<Reading>,
}

impl StealMeter {
    /// Start sampling.
    pub fn start() -> Self {
        let readings = Arc::new(Mutex::new(vec![read()]));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (readings, stop) = (Arc::clone(&readings), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(PERIOD);
                    readings
                        .lock()
                        .expect("steal readings poisoned")
                        .push(read());
                }
            })
        };
        Self {
            readings,
            stop,
            sampler: Some(sampler),
        }
    }

    /// Stop sampling (after one last reading) and hand back the readings.
    pub fn finish(mut self) -> Steal {
        self.stop_sampler();
        let mut readings =
            std::mem::take(&mut *self.readings.lock().expect("steal readings poisoned"));
        readings.push(read());
        Steal { readings }
    }

    fn stop_sampler(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.sampler.take() {
            h.join().expect("steal sampler panicked");
        }
    }
}

impl Drop for StealMeter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.sampler.take() {
            let _ = h.join();
        }
    }
}

impl Steal {
    /// Stolen share over `[from, to]`.
    pub fn fraction(&self, from: Instant, to: Instant) -> f64 {
        fraction(&self.readings, from, to)
    }

    /// `ms` of wall time that ended at `end`, net of the steal of the
    /// windows it spans.
    pub fn net_ms(&self, ms: f64, end: Instant) -> f64 {
        if !ms.is_finite() {
            return ms;
        }
        let start = end
            .checked_sub(Duration::from_secs_f64(ms / 1e3))
            .unwrap_or(end);
        ms * (1.0 - self.fraction(start, end))
    }

    /// Stolen share over everything sampled.
    pub fn overall(&self) -> f64 {
        match (self.readings.first(), self.readings.last()) {
            (Some(a), Some(b)) => self.fraction(a.at, b.at),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_spans_the_enclosing_readings() {
        let t = Instant::now();
        let at = |ms: u64, busy: u64, steal: u64| Reading {
            at: t + Duration::from_millis(ms),
            busy,
            steal,
        };
        let r = [
            at(0, 0, 0),
            at(100, 20, 0),
            at(200, 30, 10),
            at(300, 40, 110),
        ];
        let s = Steal {
            readings: r.to_vec(),
        };
        let ms = |x: u64| t + Duration::from_millis(x);
        // Quiet window.
        assert_eq!(s.fraction(ms(10), ms(90)), 0.0);
        // [100, 200]: 10 busy, 10 stolen.
        assert!((s.fraction(ms(150), ms(160)) - 0.5).abs() < 1e-12);
        // [100, 300]: 20 busy, 110 stolen.
        assert!((s.fraction(ms(150), ms(250)) - 110.0 / 130.0).abs() < 1e-12);
        // [200, 300]: 10 busy, 100 stolen, capped.
        assert_eq!(s.fraction(ms(250), ms(260)), MAX_STEAL);
        // Past the last reading: no correction.
        assert_eq!(s.fraction(ms(250), ms(400)), 0.0);
        assert!((s.net_ms(50.0, ms(200)) - 25.0).abs() < 1e-9);
        assert_eq!(s.net_ms(f64::INFINITY, ms(200)), f64::INFINITY);
    }
}
