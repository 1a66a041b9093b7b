//! Traced runs: collect the program's existing `ca_obs` level-2 spans
//! and counters while the benchmark repeats its unit of work, and fold
//! them into per-layer totals as they arrive.
//!
//! The program's ring buffer holds 65 536 events; `service-burst` emits
//! tens of thousands a second, so a background thread drains it every
//! couple of milliseconds. Only the totals and the shallow spans (stage spans and
//! their direct children, for coverage) are kept, so memory stays flat
//! however long the run.

use crate::layers::Stage;
use ca_obs::Event;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Spans deeper than this are only counted, not kept: stage spans sit
/// at depth 0 in a direct solve and at depth 1 or 2 under the service's
/// job and batch spans.
const KEEP_DEPTH: u16 = 3;

/// Calls and summed wall seconds of one span family.
#[derive(Debug, Clone, Copy, Default)]
pub struct Family {
    /// Spans seen.
    pub calls: u64,
    /// Summed span wall seconds (over all threads).
    pub secs: f64,
}

impl Family {
    fn add(&mut self, ev: &Event) {
        self.calls += 1;
        self.secs += ev.wall_secs();
    }
}

/// Per-layer totals folded from drained spans.
#[derive(Debug, Default)]
pub struct SpanAgg {
    /// `gemm.matmul` spans.
    pub gemm: Family,
    /// `qr.factor` spans.
    pub qr: Family,
    /// `exec.*` spans of the superstep executor.
    pub exec: Family,
    /// `dag.task` spans of the task-graph executor.
    pub dag: Family,
    /// Distinct span thread ids per closed unit of work.
    pub threads_seen: Vec<f64>,
    /// Per stage: wall seconds covered by direct child spans.
    pub covered: [f64; 5],
    /// Per stage: summed stage-span wall seconds.
    pub stage_wall: [f64; 5],
    tids: BTreeSet<u32>,
    shallow: Vec<Event>,
}

impl SpanAgg {
    /// Fold a batch of drained events.
    pub fn absorb(&mut self, events: Vec<Event>) {
        for ev in events {
            self.tids.insert(ev.tid);
            let name = ev.name();
            match name {
                "gemm.matmul" => self.gemm.add(&ev),
                "qr.factor" => self.qr.add(&ev),
                "dag.task" => self.dag.add(&ev),
                _ if name.starts_with("exec.") => self.exec.add(&ev),
                _ => {}
            }
            if ev.depth <= KEEP_DEPTH {
                self.shallow.push(ev);
            }
        }
    }

    /// Close `units` finished units of work: record the threads they
    /// touched and attribute their stage spans' child coverage.
    pub fn close(&mut self, units: usize) {
        self.threads_seen
            .push(self.tids.len() as f64 / units.max(1) as f64);
        self.tids.clear();
        let mut shallow = std::mem::take(&mut self.shallow);
        // A parent sorts before a child that starts in the same nanosecond.
        shallow.sort_by_key(|e| (e.tid, e.start_ns, e.depth));
        for (i, s) in shallow.iter().enumerate() {
            let Some(stage) = Stage::of_name(s.name()) else {
                continue;
            };
            let covered: f64 = shallow[i + 1..]
                .iter()
                .take_while(|c| c.tid == s.tid && c.start_ns <= s.end_ns)
                .filter(|c| c.depth == s.depth + 1 && c.end_ns <= s.end_ns)
                .map(Event::wall_secs)
                .sum();
            self.covered[stage.index()] += covered;
            self.stage_wall[stage.index()] += s.wall_secs();
        }
    }

    /// Share of `stage`'s span wall time covered by its direct children
    /// (0 when the stage never ran).
    pub fn coverage(&self, stage: Stage) -> f64 {
        let wall = self.stage_wall[stage.index()];
        if wall > 0.0 {
            self.covered[stage.index()] / wall
        } else {
            0.0
        }
    }
}

/// A live level-2 trace with its background drainer.
pub struct Tracer {
    agg: Arc<Mutex<SpanAgg>>,
    stop: Arc<AtomicBool>,
    drainer: Option<JoinHandle<()>>,
}

fn lock(agg: &Mutex<SpanAgg>) -> std::sync::MutexGuard<'_, SpanAgg> {
    agg.lock()
        .expect("span aggregator poisoned by a panicking drainer")
}

impl Tracer {
    /// Switch tracing to level 2, clear old events, counters and the
    /// drop count, and start draining.
    pub fn start() -> Self {
        ca_obs::set_level(2);
        ca_obs::drain();
        ca_obs::take_dropped();
        ca_obs::counters::reset();
        let agg = Arc::new(Mutex::new(SpanAgg::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let drainer = {
            let (agg, stop) = (Arc::clone(&agg), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    // Drain under the lock, so a `close` that takes the
                    // lock next sees every event drained before it.
                    lock(&agg).absorb(ca_obs::drain());
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        Self {
            agg,
            stop,
            drainer: Some(drainer),
        }
    }

    /// Mark `units` units of work finished (all their spans have been
    /// pushed).
    pub fn close(&self, units: usize) {
        let mut g = lock(&self.agg);
        g.absorb(ca_obs::drain());
        g.close(units);
    }

    /// Stop tracing. Returns the totals, the counters, and the number of
    /// events the ring dropped.
    pub fn finish(mut self) -> (SpanAgg, Vec<(&'static str, u64)>, u64) {
        self.stop_drainer();
        ca_obs::set_level(0);
        let counters = ca_obs::counters::snapshot();
        let dropped = ca_obs::take_dropped();
        let mut agg = std::mem::take(&mut *lock(&self.agg));
        agg.absorb(ca_obs::drain());
        (agg, counters, dropped)
    }

    fn stop_drainer(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.drainer.take() {
            h.join().expect("trace drainer panicked");
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.drainer.take() {
            let _ = h.join();
        }
        ca_obs::set_level(0);
    }
}

/// Value of the named counter in a snapshot (0 if it never fired).
pub fn counter(snapshot: &[(&'static str, u64)], name: &str) -> u64 {
    snapshot
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, tid: u32, depth: u16, start: u64, end: u64) -> Event {
        let mut e = Event::named(name);
        e.tid = tid;
        e.depth = depth;
        e.start_ns = start;
        e.end_ns = end;
        e
    }

    #[test]
    fn coverage_counts_direct_children_on_the_stage_thread() {
        let mut agg = SpanAgg::default();
        agg.absorb(vec![
            ev("driver.full_to_band", 1, 1, 100, 900),
            ev("gemm.matmul", 1, 2, 200, 300), // grandchild: not counted
            ev("gemm.matmul", 2, 1, 150, 250), // other thread
            ev("full-to-band (b=8)", 1, 0, 0, 1000),
            ev("sequential eigensolve", 1, 0, 1000, 2000),
            ev("qr.factor", 1, 1, 1500, 1600),
        ]);
        agg.close(1);
        assert!((agg.coverage(Stage::FullToBand) - 0.8).abs() < 1e-12);
        assert!((agg.coverage(Stage::SeqEigensolve) - 0.1).abs() < 1e-12);
        assert_eq!(agg.coverage(Stage::BandToBand), 0.0);
        assert_eq!(agg.threads_seen, vec![2.0]);
        assert_eq!((agg.gemm.calls, agg.qr.calls), (2, 1));
    }
}
