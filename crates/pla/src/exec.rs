//! The parallel superstep executor: runs per-virtual-processor work of a
//! single BSP phase on real threads.
//!
//! A superstep's per-processor bodies are independent by construction —
//! that is the BSP model's whole premise — so the simulator may execute
//! them concurrently between fences. The `ca-bsp` ledger is atomic and
//! every charge is a commutative add, which makes the folded cost report
//! *bit-identical* to serial execution no matter how threads interleave.
//!
//! ## Rules for closures passed to this module
//!
//! * They may call `charge_*`, `alloc`/`free`, and `step` freely (all
//!   commutative), and any local kernels.
//! * They must **not** call `Machine::fence`, `report`, or `snapshot`:
//!   folds read per-phase deltas and must run at quiescent points. Every
//!   public `ca-pla` collective and kernel wrapper is fold-free; of the
//!   distributed algorithms only `rect_qr::rect_qr_tree` fences
//!   internally (and is therefore never dispatched through here).
//! * Per-rank outputs must be disjoint (e.g. one local block per rank).
//!
//! ## Per-thread workspace arenas
//!
//! The `ca-dla` hot-path kernels draw scratch buffers from a
//! thread-local [`ca_dla::Workspace`] arena (`ca_dla::workspace::with_ws`).
//! Because this executor runs each rank body to completion on a single
//! thread (the caller or a `rayon` pool worker), each checkout stays on
//! one thread for the duration of a body: buffers checked out inside a
//! rank body are returned before the body yields, arenas never migrate
//! across threads, and no synchronization is needed. (Checkout is a
//! re-entrant LIFO stack of arenas — nested `with_ws` scopes on one
//! thread each get their own arena, warm-reused in steady state.) The
//! pool's workers live for the whole process, so their arenas persist
//! across calls and solves: once every worker has seen a problem shape,
//! steady-state bulge chasing is allocation-free whichever worker a
//! rank lands on.
//!
//! Set `CA_SERIAL` truthy (`1`/`true`/`yes`/`on`, per
//! [`ca_obs::knobs`]) to force serial in-order execution — the escape
//! hatch for debugging and for measuring the parallel overhead itself.

use std::cell::Cell;

thread_local! {
    static FORCE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// True when the shared `CA_SERIAL` knob ([`ca_obs::knobs::serial`]) is
/// truthy, or inside a [`with_forced_serial`] scope: all executor entry
/// points then run their bodies inline, in rank order. The same knob
/// read gates every other parallel path in the repo (D&C splits,
/// back-transformation), so one setting means one behaviour everywhere.
pub fn serial_forced() -> bool {
    FORCE_SERIAL.with(Cell::get) || ca_obs::knobs::serial()
}

/// Run `f` with executor dispatch forced serial on this thread,
/// regardless of `CA_SERIAL`. Because serial dispatch keeps all work on
/// the calling thread, the override propagates through nested executor
/// calls. Used by the determinism tests to compare serial and parallel
/// runs within one process.
pub fn with_forced_serial<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_SERIAL.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(FORCE_SERIAL.with(|c| c.replace(true)));
    f()
}

/// Run `f(0), f(1), …, f(n-1)` — in parallel unless serial execution is
/// forced — and collect the results in rank order.
pub fn par_ranks<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let _span = ca_obs::kernel_span("exec.par_ranks");
    if serial_forced() || n <= 1 {
        return (0..n).map(f).collect();
    }
    use rayon::prelude::*;
    (0..n).into_par_iter().map(f).collect()
}

/// Run `f(rank)` for every rank in `0..n` for its side effects.
pub fn for_each_rank<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let _span = ca_obs::kernel_span("exec.for_each_rank");
    if serial_forced() || n <= 1 {
        (0..n).for_each(f);
        return;
    }
    use rayon::prelude::*;
    (0..n).into_par_iter().for_each(f);
}

/// Run `f(rank, &mut items[rank])` for every rank — the owner-computes
/// pattern over a distributed matrix's local blocks.
pub fn par_over<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let _span = ca_obs::kernel_span("exec.par_over");
    if serial_forced() || items.len() <= 1 {
        for (r, item) in items.iter_mut().enumerate() {
            f(r, item);
        }
        return;
    }
    use rayon::prelude::*;
    items.par_iter_mut().enumerate().for_each(|(r, item)| f(r, item));
}

/// Run two independent closures, potentially concurrently, and return
/// both results. Used for independent multiply chains within a phase.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if serial_forced() {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    rayon::join(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_ranks_preserves_order() {
        let v = par_ranks(17, |r| r * r);
        assert_eq!(v, (0..17).map(|r| r * r).collect::<Vec<_>>());
    }

    #[test]
    fn par_over_mutates_every_slot() {
        let mut xs = vec![0u64; 23];
        par_over(&mut xs, |r, x| *x = r as u64 + 1);
        assert!(xs.iter().enumerate().all(|(r, &x)| x == r as u64 + 1));
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!((a, b), (4, "ok"));
    }
}
