//! Runtime tuning knobs for the sequential eigensolve kernels.
//!
//! Two schedule parameters control the band → tridiagonal → eigenvalue
//! finale (`tridiag::banded_eigenvalues` and the solver's vectors path):
//!
//! * the **halving floor** — the bandwidth below which bandwidth-halving
//!   chase sweeps (fat rank-`b/2` block reflectors, GEMM-rich) stop and
//!   the remaining reduction runs as one fused rank-1 sweep
//!   ([`crate::bulge::sweep_to_tridiagonal`]); and
//! * the **divide-and-conquer leaf size** — the subproblem size below
//!   which [`crate::dnc`] falls back to the implicit-shift QL solver.
//!
//! Both default to values picked by the stage-time bench on the
//! reference host and can be overridden per process with the
//! `CA_HALVE_FLOOR` / `CA_DNC_LEAF` environment variables, or per run
//! with the setters.
//!
//! Reads are lock-free atomics; the env variables are consulted once,
//! on first read, through the shared [`ca_obs::knobs`] parser (so a
//! malformed value like `CA_DNC_LEAF=fast` warns on stderr instead of
//! being silently ignored).
//!
//! ## Snapshots and per-scope overrides
//!
//! The process-global setters above are a footgun for anything that
//! runs more than one solve per process: a `set_dnc_leaf` call (or a
//! test toggling knobs) midway through a batch would split the batch's
//! configuration, and the solver samples the knobs several times per
//! solve, so a flip could even split *one solve*. [`KnobSnapshot`]
//! freezes the engine knobs at one instant and [`with_knobs`] pins them
//! for a scope via a thread-local override that every knob read
//! consults first. The multi-tenant service (`ca-service`) captures one
//! snapshot at construction and wraps every job it runs in
//! [`with_knobs`], so global knob churn cannot leak into an in-flight
//! batch (pinned by `tests/serial_knob.rs`).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default bandwidth at which halving sweeps hand over to the fused
/// rank-1 sweep. The fused sweep's contiguous slab kernel runs near
/// memory bandwidth, so on the reference host the direct sweep beats
/// any halving schedule for every bandwidth the solver produces
/// (stage-time bench, n = 512: floor 128 ≈ 36 ms vs floor 64 ≈ 48 ms
/// vs legacy halve-to-8 ≈ 117 ms) — the default floor therefore sits
/// above the pipeline's intermediate bandwidths, i.e. no halvings.
pub const DEFAULT_HALVE_FLOOR: usize = 128;

/// Default D&C leaf size: below this the QL solver's `O(n²)` rotations
/// beat the merge machinery's constant factors.
pub const DEFAULT_DNC_LEAF: usize = 40;

static HALVE_FLOOR: AtomicUsize = AtomicUsize::new(0); // 0 = uninitialised
static DNC_LEAF: AtomicUsize = AtomicUsize::new(0);
static DNC_INIT: OnceLock<()> = OnceLock::new();

thread_local! {
    /// Active [`with_knobs`] override for this thread, if any. Engine
    /// knob reads consult this before the process globals, so a scope
    /// that pinned a snapshot is immune to concurrent `set_*` calls.
    static KNOB_OVERRIDE: Cell<Option<KnobSnapshot>> = const { Cell::new(None) };
}

/// A frozen copy of every engine-selection knob, captured at one
/// instant. Two uses:
///
/// * **reporting** — a service or bench harness records the exact
///   configuration a run executed under;
/// * **pinning** — [`with_knobs`] makes the snapshot the authoritative
///   source for all knob reads in a scope, so process-global setters
///   (or another tenant's configuration) cannot change an in-flight
///   solve's engine choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobSnapshot {
    /// Always `true` (see [`dnc_enabled`]). Kept only because the
    /// benchmark's knob guard reads it; the next benchmark change drops it.
    pub dnc_enabled: bool,
    /// D&C → QL leaf crossover (see [`dnc_leaf`]).
    pub dnc_leaf: usize,
    /// Bandwidth-halving floor (see [`halve_floor`]).
    pub halve_floor: usize,
    /// The shared `CA_SERIAL` knob at capture time. Informational: the
    /// env value is cached process-wide on first read and cannot change
    /// afterwards, so this field records (rather than controls) whether
    /// the process dispatches serially. [`with_knobs`] does *not*
    /// override serial dispatch — serial and parallel runs are
    /// bit-identical by invariant, and letting a thread-local flip it
    /// would reintroduce the split-subsystem bug the unified parser
    /// fixed.
    pub serial: bool,
}

impl KnobSnapshot {
    /// Capture the knobs as currently visible to this thread (an active
    /// [`with_knobs`] override wins over the process globals, so nested
    /// captures are consistent).
    pub fn capture() -> Self {
        Self {
            dnc_enabled: true,
            dnc_leaf: dnc_leaf(),
            halve_floor: halve_floor(),
            serial: serial(),
        }
    }
}

/// Run `f` with every engine knob read on this thread pinned to `snap`,
/// restoring the previous override (if any) afterwards — nestable and
/// panic-safe. Parallel regions inside `f` are unaffected where they
/// read knobs from other threads, which is safe today because every
/// schedule read (`dnc_leaf`, `halve_floor`)
/// happens on the thread that entered the solver; spawned workers only
/// consult the process-cached `CA_SERIAL`.
pub fn with_knobs<R>(snap: KnobSnapshot, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<KnobSnapshot>);
    impl Drop for Restore {
        fn drop(&mut self) {
            KNOB_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(KNOB_OVERRIDE.with(|c| c.replace(Some(snap))));
    f()
}

fn init() {
    DNC_INIT.get_or_init(|| {
        let floor = ca_obs::knobs::usize_env("CA_HALVE_FLOOR").unwrap_or(DEFAULT_HALVE_FLOOR);
        HALVE_FLOOR.store(floor.max(1), Ordering::Relaxed);
        let leaf = ca_obs::knobs::usize_env("CA_DNC_LEAF").unwrap_or(DEFAULT_DNC_LEAF);
        DNC_LEAF.store(leaf.max(2), Ordering::Relaxed);
    });
}

/// Bandwidth at which halving sweeps stop and the fused rank-1 sweep
/// finishes the reduction (env `CA_HALVE_FLOOR`).
pub fn halve_floor() -> usize {
    if let Some(k) = KNOB_OVERRIDE.with(Cell::get) {
        return k.halve_floor;
    }
    init();
    HALVE_FLOOR.load(Ordering::Relaxed)
}

/// Override the halving floor for this process (≥ 1).
pub fn set_halve_floor(floor: usize) {
    init();
    HALVE_FLOOR.store(floor.max(1), Ordering::Relaxed);
}

/// Subproblem size below which divide-and-conquer falls back to QL
/// (env `CA_DNC_LEAF`).
pub fn dnc_leaf() -> usize {
    if let Some(k) = KNOB_OVERRIDE.with(Cell::get) {
        return k.dnc_leaf;
    }
    init();
    DNC_LEAF.load(Ordering::Relaxed)
}

/// Override the D&C leaf size for this process (≥ 2).
pub fn set_dnc_leaf(leaf: usize) {
    init();
    DNC_LEAF.store(leaf.max(2), Ordering::Relaxed);
}

/// Always `true`: divide-and-conquer is the only tridiagonal finale.
/// Kept only because the benchmark's knob guard and replay read it; the
/// next benchmark change drops it.
pub fn dnc_enabled() -> bool {
    true
}

/// True when the shared `CA_SERIAL` knob is truthy
/// (`1`/`true`/`yes`/`on` — see [`ca_obs::knobs::serial`]): recursive
/// splits and secular root solves run in deterministic serial order
/// instead of over rayon workers. The parallel order is bit-identical
/// anyway (subproblems are independent and merges deterministic); the
/// hatch exists so the serial-executor CI lane exercises one code path
/// end to end. This is the same knob read the BSP executor uses, so the
/// two subsystems can never disagree about what `CA_SERIAL=yes` means.
pub fn serial() -> bool {
    ca_obs::knobs::serial()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_have_sane_defaults_and_roundtrip() {
        let f0 = halve_floor();
        let l0 = dnc_leaf();
        assert!(f0 >= 1);
        assert!(l0 >= 2);
        set_halve_floor(16);
        assert_eq!(halve_floor(), 16);
        set_halve_floor(f0);
        set_dnc_leaf(8);
        assert_eq!(dnc_leaf(), 8);
        set_dnc_leaf(l0);
    }

    #[test]
    fn snapshot_override_pins_reads_and_restores() {
        let base = KnobSnapshot::capture();
        let pinned = KnobSnapshot {
            dnc_leaf: base.dnc_leaf + 11,
            halve_floor: base.halve_floor + 7,
            ..base
        };
        with_knobs(pinned, || {
            assert_eq!(dnc_leaf(), pinned.dnc_leaf);
            assert_eq!(halve_floor(), pinned.halve_floor);
            // Capture inside the scope sees the override.
            assert_eq!(KnobSnapshot::capture(), pinned);
            // Nested override wins, then restores the outer one.
            let inner = KnobSnapshot { dnc_leaf: 3, ..pinned };
            with_knobs(inner, || assert_eq!(dnc_leaf(), 3));
            assert_eq!(dnc_leaf(), pinned.dnc_leaf);
        });
        assert_eq!(KnobSnapshot::capture(), base);
    }

    #[test]
    fn global_setters_cannot_leak_into_a_pinned_scope() {
        let base = KnobSnapshot::capture();
        with_knobs(base, || {
            // A concurrent tenant (here: this thread, for determinism)
            // moves the process-global knob mid-scope; the pinned scope
            // must keep seeing its snapshot.
            set_dnc_leaf(base.dnc_leaf + 5);
            assert_eq!(dnc_leaf(), base.dnc_leaf);
            set_dnc_leaf(base.dnc_leaf);
        });
    }
}
