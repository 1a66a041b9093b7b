//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so this local shim
//! implements the subset of rayon's data-parallel API the workspace
//! uses, with real shared-memory parallelism on one process-wide pool
//! of `current_num_threads()` worker threads, started on first use.
//! Work is split into one contiguous block per worker (fork-join, no
//! work stealing): the calling thread runs the first block itself and
//! blocks until the pool has run the rest. A call made from inside a
//! pool worker runs all its blocks inline, in block order, so a worker
//! never waits on the pool and nested `join`s cannot deadlock. A block
//! that panics is caught and its panic resumed on the calling thread
//! once every block of the call has finished; the worker keeps serving.
//! With a single worker thread every operation degenerates to an inline
//! sequential loop and the pool is never started.
//!
//! Supported surface:
//! * `(a..b).into_par_iter()` with `for_each`, `map(..).collect::<Vec<_>>()`
//! * `slice.par_iter()` / `slice.par_iter_mut()` (+ `enumerate`)
//! * `slice.par_chunks_mut(n)` (+ `enumerate`)
//! * [`join`], [`current_num_threads`]
//!
//! The worker count honors `RAYON_NUM_THREADS`, defaulting to the
//! available hardware parallelism.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Number of worker threads used for parallel operations.
pub fn current_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Partition `0..n` into at most `current_num_threads()` contiguous
/// blocks and return their boundaries (length = blocks + 1).
fn block_bounds(n: usize) -> Vec<usize> {
    let t = current_num_threads().min(n).max(1);
    (0..=t).map(|w| w * n / t).collect()
}

/// One block of a fork-join call.
type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

/// A panic payload carried from a worker back to the caller.
type Panic = Box<dyn Any + Send>;

thread_local! {
    /// True on the pool's worker threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The process-wide worker pool: a FIFO of blocks and the workers that
/// drain it. Workers live for the rest of the process.
struct Pool {
    queue: Mutex<VecDeque<Task<'static>>>,
    ready: Condvar,
}

static POOL: OnceLock<&'static Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }));
        for i in 0..current_num_threads() {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || pool.serve())
                .expect("rayon shim: failed to spawn a pool worker");
        }
        pool
    })
}

impl Pool {
    /// Worker loop: run queued blocks forever. Blocks never unwind into
    /// here (`run_scoped` wraps each in `catch_unwind`).
    fn serve(&self) {
        IN_WORKER.with(|w| w.set(true));
        loop {
            let task = {
                let mut queue = self.queue.lock().expect("rayon shim: pool queue poisoned");
                loop {
                    match queue.pop_front() {
                        Some(task) => break task,
                        None => {
                            queue = self
                                .ready
                                .wait(queue)
                                .expect("rayon shim: pool queue poisoned")
                        }
                    }
                }
            };
            task();
        }
    }
}

/// Completion state of one `run_scoped` call, shared with its blocks.
struct Scope {
    /// Blocks handed to the pool and not yet finished.
    pending: Mutex<usize>,
    done: Condvar,
    /// The first panic raised by a pool-run block.
    panic: Mutex<Option<Panic>>,
}

impl Scope {
    fn finish(&self, panic: Option<Panic>) {
        if let Some(p) = panic {
            self.panic
                .lock()
                .expect("rayon shim: scope poisoned")
                .get_or_insert(p);
        }
        let mut pending = self.pending.lock().expect("rayon shim: scope poisoned");
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut pending = self.pending.lock().expect("rayon shim: scope poisoned");
        while *pending > 0 {
            pending = self.done.wait(pending).expect("rayon shim: scope poisoned");
        }
    }
}

/// Waits for every block handed to the pool when dropped, so the
/// caller's frame outlives its blocks even while it unwinds.
struct WaitAll<'s>(&'s Scope);

impl Drop for WaitAll<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// Run every task to completion: the first on the calling thread, the
/// rest on the pool. Inside a pool worker (or with one task) all run
/// inline, in order. A panic from any task is resumed here after every
/// task has finished.
fn run_scoped(mut tasks: Vec<Task<'_>>) {
    if tasks.len() <= 1 || IN_WORKER.with(Cell::get) {
        for task in tasks {
            task();
        }
        return;
    }
    let first = tasks.remove(0);
    let scope = Arc::new(Scope {
        pending: Mutex::new(0),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    let pool = pool();
    let first_panic = {
        let _wait = WaitAll(&scope);
        {
            let mut queue = pool.queue.lock().expect("rayon shim: pool queue poisoned");
            for task in tasks {
                // SAFETY: `task` may borrow from the caller's frame. The
                // erased box only runs inside the wrapper below, which
                // catches its panics and then calls `finish`; `pending`
                // counts it before it is queued, and `_wait` blocks this
                // frame — on return and while unwinding alike — until
                // every counted wrapper has finished. So no borrow is
                // used after this call returns.
                let task: Task<'static> = unsafe { std::mem::transmute(task) };
                let scope = Arc::clone(&scope);
                *scope.pending.lock().expect("rayon shim: scope poisoned") += 1;
                queue.push_back(Box::new(move || {
                    scope.finish(catch_unwind(AssertUnwindSafe(task)).err())
                }));
            }
        }
        pool.ready.notify_all();
        catch_unwind(AssertUnwindSafe(first)).err()
    };
    let panic = first_panic.or_else(|| {
        scope
            .panic
            .lock()
            .expect("rayon shim: scope poisoned")
            .take()
    });
    if let Some(p) = panic {
        resume_unwind(p);
    }
}

/// Run `a` and `b` potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let (mut ra, mut rb) = (None, None);
    run_scoped(vec![
        Box::new(|| ra = Some(a())),
        Box::new(|| rb = Some(b())),
    ]);
    (
        ra.expect("rayon shim: join block did not run"),
        rb.expect("rayon shim: join block did not run"),
    )
}

/// Run `f(lo, hi)` over a contiguous partition of `0..n`, one block per
/// worker thread.
fn run_partitioned<F: Fn(usize, usize) + Sync>(n: usize, f: F) {
    if n == 0 {
        return;
    }
    let bounds = block_bounds(n);
    if bounds.len() <= 2 {
        f(0, n);
        return;
    }
    let f = &f;
    let tasks = bounds
        .windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| {
            let (lo, hi) = (w[0], w[1]);
            Box::new(move || f(lo, hi)) as Task<'_>
        })
        .collect();
    run_scoped(tasks);
}

/// `map(..).collect::<Vec<_>>()` engine: evaluate `f(i)` for `i ∈ 0..n`
/// in parallel, preserving index order.
fn map_collect<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    {
        let bounds = block_bounds(n);
        let mut rest: &mut [Option<T>] = &mut out;
        let mut pieces = Vec::with_capacity(bounds.len());
        let mut at = 0;
        for w in bounds.windows(2) {
            let (piece, tail) = rest.split_at_mut(w[1] - w[0]);
            pieces.push((w[0], piece));
            rest = tail;
            at = w[1];
        }
        debug_assert_eq!(at, n);
        let f = &f;
        let tasks = pieces
            .into_iter()
            .map(|(off, piece)| {
                Box::new(move || {
                    for (k, slot) in piece.iter_mut().enumerate() {
                        *slot = Some(f(off + k));
                    }
                }) as Task<'_>
            })
            .collect();
        run_scoped(tasks);
    }
    out.into_iter()
        .map(|v| v.expect("rayon shim: missing mapped value"))
        .collect()
}

/// Collection target of [`Map::collect`] (only `Vec<T>` is supported).
pub trait FromParallelIterator<T> {
    /// Build the collection from index-ordered results.
    fn from_ordered_vec(v: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_vec(v: Vec<T>) -> Self {
        v
    }
}

/// Parallel iterator over `usize` indices (from a range).
pub struct IndexedParIter {
    start: usize,
    end: usize,
}

impl IndexedParIter {
    /// Apply `f` to every index in parallel.
    pub fn for_each<F: Fn(usize) + Sync>(self, f: F) {
        let start = self.start;
        run_partitioned(self.end.saturating_sub(start), |lo, hi| {
            for i in lo..hi {
                f(start + i);
            }
        });
    }

    /// Map every index through `f` (lazily; consume with `collect`).
    pub fn map<T, F: Fn(usize) -> T + Sync>(self, f: F) -> Map<F> {
        Map {
            start: self.start,
            end: self.end,
            f,
        }
    }
}

/// Lazy parallel map over an index range.
pub struct Map<F> {
    start: usize,
    end: usize,
    f: F,
}

impl<F> Map<F> {
    /// Evaluate in parallel, preserving order.
    pub fn collect<C, T>(self) -> C
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: FromParallelIterator<T>,
    {
        let start = self.start;
        let f = self.f;
        C::from_ordered_vec(map_collect(self.end.saturating_sub(start), |i| f(start + i)))
    }

    /// Apply the mapped function for its effects only.
    pub fn for_each<T, G: Fn(T) + Sync>(self, g: G)
    where
        F: Fn(usize) -> T + Sync,
    {
        let start = self.start;
        let f = &self.f;
        run_partitioned(self.end.saturating_sub(start), |lo, hi| {
            for i in lo..hi {
                g(f(start + i));
            }
        });
    }
}

/// Conversion into a parallel iterator (ranges of `usize`).
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = IndexedParIter;
    fn into_par_iter(self) -> IndexedParIter {
        IndexedParIter {
            start: self.start,
            end: self.end.max(self.start),
        }
    }
}

/// Parallel shared iterator over slice elements.
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Apply `f` to every element in parallel.
    pub fn for_each<F: Fn(&'a T) + Sync>(self, f: F) {
        let slice = self.slice;
        run_partitioned(slice.len(), |lo, hi| {
            for item in &slice[lo..hi] {
                f(item);
            }
        });
    }

    /// Pair every element with its index.
    pub fn enumerate(self) -> EnumParIter<'a, T> {
        EnumParIter { slice: self.slice }
    }
}

/// Enumerated variant of [`ParIter`].
pub struct EnumParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> EnumParIter<'a, T> {
    /// Apply `f((index, &item))` in parallel.
    pub fn for_each<F: Fn((usize, &'a T)) + Sync>(self, f: F) {
        let slice = self.slice;
        run_partitioned(slice.len(), |lo, hi| {
            for (i, item) in slice[lo..hi].iter().enumerate() {
                f((lo + i, item));
            }
        });
    }
}

/// Split `items` into per-worker contiguous sub-slices (with global
/// offsets) and run `f` on each worker's share.
fn for_each_split<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let bounds = block_bounds(n);
    if bounds.len() <= 2 {
        f(0, items);
        return;
    }
    let mut pieces = Vec::with_capacity(bounds.len() - 1);
    let mut rest = items;
    for w in bounds.windows(2) {
        let (piece, tail) = rest.split_at_mut(w[1] - w[0]);
        pieces.push((w[0], piece));
        rest = tail;
    }
    let f = &f;
    let tasks = pieces
        .into_iter()
        .map(|(off, piece)| Box::new(move || f(off, piece)) as Task<'_>)
        .collect();
    run_scoped(tasks);
}

/// Parallel exclusive iterator over slice elements.
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Apply `f` to every element in parallel.
    pub fn for_each<F: Fn(&mut T) + Sync>(self, f: F) {
        for_each_split(self.slice, |_, piece| {
            for item in piece.iter_mut() {
                f(item);
            }
        });
    }

    /// Pair every element with its index.
    pub fn enumerate(self) -> EnumParIterMut<'a, T> {
        EnumParIterMut { slice: self.slice }
    }
}

/// Enumerated variant of [`ParIterMut`].
pub struct EnumParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> EnumParIterMut<'a, T> {
    /// Apply `f((index, &mut item))` in parallel.
    pub fn for_each<F: Fn((usize, &mut T)) + Sync>(self, f: F) {
        for_each_split(self.slice, |off, piece| {
            for (i, item) in piece.iter_mut().enumerate() {
                f((off + i, item));
            }
        });
    }
}

/// Parallel iterator over mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Apply `f` to every chunk in parallel.
    pub fn for_each<F: Fn(&mut [T]) + Sync>(self, f: F) {
        self.enumerate().for_each(|(_, c)| f(c));
    }

    /// Pair every chunk with its chunk index.
    pub fn enumerate(self) -> EnumParChunksMut<'a, T> {
        EnumParChunksMut {
            slice: self.slice,
            size: self.size,
        }
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct EnumParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> EnumParChunksMut<'a, T> {
    /// Apply `f((chunk_index, chunk))` in parallel.
    pub fn for_each<F: Fn((usize, &mut [T])) + Sync>(self, f: F) {
        let size = self.size;
        assert!(size > 0, "par_chunks_mut: chunk size must be positive");
        let len = self.slice.len();
        let n_chunks = len.div_ceil(size);
        if n_chunks == 0 {
            return;
        }
        let bounds = block_bounds(n_chunks);
        if bounds.len() <= 2 {
            for (i, chunk) in self.slice.chunks_mut(size).enumerate() {
                f((i, chunk));
            }
            return;
        }
        let mut pieces = Vec::with_capacity(bounds.len() - 1);
        let mut rest = self.slice;
        for w in bounds.windows(2) {
            let elems = (w[1] * size).min(len) - w[0] * size;
            let (piece, tail) = rest.split_at_mut(elems);
            pieces.push((w[0], piece));
            rest = tail;
        }
        let f = &f;
        let tasks = pieces
            .into_iter()
            .map(|(chunk0, piece)| {
                Box::new(move || {
                    for (i, chunk) in piece.chunks_mut(size).enumerate() {
                        f((chunk0 + i, chunk));
                    }
                }) as Task<'_>
            })
            .collect();
        run_scoped(tasks);
    }
}

/// `.par_iter()` on shared slices.
pub trait IntoParallelRefIterator<'a> {
    /// Element type.
    type Item;
    /// Parallel iterator type.
    type Iter;
    /// Convert.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParIter<'a, T>;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<'a, T>;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

/// `.par_iter_mut()` on exclusive slices.
pub trait IntoParallelRefMutIterator<'a> {
    /// Element type.
    type Item;
    /// Parallel iterator type.
    type Iter;
    /// Convert.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    type Iter = ParIterMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    type Iter = ParIterMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

/// `.par_chunks_mut(n)` on exclusive slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over mutable `chunk_size`-sized chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        ParChunksMut {
            slice: self,
            size: chunk_size,
        }
    }
}

/// Common imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    fn range_for_each_visits_every_index_once() {
        let sum = AtomicU64::new(0);
        (0..257).into_par_iter().for_each(|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 256 * 257 / 2);
    }

    #[test]
    fn par_chunks_mut_enumerate_covers_slice() {
        let mut data = vec![0usize; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = i * 10 + k;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn par_iter_mut_enumerate() {
        let mut data = vec![0usize; 37];
        data.par_iter_mut().enumerate().for_each(|(i, v)| *v = i + 1);
        assert!(data.iter().enumerate().all(|(i, &x)| x == i + 1));
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }

    #[test]
    fn empty_inputs_are_noops() {
        let v: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
        let mut e: Vec<u8> = Vec::new();
        e.par_chunks_mut(4).for_each(|_| panic!("no chunks expected"));
    }

    #[test]
    fn panic_resumes_after_sibling_blocks_finish_and_pool_keeps_serving() {
        let t = super::current_num_threads();
        let about_to_panic = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            (0..t).into_par_iter().for_each(|i| {
                if i == 0 {
                    about_to_panic.store(true, Ordering::SeqCst);
                    panic!("block 0 fails");
                }
                // Siblings finish only after the caller's block panicked.
                while !about_to_panic.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        });
        let payload = caught.expect_err("the block's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"block 0 fails"));
        assert_eq!(
            finished.load(Ordering::SeqCst),
            t - 1,
            "siblings must finish first"
        );

        // A pool-run block panicking, then a normal call on the same pool.
        let caught = std::panic::catch_unwind(|| {
            (0..t).into_par_iter().for_each(|i| {
                if t > 1 && i == t - 1 {
                    panic!("last block fails");
                }
            })
        });
        assert_eq!(caught.is_err(), t > 1);
        let v: Vec<usize> = (0..4096).into_par_iter().map(|i| i + 1).collect();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
    }

    #[test]
    fn nested_join_inside_par_iter_mut_inside_join_completes() {
        let (sum, tag) = super::join(
            || {
                let mut v = vec![0usize; 257];
                v.par_iter_mut().enumerate().for_each(|(i, x)| {
                    let (a, b) = super::join(|| 2 * i, || super::join(|| i, || 1).1);
                    *x = a + b;
                });
                v.iter().sum::<usize>()
            },
            || super::join(|| "x", || "y").0,
        );
        assert_eq!(sum, 2 * (256 * 257 / 2) + 257);
        assert_eq!(tag, "x");
    }

    #[test]
    fn concurrent_callers_get_index_ordered_results() {
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for k in 0..2usize {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for round in 0..50 {
                        let v: Vec<usize> = (0..1000)
                            .into_par_iter()
                            .map(|i| i * 3 + k + round)
                            .collect();
                        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3 + k + round));
                    }
                });
            }
        });
    }

    /// Subprocess payload for `single_thread_runs_inline`.
    #[test]
    #[ignore = "subprocess payload run with RAYON_NUM_THREADS=1"]
    fn inline_payload() {
        assert_eq!(super::current_num_threads(), 1);
        let me = std::thread::current().id();
        let on_caller = AtomicUsize::new(0);
        (0..64).into_par_iter().for_each(|_| {
            if std::thread::current().id() == me {
                on_caller.fetch_add(1, Ordering::SeqCst);
            }
        });
        let (a, b) = super::join(
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!(on_caller.load(Ordering::SeqCst), 64);
        assert_eq!((a, b), (me, me));
        assert!(
            super::POOL.get().is_none(),
            "one thread must never start the pool"
        );
        println!("INLINE_OK");
    }

    #[test]
    fn single_thread_runs_inline() {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
            .args([
                "--ignored",
                "--exact",
                "tests::inline_payload",
                "--nocapture",
            ])
            .env("RAYON_NUM_THREADS", "1")
            .output()
            .expect("spawn test subprocess");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("INLINE_OK"),
            "inline payload failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
