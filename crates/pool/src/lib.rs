//! # hdidx-pool
//!
//! A scoped, zero-dependency parallel execution layer for the workspace:
//! order-preserving [`Pool::par_map`] / [`Pool::par_flat_chunks`] over
//! slices, a budgeted recursive [`Pool::join`] for fork–join tree builds,
//! and a process-wide thread-count configuration with an `HDIDX_THREADS`
//! environment override.
//!
//! ## The determinism contract
//!
//! Every primitive in this crate is **guaranteed deterministic**: for a
//! fixed input and a pure work function, the result is byte-identical for
//! any thread count, including 1. This holds by construction —
//!
//! * `par_map`/`par_flat_chunks` partition the input into contiguous index
//!   ranges and concatenate the per-range results *in input order*; the
//!   thread count only decides which OS thread executes a range, never
//!   which range exists or where its output lands;
//! * `join` runs both closures exactly once and returns their results in
//!   positional order, whether or not the second closure was offloaded;
//! * no primitive exposes completion order, thread ids, or any other
//!   scheduling artifact to the work function.
//!
//! Work functions must hold up their end: they may not communicate through
//! shared mutable state whose final value depends on interleaving. For
//! *randomized* parallel work, derive one independent PRNG stream per work
//! item with [`derive_seed`] (SplitMix64 seed derivation, identical to
//! `hdidx_rand::derive_seed`) instead of sharing a sequential stream —
//! shared streams would make output depend on scheduling. The workspace
//! pins the contract in `tests/parallel_determinism.rs`: bulk-loaded tree
//! topology, grown-leaf MBRs and per-query access counts are asserted
//! byte-identical for 1, 2 and 8 threads.
//!
//! ## Thread-count resolution
//!
//! [`Pool::current`] sizes the pool from, in priority order:
//!
//! 1. an explicit [`set_threads`] call (the CLI's `--threads` flag),
//! 2. the `HDIDX_THREADS` environment variable (a positive integer),
//! 3. [`std::thread::available_parallelism`].
//!
//! A pool of 1 thread executes everything inline on the caller — the
//! serial path, with no thread spawned anywhere.
//!
//! ## Budgeting
//!
//! A [`Pool`] owns a spare-thread budget of `threads - 1`. Nested
//! primitives (a `par_map` inside a `join` arm, recursive `join`s in a
//! tree build) draw from the shared budget and degrade to inline execution
//! when it is exhausted, so a build tree of depth `d` never oversubscribes
//! the machine with `2^d` threads. Budget, like scheduling, never affects
//! results — only where they are computed.
//!
//! ## Panics
//!
//! Panics in work functions propagate to the caller of the primitive
//! (after all sibling threads of the scope have finished), preserving the
//! panic payload — the same observable behavior as the serial path.
//!
//! When one item's failure must not take down the whole batch, the
//! *isolated* variant [`Pool::par_map_isolated`] catches the panic of each
//! work item individually and returns per-item `Result<R, WorkerPanic>` —
//! panic isolation for fault-tolerant pipelines. Isolation keeps the
//! determinism contract: which items panic is a property of the items,
//! not of scheduling, so the `Ok`/`Err` pattern is identical for any
//! thread count.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

/// Process-wide thread-count override: 0 = unset (fall back to the
/// environment / hardware), otherwise the configured count.
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide thread count used by [`Pool::current`].
/// `n` is clamped to at least 1; 1 forces the serial path everywhere.
pub fn set_threads(n: usize) {
    CONFIGURED.store(n.max(1), Ordering::Relaxed);
}

/// Resolves the ambient thread count: [`set_threads`] override, else
/// `HDIDX_THREADS`, else [`std::thread::available_parallelism`] (1 if
/// unknown). An unparsable or zero `HDIDX_THREADS` is ignored.
#[must_use]
pub fn configured_threads() -> usize {
    let explicit = CONFIGURED.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var("HDIDX_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The SplitMix64 increment (the golden-ratio Weyl constant).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Derives the `index`-th decorrelated sub-seed of `base` (SplitMix64
/// "mix13" output function over a Weyl-sequence offset).
///
/// This is the workspace's per-work-item PRNG stream-derivation scheme:
/// when parallel work needs randomness, item `i` seeds its own generator
/// with `derive_seed(base, i)` so the streams are a function of the item
/// index alone, never of scheduling. Bit-identical to
/// `hdidx_rand::derive_seed` (pinned by a cross-crate test) — duplicated
/// here so this crate stays dependency-free.
#[inline]
#[must_use]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let z = base ^ index.wrapping_mul(GOLDEN_GAMMA).wrapping_add(GOLDEN_GAMMA);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A scoped thread pool: a thread count plus a shared spare-thread budget.
///
/// Cheap to clone (clones share the budget). No threads are kept alive
/// between operations — every primitive uses [`std::thread::scope`], so
/// borrowed data flows into work functions without `'static` bounds.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
    spare: Arc<AtomicIsize>,
}

impl Pool {
    /// A pool of exactly `threads` threads (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        Pool {
            threads,
            spare: Arc::new(AtomicIsize::new(threads as isize - 1)),
        }
    }

    /// A pool sized by the ambient configuration (see
    /// [`configured_threads`]).
    #[must_use]
    pub fn current() -> Pool {
        Pool::new(configured_threads())
    }

    /// The always-inline pool: every primitive runs serially.
    #[must_use]
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// Configured thread count (including the caller's thread).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this pool always executes inline.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Reserves up to `want` spare threads, returning how many were
    /// granted (possibly 0).
    fn reserve(&self, want: usize) -> usize {
        if want == 0 || self.threads <= 1 {
            return 0;
        }
        let mut cur = self.spare.load(Ordering::Acquire);
        loop {
            let take = want.min(cur.max(0) as usize);
            if take == 0 {
                return 0;
            }
            match self.spare.compare_exchange_weak(
                cur,
                cur - take as isize,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return take,
                Err(now) => cur = now,
            }
        }
    }

    fn release(&self, n: usize) {
        if n > 0 {
            self.spare.fetch_add(n as isize, Ordering::Release);
        }
    }

    /// Runs both closures and returns their results positionally. When a
    /// spare thread is available `fb` runs on it while `fa` runs on the
    /// caller; otherwise both run inline, `fa` first. Panics from either
    /// closure propagate.
    pub fn join<RA, RB>(
        &self,
        fa: impl FnOnce() -> RA + Send,
        fb: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        if self.reserve(1) == 0 {
            return (fa(), fb());
        }
        let guard = BudgetGuard { pool: self, n: 1 };
        let (ra, rb) = std::thread::scope(|s| {
            let hb = s.spawn(fb);
            let ra = fa();
            (ra, hb.join())
        });
        drop(guard);
        match rb {
            Ok(rb) => (ra, rb),
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Maps `f` over `items`, preserving order: `out[i] == f(&items[i])`.
    ///
    /// The slice is split into contiguous ranges, one per granted worker
    /// (the caller processes the first range itself); per-range outputs
    /// are concatenated in input order. Panics in `f` propagate after the
    /// scope's sibling threads finish.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if n <= 1 || self.threads <= 1 {
            return items.iter().map(f).collect();
        }
        let extra = self.reserve((self.threads - 1).min(n - 1));
        if extra == 0 {
            return items.iter().map(f).collect();
        }
        let guard = BudgetGuard {
            pool: self,
            n: extra,
        };
        let chunk = n.div_ceil(extra + 1);
        let mut parts: Vec<Vec<R>> = Vec::with_capacity(extra + 1);
        std::thread::scope(|s| {
            let mut ranges = items.chunks(chunk);
            let own = ranges.next().expect("n >= 1");
            let handles: Vec<_> = ranges
                .map(|range| {
                    let f = &f;
                    s.spawn(move || range.iter().map(f).collect::<Vec<R>>())
                })
                .collect();
            parts.push(own.iter().map(&f).collect());
            for h in handles {
                match h.join() {
                    Ok(v) => parts.push(v),
                    Err(payload) => resume_unwind(payload),
                }
            }
        });
        drop(guard);
        parts.into_iter().flatten().collect()
    }

    /// Like [`Pool::par_map`] but consumes the items, so the work function
    /// can take ownership (e.g. mutate-in-place subtree builds).
    pub fn par_map_vec<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if n <= 1 || self.threads <= 1 {
            return items.into_iter().map(f).collect();
        }
        let extra = self.reserve((self.threads - 1).min(n - 1));
        if extra == 0 {
            return items.into_iter().map(f).collect();
        }
        let guard = BudgetGuard {
            pool: self,
            n: extra,
        };
        let chunk = n.div_ceil(extra + 1);
        // Split into owned contiguous segments, preserving order.
        let mut segments: Vec<Vec<T>> = Vec::with_capacity(extra + 1);
        let mut rest = items;
        while rest.len() > chunk {
            let tail = rest.split_off(chunk);
            segments.push(rest);
            rest = tail;
        }
        segments.push(rest);
        let mut parts: Vec<Vec<R>> = Vec::with_capacity(segments.len());
        std::thread::scope(|s| {
            let mut segs = segments.into_iter();
            let own = segs.next().expect("n >= 1");
            let handles: Vec<_> = segs
                .map(|seg| {
                    let f = &f;
                    s.spawn(move || seg.into_iter().map(f).collect::<Vec<R>>())
                })
                .collect();
            parts.push(own.into_iter().map(&f).collect());
            for h in handles {
                match h.join() {
                    Ok(v) => parts.push(v),
                    Err(payload) => resume_unwind(payload),
                }
            }
        });
        drop(guard);
        parts.into_iter().flatten().collect()
    }

    /// Maps `f` over fixed-size chunks of `items` (the last chunk may be
    /// short) and concatenates the per-chunk output vectors in input order
    /// — the batch wiring for kernels that produce one result per item but
    /// want to process items in cache-sized blocks (e.g. the tiled sphere
    /// counting of `hdidx_core::LeafSoup::count_batch`). `f` receives the
    /// stable chunk index `c` alongside `&items[c*size..]`, so it can
    /// derive per-chunk seeds.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`. Panics in `f` propagate.
    pub fn par_flat_chunks<T, R, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> Vec<R> + Sync,
    {
        assert!(
            chunk_size > 0,
            "par_flat_chunks requires a positive chunk size"
        );
        let chunks: Vec<(usize, &[T])> = items.chunks(chunk_size).enumerate().collect();
        self.par_map(&chunks, |&(i, chunk)| f(i, chunk))
            .into_iter()
            .flatten()
            .collect()
    }

    /// Like [`Pool::par_map`], but a panicking work item yields a per-item
    /// `Err(WorkerPanic)` instead of tearing down the whole batch: the
    /// remaining items still run and return their results in order.
    pub fn par_map_isolated<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, WorkerPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map(items, |item| {
            catch_unwind(AssertUnwindSafe(|| f(item))).map_err(WorkerPanic::from_payload)
        })
    }
}

/// A worker panic caught by an isolated combinator, reduced to its
/// human-readable message (panic payloads are not `Send`-portable beyond
/// the common string forms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic message (`"<non-string panic payload>"` when the payload
    /// was neither `&str` nor `String`).
    pub message: String,
}

impl WorkerPanic {
    fn from_payload(payload: Box<dyn std::any::Any + Send>) -> WorkerPanic {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        WorkerPanic { message }
    }
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked: {}", self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Returns reserved budget on drop, so panics cannot leak it.
struct BudgetGuard<'a> {
    pool: &'a Pool,
    n: usize,
}

impl Drop for BudgetGuard<'_> {
    fn drop(&mut self) {
        self.pool.release(self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_for_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for t in [1, 2, 3, 8, 64] {
            let pool = Pool::new(t);
            assert_eq!(pool.par_map(&items, |x| x * x + 1), expect, "t={t}");
        }
    }

    #[test]
    fn par_map_vec_consumes_and_preserves_order() {
        let items: Vec<String> = (0..257).map(|i| i.to_string()).collect();
        let expect = items.clone();
        let out = Pool::new(4).par_map_vec(items, |s| s);
        assert_eq!(out, expect);
    }

    #[test]
    fn par_flat_chunks_sees_stable_indices_and_contents() {
        let items: Vec<u32> = (0..103).collect();
        let pool = Pool::new(5);
        let out = pool.par_flat_chunks(&items, 10, |i, chunk| vec![(i, chunk.to_vec())]);
        assert_eq!(out.len(), 11);
        for (i, chunk) in &out {
            let start = i * 10;
            let expect: Vec<u32> = (start as u32..(start + chunk.len()) as u32).collect();
            assert_eq!(chunk, &expect);
        }
        assert_eq!(out[10].1.len(), 3);
    }

    #[test]
    fn par_flat_chunks_preserves_item_order() {
        let items: Vec<u32> = (0..103).collect();
        let expect: Vec<u32> = items.iter().map(|x| x * 3).collect();
        for t in [1, 2, 5, 8] {
            let pool = Pool::new(t);
            let out = pool.par_flat_chunks(&items, 10, |i, chunk| {
                // The stable chunk index addresses the original slice.
                assert_eq!(chunk[0], (i * 10) as u32);
                chunk.iter().map(|x| x * 3).collect()
            });
            assert_eq!(out, expect, "t={t}");
        }
    }

    #[test]
    fn join_returns_positionally_and_nests() {
        let pool = Pool::new(4);
        let (a, (b, c)) = pool.join(|| 1, || pool.join(|| 2, || 3));
        assert_eq!((a, b, c), (1, 2, 3));
        let serial = Pool::serial();
        assert_eq!(serial.join(|| "x", || "y"), ("x", "y"));
    }

    #[test]
    fn budget_is_restored_after_use() {
        let pool = Pool::new(3);
        for _ in 0..10 {
            let _ = pool.par_map(&[1, 2, 3, 4, 5], |x| x + 1);
        }
        assert_eq!(pool.spare.load(Ordering::Acquire), 2);
    }

    #[test]
    fn par_map_panic_propagates() {
        let pool = Pool::new(4);
        let items: Vec<u32> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            pool.par_map(&items, |&x| {
                assert!(x != 63, "boom at 63");
                x
            })
        });
        assert!(result.is_err());
        // Budget restored even after the panic (guard ran).
        assert_eq!(pool.spare.load(Ordering::Acquire), 3);
    }

    #[test]
    fn join_panic_propagates_from_spawned_side() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(|| pool.join(|| 1, || panic!("offloaded panic")));
        assert!(result.is_err());
        assert_eq!(pool.spare.load(Ordering::Acquire), 1);
    }

    #[test]
    fn isolated_map_survives_per_item_panics() {
        let items: Vec<u32> = (0..100).collect();
        let expect: Vec<Result<u32, WorkerPanic>> = items
            .iter()
            .map(|&x| {
                if x % 31 == 5 {
                    Err(WorkerPanic {
                        message: format!("boom at {x}"),
                    })
                } else {
                    Ok(x * 2)
                }
            })
            .collect();
        for t in [1, 2, 8] {
            let pool = Pool::new(t);
            let out = pool.par_map_isolated(&items, |&x| {
                assert!(x % 31 != 5, "boom at {x}");
                x * 2
            });
            assert_eq!(out, expect, "t={t}");
            // Budget restored despite the caught panics.
            assert_eq!(pool.spare.load(Ordering::Acquire), t as isize - 1);
        }
    }

    #[test]
    fn worker_panic_formats_and_degrades_gracefully() {
        let p = WorkerPanic {
            message: "oops".into(),
        };
        assert_eq!(p.to_string(), "worker panicked: oops");
        let out = Pool::serial().par_map_isolated(&[1u32], |_| -> u32 {
            std::panic::panic_any(42u32) // a non-string payload
        });
        assert_eq!(
            out[0].as_ref().unwrap_err().message,
            "<non-string panic payload>"
        );
    }

    #[test]
    fn set_threads_overrides_environment() {
        // Relaxed global state: only assert the override wins once set.
        set_threads(3);
        assert_eq!(configured_threads(), 3);
        assert_eq!(Pool::current().threads(), 3);
        set_threads(1);
        assert_eq!(configured_threads(), 1);
    }

    #[test]
    fn derive_seed_decorrelates_indices() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert!(a != b && a != c && b != c);
        // Stable across calls (a pure function of its inputs).
        assert_eq!(derive_seed(42, 0), a);
    }
}
