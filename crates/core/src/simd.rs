//! Runtime-dispatched SIMD lanes for the hot geometry kernels.
//!
//! The predictors and the serve path spend their CPU time in two inner
//! loops: MINDIST² accumulation over [`crate::LeafSoup`] stripes and the
//! early-abandon point-distance kernel behind [`crate::knn::scan_knn`].
//! This module gives both explicit `core::arch` lanes (SSE2 and AVX2 on
//! `x86_64`, detected at runtime; a portable scalar fallback everywhere
//! else) with **zero external dependencies**. The bulk loaders' per-split
//! [`crate::stats::dim_stats`] passes have an AVX2 arm here too.
//!
//! ## The identity argument (lanes across leaves, never across dims)
//!
//! The committed scalar kernels accumulate, for every leaf (or candidate
//! point), the per-dimension squared distances in ascending dimension
//! order, in `f64`. The SIMD kernels vectorize across the *leaf axis*
//! only: lane `l` of a vector register owns leaf `i + l` and replays the
//! exact same `f64` add chain — `(lo − x).max(x − hi).max(0.0)` per
//! dimension, squared, added in dimension order, no FMA contraction. A
//! vertical `max`/`sub`/`mul`/`add` is performed per lane exactly as the
//! scalar op would be, so every per-leaf sum adds the same `f64` operands
//! in the same order and the counts are **byte-identical** to the scalar
//! path, not approximately equal. Early exits (movemask over "every live
//! accumulator already exceeds `r²`") are sound for the same reason the
//! scalar block exit is: accumulation of non-negative terms is monotone.
//! Reducing across dimensions inside a register would re-associate the
//! sum and break this contract, which is why no kernel here ever does it.
//! The `dim_stats` arm sums per dimension instead of per point, so there
//! lane `l` owns dimension `j + l` and adds the points in id order: again
//! one scalar chain per lane, never a sum across lanes.
//!
//! ## Dispatch
//!
//! The active ISA is resolved once and cached, with precedence
//! **explicit force (the CLI's `--simd`) > `HDIDX_SIMD` env
//! (`auto|scalar|sse2|avx2`) > runtime detection** (AVX2 if
//! `is_x86_feature_detected!`, else SSE2 on `x86_64` — it is baseline —
//! else scalar). A malformed `HDIDX_SIMD` is an error from [`env_isa`],
//! which front ends call before any work (the kernels themselves panic
//! on it, never fall back). All `unsafe` is confined to
//! `#[target_feature]` lane primitives in the private `x86` module; the
//! blocked drivers in
//! [`crate::soup`] and [`crate::knn`] are safe and shared by all ISAs.
//! Every kernel also has a `*_with(isa, ..)` variant so tests and benches
//! can pin an ISA without touching the process-global state.

use crate::Error;
use std::env::VarError;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Instruction set implementing the geometry kernels. Ordered by
/// preference: detection picks the last supported variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Isa {
    /// Portable scalar kernels — the committed reference path.
    Scalar = 0,
    /// 2 × `f64` lanes (`x86_64` baseline, no detection needed).
    Sse2 = 1,
    /// 4 × `f64` lanes, runtime-detected.
    Avx2 = 2,
}

impl Isa {
    /// Every ISA, scalar first.
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Sse2, Isa::Avx2];

    /// Lower-case name, matching the `HDIDX_SIMD` / `--simd` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Sse2 => "sse2",
            Isa::Avx2 => "avx2",
        }
    }

    /// Whether this build/CPU can run the ISA's kernels. Scalar is always
    /// supported; SSE2 is part of the `x86_64` baseline; AVX2 is detected
    /// at runtime (the result is cached by `std`).
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            Isa::Sse2 => cfg!(target_arch = "x86_64"),
            Isa::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    fn from_tag(tag: u8) -> Isa {
        match tag {
            0 => Isa::Scalar,
            1 => Isa::Sse2,
            2 => Isa::Avx2,
            other => unreachable!("invalid Isa tag {other}"),
        }
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A user-facing ISA selection: a concrete ISA or auto-detection. This is
/// what `--simd` and `HDIDX_SIMD` parse into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Use the best ISA the CPU supports.
    Auto,
    /// Use exactly this ISA (rejected if unsupported).
    Fixed(Isa),
}

impl Choice {
    /// Parses `auto|scalar|sse2|avx2`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings otherwise.
    pub fn parse(s: &str) -> Result<Choice, String> {
        match s {
            "auto" => Ok(Choice::Auto),
            "scalar" => Ok(Choice::Fixed(Isa::Scalar)),
            "sse2" => Ok(Choice::Fixed(Isa::Sse2)),
            "avx2" => Ok(Choice::Fixed(Isa::Avx2)),
            other => Err(format!(
                "unknown SIMD ISA {other:?} (expected auto, scalar, sse2 or avx2)"
            )),
        }
    }
}

/// The best ISA this CPU supports.
#[must_use]
pub fn detect() -> Isa {
    if Isa::Avx2.is_supported() {
        Isa::Avx2
    } else if Isa::Sse2.is_supported() {
        Isa::Sse2
    } else {
        Isa::Scalar
    }
}

/// Every ISA this CPU supports, scalar first — what identity tests and
/// per-ISA bench rows iterate over.
#[must_use]
pub fn supported() -> Vec<Isa> {
    Isa::ALL
        .iter()
        .copied()
        .filter(|isa| isa.is_supported())
        .collect()
}

/// `FORCED` holds `isa as u8 + 1`, 0 meaning "not forced".
static FORCED: AtomicU8 = AtomicU8::new(0);
/// Cached env/detection resolution with its provenance label, or the
/// error a malformed `HDIDX_SIMD` gives.
static RESOLVED: OnceLock<crate::Result<(Isa, &'static str)>> = OnceLock::new();

fn resolve_env() -> crate::Result<(Isa, &'static str)> {
    let env_error = |message: String| Error::InvalidParameter {
        name: "HDIDX_SIMD",
        message,
    };
    let raw = match std::env::var("HDIDX_SIMD") {
        Err(VarError::NotPresent) => return Ok((detect(), "detected")),
        Err(VarError::NotUnicode(_)) => return Err(env_error("value is not UTF-8".into())),
        Ok(raw) => raw,
    };
    match Choice::parse(raw.trim()).map_err(env_error)? {
        Choice::Auto => Ok((detect(), "env")),
        Choice::Fixed(isa) if isa.is_supported() => Ok((isa, "env")),
        Choice::Fixed(isa) => Err(env_error(format!(
            "{raw} requested but this CPU/build does not support {isa}"
        ))),
    }
}

/// The ISA `HDIDX_SIMD` (or, when unset, detection) selects, resolved
/// once and cached. Front ends call it before any work, so a malformed
/// value surfaces as an error instead of a panic in the first kernel.
///
/// # Errors
///
/// [`Error::InvalidParameter`] naming `HDIDX_SIMD` for an unknown
/// spelling, a non-UTF-8 value, or an ISA this CPU/build lacks.
pub fn env_isa() -> crate::Result<Isa> {
    RESOLVED
        .get_or_init(resolve_env)
        .clone()
        .map(|(isa, _)| isa)
}

/// The cached env/detection resolution.
///
/// # Panics
///
/// Panics with the [`env_isa`] error when `HDIDX_SIMD` is malformed.
fn resolved() -> (Isa, &'static str) {
    match RESOLVED.get_or_init(resolve_env) {
        Ok(resolution) => *resolution,
        Err(e) => panic!("{e}"),
    }
}

/// The ISA every dispatching kernel entry point uses. Precedence:
/// [`force`] > `HDIDX_SIMD` > [`detect`], resolved once and cached.
///
/// # Panics
///
/// Panics when nothing was forced and `HDIDX_SIMD` is malformed (see
/// [`env_isa`]).
#[must_use]
pub fn active() -> Isa {
    match FORCED.load(Ordering::Relaxed) {
        0 => resolved().0,
        tag => Isa::from_tag(tag - 1),
    }
}

/// Forces the active ISA (the CLI's `--simd`), overriding `HDIDX_SIMD`
/// and detection. `Choice::Auto` forces the detected ISA, so an explicit
/// `--simd auto` also overrides the env var, per the documented
/// flag > env > detect precedence.
///
/// # Errors
///
/// Rejects a concrete ISA the CPU/build does not support (forcing it
/// anyway would be undefined behavior, so this can never be a warning).
pub fn force(choice: Choice) -> Result<(), String> {
    let isa = match choice {
        Choice::Auto => detect(),
        Choice::Fixed(isa) => {
            if !isa.is_supported() {
                return Err(format!(
                    "--simd {isa}: this CPU/build does not support {isa}"
                ));
            }
            isa
        }
    };
    FORCED.store(isa as u8 + 1, Ordering::Relaxed);
    Ok(())
}

/// Human-readable active ISA with provenance, e.g. `avx2 (detected)`,
/// `scalar (env)` or `sse2 (forced)` — the line `serve`/`measure` reports
/// print so perf artifacts are comparable across machines.
#[must_use]
pub fn describe() -> String {
    if FORCED.load(Ordering::Relaxed) != 0 {
        format!("{} (forced)", active())
    } else {
        let (isa, source) = resolved();
        format!("{isa} ({source})")
    }
}

/// Counts stripe lanes `i < valid` whose MINDIST² to `center` is at most
/// `r2`. `lo`/`hi` are the padded column-major stripes of a
/// [`crate::LeafSoup`] (`lo[j * stride + i]`), `stride` a multiple of
/// [`crate::soup::LANE_PAD`]. Lanes `>= valid` (sentinels or
/// beyond-prefix leaves) never contribute to the count: the final group's
/// movemask is masked down to the valid lanes, so even a non-finite `r2`
/// cannot count a sentinel.
///
/// # Panics
///
/// Panics when `isa` is scalar (the scalar path lives in
/// [`crate::LeafSoup`]) or unsupported, or on stripe-geometry mismatch.
pub(crate) fn soup_count_prefix(
    isa: Isa,
    lo: &[f32],
    hi: &[f32],
    stride: usize,
    valid: usize,
    center: &[f32],
    r2: f64,
) -> u64 {
    check_soup_dispatch(isa, lo, hi, stride, valid, center.len());
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            Isa::Scalar => unreachable!("scalar dispatch handled by LeafSoup"),
            // SAFETY: `is_supported` was asserted above (SSE2 is baseline,
            // AVX2 runtime-detected) and the stripe geometry checks
            // guarantee every `j * stride + i .. + lanes` load is in
            // bounds because `stride % LANE_PAD == 0` and `valid <= stride`.
            Isa::Sse2 => unsafe { x86::count_prefix_sse2(lo, hi, stride, valid, center, r2) },
            Isa::Avx2 => unsafe { x86::count_prefix_avx2(lo, hi, stride, valid, center, r2) },
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        unreachable!("non-scalar ISA {isa} dispatched on a non-x86_64 build")
    }
}

/// Batched variant of [`soup_count_prefix`]: `counts[q] +=` the number of
/// lanes `i < valid` intersecting query `q`'s ball. Queries are given as
/// `(center, r²)` pairs; the group loop is leaf-major with queries inner,
/// so one group's stripe bytes are reused by the whole query block while
/// resident in L1.
pub(crate) fn soup_count_chunk(
    isa: Isa,
    lo: &[f32],
    hi: &[f32],
    stride: usize,
    valid: usize,
    queries: &[(&[f32], f64)],
    counts: &mut [u64],
) {
    let dim = queries.first().map_or(0, |&(c, _)| c.len());
    check_soup_dispatch(isa, lo, hi, stride, valid, dim);
    assert_eq!(queries.len(), counts.len(), "one count slot per query");
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            Isa::Scalar => unreachable!("scalar dispatch handled by LeafSoup"),
            // SAFETY: as in `soup_count_prefix`.
            Isa::Sse2 => unsafe { x86::count_chunk_sse2(lo, hi, stride, valid, queries, counts) },
            Isa::Avx2 => unsafe { x86::count_chunk_avx2(lo, hi, stride, valid, queries, counts) },
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        unreachable!("non-scalar ISA {isa} dispatched on a non-x86_64 build")
    }
}

/// Points per k-NN group: four 4-lane AVX2 chains, or eight 2-lane SSE2
/// chains.
pub(crate) const KNN_GROUP: usize = 16;

/// Live lanes at or below which a k-NN group stops its vector chains and
/// hands the survivors to the caller's scalar re-check: carrying a few
/// lanes through another dimension tile costs more than finishing them
/// one at a time.
const KNN_HANDOFF: u32 = 4;

/// The k-NN group kernel of one vector ISA — the filter behind
/// [`crate::knn::scan_knn`] and the batched radii. Holding one proves the
/// ISA is supported, so the per-group call checks geometry only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KnnKernel(Isa);

impl KnnKernel {
    /// The kernel for `isa`, or `None` for the scalar path (which offers
    /// every point to `dist2_below` directly).
    ///
    /// # Panics
    ///
    /// Panics if `isa` is not supported by this CPU/build.
    pub(crate) fn new(isa: Isa) -> Option<KnnKernel> {
        assert!(
            isa.is_supported(),
            "ISA {isa} dispatched but not supported by this CPU/build"
        );
        (isa != Isa::Scalar).then_some(KnnKernel(isa))
    }

    /// Survivor masks of one query against consecutive groups of
    /// [`KNN_GROUP`] points, one mask per group into `masks`. In each
    /// group every lane accumulates its own `f64` chain in ascending
    /// dimension order (the exact `dist2_below` chain) and dies once a
    /// tile-boundary partial sum satisfies `acc >= bound`, exactly where
    /// `dist2_below` returns `None`. A group stops once at most
    /// [`KNN_HANDOFF`] lanes live and reports them, so each mask is a
    /// superset of the points `dist2_below(point, q, bound)` accepts; the
    /// caller re-checks every set bit.
    ///
    /// `rows` holds the groups' points row-major (`rows[p * dim + j]`);
    /// `tposed` holds each group's dim-major copy, widened to `f64` once
    /// (group `g`'s `tposed[(g * dim + j) * KNN_GROUP + l]`), of which
    /// the first `ready[g]` dimensions are already filled. The kernel
    /// transposes further dimension tiles only when a lane still needs
    /// them and advances `ready[g]`, so queries that share a group share
    /// its transposition, and a query that exits after one tile never
    /// pays for the rest.
    ///
    /// # Panics
    ///
    /// Panics on a geometry mismatch.
    pub(crate) fn tile_below(
        self,
        rows: &[f32],
        tposed: &mut [f64],
        ready: &mut [usize],
        q: &[f32],
        bound: f64,
        masks: &mut [u32],
    ) {
        let len = masks.len() * KNN_GROUP * q.len();
        assert!(
            rows.len() == len && tposed.len() == len && ready.len() == masks.len(),
            "k-NN tile geometry mismatch"
        );
        #[cfg(target_arch = "x86_64")]
        {
            match self.0 {
                Isa::Scalar => unreachable!("no scalar KnnKernel exists"),
                // SAFETY: `new` asserted support (SSE2 is baseline, AVX2
                // runtime-detected); the length checks above bound every
                // `p * dim + j` and `(g * dim + j) * KNN_GROUP + l` access
                // for `j < dim`, whatever the `ready` values.
                Isa::Sse2 => unsafe { x86::knn_tile_sse2(rows, tposed, ready, q, bound, masks) },
                Isa::Avx2 => unsafe { x86::knn_tile_avx2(rows, tposed, ready, q, bound, masks) },
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (rows, tposed, ready, bound, masks);
            unreachable!("non-scalar ISA {} dispatched on a non-x86_64 build", self.0)
        }
    }
}

/// Bytes per cache line, the step of [`prefetch`].
const CACHE_LINE: usize = 64;

/// Hints the CPU to start loading every cache line of `row` — issued for
/// all the rows of a page before any is scored, so the loads of points
/// gathered by id from a large dataset overlap instead of stalling one
/// row at a time. A hint only: no result depends on it, and it does
/// nothing off `x86_64`.
#[inline]
pub fn prefetch(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let first = row.as_ptr().cast::<i8>();
        let skew = first as usize % CACHE_LINE;
        for off in (0..skew + std::mem::size_of_val(row)).step_by(CACHE_LINE) {
            // SAFETY: a prefetch is a hint that never dereferences its
            // address architecturally and cannot fault; SSE is baseline
            // on x86_64. Each address lies in a cache line `row` touches.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_sub(skew).wrapping_add(off)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// How many ids ahead of the row being read the gathered-row kernels
/// ([`crate::stats::dim_stats`] and the split-key gather) prefetch: far
/// enough that a row arrives before it is needed, near enough that it is
/// still cached when it is.
pub const PREFETCH_AHEAD: usize = 8;

/// Prefetches the row [`PREFETCH_AHEAD`] places after `ids[i]`, if any.
#[inline(always)]
pub(crate) fn prefetch_ahead(data: &crate::Dataset, ids: &[u32], i: usize) {
    if let Some(&ahead) = ids.get(i + PREFETCH_AHEAD) {
        prefetch(data.point(ahead as usize));
    }
}

/// The mean pass of [`crate::stats::dim_stats`] on AVX2 lanes: `acc[j] +=
/// x[j]` for every row at `ids`, in order. Lane `l` of each 4-wide group
/// owns dimension `j + l` and replays the scalar `f64` chain.
///
/// # Panics
///
/// Panics if AVX2 is not supported or `acc` is not one slot per
/// dimension.
pub(crate) fn sum_rows_avx2(data: &crate::Dataset, ids: &[u32], acc: &mut [f64]) {
    check_rows_dispatch(data, acc.len());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX2 support and `acc.len() == data.dim()` were asserted
    // above, so every 4-lane load and store stays inside one row or `acc`.
    unsafe {
        x86::sum_rows_avx2(data, ids, acc);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (ids, acc);
        unreachable!("AVX2 dispatched on a non-x86_64 build")
    }
}

/// The variance pass of [`crate::stats::dim_stats`] on AVX2 lanes: `acc[j]
/// += (x[j] − mean[j])²` for every row at `ids`, in order, with the
/// subtract, multiply and add as separate ops (an FMA would round once
/// where the scalar chain rounds twice).
///
/// # Panics
///
/// Panics if AVX2 is not supported or `mean`/`acc` are not one slot per
/// dimension.
pub(crate) fn sum_sq_devs_avx2(data: &crate::Dataset, ids: &[u32], mean: &[f64], acc: &mut [f64]) {
    check_rows_dispatch(data, acc.len());
    assert_eq!(mean.len(), acc.len(), "one mean per dimension");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as in `sum_rows_avx2`; `mean` has the same length as `acc`.
    unsafe {
        x86::sum_sq_devs_avx2(data, ids, mean, acc);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (ids, mean, acc);
        unreachable!("AVX2 dispatched on a non-x86_64 build")
    }
}

/// Shared validation for the gathered-row dispatchers.
fn check_rows_dispatch(data: &crate::Dataset, slots: usize) {
    assert!(
        Isa::Avx2.is_supported(),
        "ISA avx2 dispatched but not supported by this CPU/build"
    );
    assert_eq!(slots, data.dim(), "one accumulator per dimension");
}

/// Shared stripe-geometry validation for the soup dispatchers.
fn check_soup_dispatch(isa: Isa, lo: &[f32], hi: &[f32], stride: usize, valid: usize, dim: usize) {
    assert!(
        isa.is_supported(),
        "ISA {isa} dispatched but not supported by this CPU/build"
    );
    assert!(
        stride.is_multiple_of(crate::soup::LANE_PAD) && valid <= stride,
        "stripe stride {stride} must be LANE_PAD-padded and cover valid {valid}"
    );
    assert!(
        lo.len() == dim * stride && hi.len() == dim * stride,
        "stripe arrays must hold dim * stride bounds"
    );
}

/// The `#[target_feature]` lane primitives. Everything `unsafe` lives
/// here; callers guarantee (a) the feature was detected and (b) the
/// stripe/row geometry asserted by the dispatchers above.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{prefetch_ahead, KNN_GROUP, KNN_HANDOFF};
    use crate::soup::DIM_TILE;
    use crate::Dataset;
    use core::arch::x86_64::*;

    /// Bitmask of the low `lanes` of a 16-lane group.
    #[inline]
    fn mask16(lanes: usize) -> u32 {
        if lanes >= 16 {
            0xFFFF
        } else {
            (1u32 << lanes) - 1
        }
    }

    /// Bitmask of the low `lanes` of an 8-lane group.
    #[inline]
    fn mask8(lanes: usize) -> u32 {
        if lanes >= 8 {
            0xFF
        } else {
            (1u32 << lanes) - 1
        }
    }

    /// One 16-leaf group against one ball: four 4-lane `f64` accumulator
    /// chains held in registers (interleaving four chains hides the
    /// `addpd` latency that would otherwise bound the kernel), dimensions
    /// ascending, early exit via movemask every [`DIM_TILE`] dims.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `lo`/`hi` must be readable at
    /// `j * stride + base + 0..16` for every `j < center.len()`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn group16_avx2(
        lo: *const f32,
        hi: *const f32,
        stride: usize,
        base: usize,
        center: &[f32],
        r2: f64,
        lane_mask: u32,
    ) -> u32 {
        let dim = center.len();
        let zero = _mm256_setzero_pd();
        let r2v = _mm256_set1_pd(r2);
        let (mut a0, mut a1, mut a2, mut a3) = (zero, zero, zero, zero);
        let mut j = 0usize;
        while j < dim {
            let tile_end = (j + DIM_TILE).min(dim);
            while j < tile_end {
                let x = _mm256_set1_pd(f64::from(*center.get_unchecked(j)));
                let p = j * stride + base;
                let l0 = _mm256_cvtps_pd(_mm_loadu_ps(lo.add(p)));
                let l1 = _mm256_cvtps_pd(_mm_loadu_ps(lo.add(p + 4)));
                let l2 = _mm256_cvtps_pd(_mm_loadu_ps(lo.add(p + 8)));
                let l3 = _mm256_cvtps_pd(_mm_loadu_ps(lo.add(p + 12)));
                let h0 = _mm256_cvtps_pd(_mm_loadu_ps(hi.add(p)));
                let h1 = _mm256_cvtps_pd(_mm_loadu_ps(hi.add(p + 4)));
                let h2 = _mm256_cvtps_pd(_mm_loadu_ps(hi.add(p + 8)));
                let h3 = _mm256_cvtps_pd(_mm_loadu_ps(hi.add(p + 12)));
                // Same operands as the scalar `(lo - x).max(x - hi).max(0.0)`;
                // the zero-sign ambiguity of `max` is erased by squaring and
                // `mul` + `add` stay separate ops (FMA would re-round).
                let d0 = _mm256_max_pd(
                    _mm256_max_pd(_mm256_sub_pd(l0, x), _mm256_sub_pd(x, h0)),
                    zero,
                );
                let d1 = _mm256_max_pd(
                    _mm256_max_pd(_mm256_sub_pd(l1, x), _mm256_sub_pd(x, h1)),
                    zero,
                );
                let d2 = _mm256_max_pd(
                    _mm256_max_pd(_mm256_sub_pd(l2, x), _mm256_sub_pd(x, h2)),
                    zero,
                );
                let d3 = _mm256_max_pd(
                    _mm256_max_pd(_mm256_sub_pd(l3, x), _mm256_sub_pd(x, h3)),
                    zero,
                );
                a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
                a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
                a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
                a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
                j += 1;
            }
            // All 16 lanes strictly above r² (ordered compare, NaN-safe like
            // the scalar `a > r2`): no later dimension can flip a decision.
            let g = _mm256_and_pd(
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_GT_OQ>(a0, r2v),
                    _mm256_cmp_pd::<_CMP_GT_OQ>(a1, r2v),
                ),
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_GT_OQ>(a2, r2v),
                    _mm256_cmp_pd::<_CMP_GT_OQ>(a3, r2v),
                ),
            );
            if _mm256_movemask_pd(g) == 0b1111 {
                return 0;
            }
        }
        let m0 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a0, r2v)) as u32;
        let m1 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a1, r2v)) as u32;
        let m2 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a2, r2v)) as u32;
        let m3 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a3, r2v)) as u32;
        ((m0 | (m1 << 4) | (m2 << 8) | (m3 << 12)) & lane_mask).count_ones()
    }

    /// One 8-leaf group against one ball on SSE2: four 2-lane chains.
    ///
    /// # Safety
    ///
    /// `lo`/`hi` must be readable at `j * stride + base + 0..8` for every
    /// `j < center.len()` (SSE2 itself is `x86_64` baseline).
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn group8_sse2(
        lo: *const f32,
        hi: *const f32,
        stride: usize,
        base: usize,
        center: &[f32],
        r2: f64,
        lane_mask: u32,
    ) -> u32 {
        #[inline(always)]
        unsafe fn load2(p: *const f32) -> __m128d {
            _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(p as *const __m128i)))
        }
        let dim = center.len();
        let zero = _mm_setzero_pd();
        let r2v = _mm_set1_pd(r2);
        let (mut a0, mut a1, mut a2, mut a3) = (zero, zero, zero, zero);
        let mut j = 0usize;
        while j < dim {
            let tile_end = (j + DIM_TILE).min(dim);
            while j < tile_end {
                let x = _mm_set1_pd(f64::from(*center.get_unchecked(j)));
                let p = j * stride + base;
                let l0 = load2(lo.add(p));
                let l1 = load2(lo.add(p + 2));
                let l2 = load2(lo.add(p + 4));
                let l3 = load2(lo.add(p + 6));
                let h0 = load2(hi.add(p));
                let h1 = load2(hi.add(p + 2));
                let h2 = load2(hi.add(p + 4));
                let h3 = load2(hi.add(p + 6));
                let d0 = _mm_max_pd(_mm_max_pd(_mm_sub_pd(l0, x), _mm_sub_pd(x, h0)), zero);
                let d1 = _mm_max_pd(_mm_max_pd(_mm_sub_pd(l1, x), _mm_sub_pd(x, h1)), zero);
                let d2 = _mm_max_pd(_mm_max_pd(_mm_sub_pd(l2, x), _mm_sub_pd(x, h2)), zero);
                let d3 = _mm_max_pd(_mm_max_pd(_mm_sub_pd(l3, x), _mm_sub_pd(x, h3)), zero);
                a0 = _mm_add_pd(a0, _mm_mul_pd(d0, d0));
                a1 = _mm_add_pd(a1, _mm_mul_pd(d1, d1));
                a2 = _mm_add_pd(a2, _mm_mul_pd(d2, d2));
                a3 = _mm_add_pd(a3, _mm_mul_pd(d3, d3));
                j += 1;
            }
            let g = _mm_and_pd(
                _mm_and_pd(_mm_cmpgt_pd(a0, r2v), _mm_cmpgt_pd(a1, r2v)),
                _mm_and_pd(_mm_cmpgt_pd(a2, r2v), _mm_cmpgt_pd(a3, r2v)),
            );
            if _mm_movemask_pd(g) == 0b11 {
                return 0;
            }
        }
        let m0 = _mm_movemask_pd(_mm_cmple_pd(a0, r2v)) as u32;
        let m1 = _mm_movemask_pd(_mm_cmple_pd(a1, r2v)) as u32;
        let m2 = _mm_movemask_pd(_mm_cmple_pd(a2, r2v)) as u32;
        let m3 = _mm_movemask_pd(_mm_cmple_pd(a3, r2v)) as u32;
        ((m0 | (m1 << 2) | (m2 << 4) | (m3 << 6)) & lane_mask).count_ones()
    }

    /// # Safety
    ///
    /// AVX2 detected; stripe geometry as asserted by the dispatcher
    /// (`stride % 16 == 0`, arrays of `dim * stride`, `valid <= stride`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_prefix_avx2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        center: &[f32],
        r2: f64,
    ) -> u64 {
        let mut total = 0u64;
        let mut i = 0usize;
        while i < valid {
            let lanes = valid - i;
            total += u64::from(group16_avx2(
                lo.as_ptr(),
                hi.as_ptr(),
                stride,
                i,
                center,
                r2,
                mask16(lanes),
            ));
            i += 16;
        }
        total
    }

    /// # Safety
    ///
    /// Stripe geometry as asserted by the dispatcher (`stride % 8 == 0`
    /// suffices for the 8-lane groups).
    #[target_feature(enable = "sse2")]
    pub unsafe fn count_prefix_sse2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        center: &[f32],
        r2: f64,
    ) -> u64 {
        let mut total = 0u64;
        let mut i = 0usize;
        while i < valid {
            let lanes = valid - i;
            total += u64::from(group8_sse2(
                lo.as_ptr(),
                hi.as_ptr(),
                stride,
                i,
                center,
                r2,
                mask8(lanes),
            ));
            i += 8;
        }
        total
    }

    /// Batched counting, leaf-group-major with queries inner so one
    /// group's stripe bytes (2 · dim cache lines) serve the whole query
    /// block from L1 — the large-leaf-count tiling fix.
    ///
    /// # Safety
    ///
    /// As [`count_prefix_avx2`]; `counts.len() == queries.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_chunk_avx2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        queries: &[(&[f32], f64)],
        counts: &mut [u64],
    ) {
        let mut i = 0usize;
        while i < valid {
            let mask = mask16(valid - i);
            for (slot, &(center, r2)) in counts.iter_mut().zip(queries) {
                *slot += u64::from(group16_avx2(
                    lo.as_ptr(),
                    hi.as_ptr(),
                    stride,
                    i,
                    center,
                    r2,
                    mask,
                ));
            }
            i += 16;
        }
    }

    /// # Safety
    ///
    /// As [`count_prefix_sse2`]; `counts.len() == queries.len()`.
    #[target_feature(enable = "sse2")]
    pub unsafe fn count_chunk_sse2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        queries: &[(&[f32], f64)],
        counts: &mut [u64],
    ) {
        let mut i = 0usize;
        while i < valid {
            let mask = mask8(valid - i);
            for (slot, &(center, r2)) in counts.iter_mut().zip(queries) {
                *slot += u64::from(group8_sse2(
                    lo.as_ptr(),
                    hi.as_ptr(),
                    stride,
                    i,
                    center,
                    r2,
                    mask,
                ));
            }
            i += 8;
        }
    }

    /// Transposes dimensions `from..to` of one k-NN group into its
    /// dim-major buffer, widening each coordinate to `f64` (exact).
    ///
    /// # Safety
    ///
    /// `rows` and `tposed` must be readable/writable for
    /// `KNN_GROUP * dim` floats and `to <= dim`.
    #[inline(always)]
    unsafe fn transpose_tile(
        rows: *const f32,
        tposed: *mut f64,
        dim: usize,
        from: usize,
        to: usize,
    ) {
        for l in 0..KNN_GROUP {
            for j in from..to {
                *tposed.add(j * KNN_GROUP + l) = f64::from(*rows.add(l * dim + j));
            }
        }
    }

    /// [`transpose_tile`] for one full [`DIM_TILE`] starting at dimension
    /// `j`, in registers: two 8 × 8 `f32` transposes (unpack, shuffle,
    /// then the 128-bit halves), widened to `f64` on the way out.
    ///
    /// # Safety
    ///
    /// AVX2 detected; as [`transpose_tile`] with `j + 8 <= dim`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn transpose8_avx2(rows: *const f32, tposed: *mut f64, dim: usize, j: usize) {
        for half in 0..2 {
            let row = |l: usize| _mm256_loadu_ps(rows.add((half * 8 + l) * dim + j));
            // Points a..h of the half, dims 0..8 of the tile.
            let (a, b, c, d) = (row(0), row(1), row(2), row(3));
            let (e, f, g, h) = (row(4), row(5), row(6), row(7));
            // [a0 b0 a1 b1 | a4 b4 a5 b5] and [a2 b2 a3 b3 | a6 b6 a7 b7].
            let (ab_lo, ab_hi) = (_mm256_unpacklo_ps(a, b), _mm256_unpackhi_ps(a, b));
            let (cd_lo, cd_hi) = (_mm256_unpacklo_ps(c, d), _mm256_unpackhi_ps(c, d));
            let (ef_lo, ef_hi) = (_mm256_unpacklo_ps(e, f), _mm256_unpackhi_ps(e, f));
            let (gh_lo, gh_hi) = (_mm256_unpacklo_ps(g, h), _mm256_unpackhi_ps(g, h));
            // Dimension k of points a..d in the low half, k + 4 in the high.
            let first = [
                _mm256_shuffle_ps::<0x44>(ab_lo, cd_lo),
                _mm256_shuffle_ps::<0xEE>(ab_lo, cd_lo),
                _mm256_shuffle_ps::<0x44>(ab_hi, cd_hi),
                _mm256_shuffle_ps::<0xEE>(ab_hi, cd_hi),
            ];
            let second = [
                _mm256_shuffle_ps::<0x44>(ef_lo, gh_lo),
                _mm256_shuffle_ps::<0xEE>(ef_lo, gh_lo),
                _mm256_shuffle_ps::<0x44>(ef_hi, gh_hi),
                _mm256_shuffle_ps::<0xEE>(ef_hi, gh_hi),
            ];
            for (k, (ad, eh)) in first.into_iter().zip(second).enumerate() {
                let lo = tposed.add((j + k) * KNN_GROUP + half * 8);
                _mm256_storeu_pd(lo, _mm256_cvtps_pd(_mm256_castps256_ps128(ad)));
                _mm256_storeu_pd(lo.add(4), _mm256_cvtps_pd(_mm256_castps256_ps128(eh)));
                let hi = tposed.add((j + k + 4) * KNN_GROUP + half * 8);
                _mm256_storeu_pd(hi, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(ad)));
                _mm256_storeu_pd(hi.add(4), _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(eh)));
            }
        }
    }

    /// [`transpose_tile`] for one full [`DIM_TILE`] starting at dimension
    /// `j`, as eight 4 × 4 `f32` transposes in SSE registers.
    ///
    /// # Safety
    ///
    /// As [`transpose_tile`] with `j + 8 <= dim`.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn transpose8_sse2(rows: *const f32, tposed: *mut f64, dim: usize, j: usize) {
        for quad in 0..KNN_GROUP / 4 {
            for off in [0, 4] {
                let row = |l: usize| _mm_loadu_ps(rows.add((quad * 4 + l) * dim + j + off));
                let (a, b, c, d) = (row(0), row(1), row(2), row(3));
                let (ab_lo, ab_hi) = (_mm_unpacklo_ps(a, b), _mm_unpackhi_ps(a, b));
                let (cd_lo, cd_hi) = (_mm_unpacklo_ps(c, d), _mm_unpackhi_ps(c, d));
                // Dimension k of the four points.
                let dims = [
                    _mm_movelh_ps(ab_lo, cd_lo),
                    _mm_movehl_ps(cd_lo, ab_lo),
                    _mm_movelh_ps(ab_hi, cd_hi),
                    _mm_movehl_ps(cd_hi, ab_hi),
                ];
                for (k, v) in dims.into_iter().enumerate() {
                    let p = tposed.add((j + off + k) * KNN_GROUP + quad * 4);
                    _mm_storeu_pd(p, _mm_cvtps_pd(v));
                    _mm_storeu_pd(p.add(2), _mm_cvtps_pd(_mm_movehl_ps(v, v)));
                }
            }
        }
    }

    /// One query against consecutive 16-point groups, each as four
    /// interleaved 4-lane chains (the interleaving hides the `addpd`
    /// latency of one chain); see `KnnKernel::tile_below`.
    ///
    /// # Safety
    ///
    /// AVX2 detected; `rows.len() == tposed.len() == masks.len() * 16 *
    /// q.len()` and `ready.len() == masks.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn knn_tile_avx2(
        rows: &[f32],
        tposed: &mut [f64],
        ready: &mut [usize],
        q: &[f32],
        bound: f64,
        masks: &mut [u32],
    ) {
        let dim = q.len();
        let group_len = KNN_GROUP * dim;
        let bv = _mm256_set1_pd(bound);
        let zero = _mm256_setzero_pd();
        for (g, (mask, ready)) in masks.iter_mut().zip(ready.iter_mut()).enumerate() {
            let rows = rows.as_ptr().add(g * group_len);
            let t = tposed.as_mut_ptr().add(g * group_len);
            let (mut a0, mut a1, mut a2, mut a3) = (zero, zero, zero, zero);
            let mut dead = 0u32;
            let mut j = 0usize;
            while j < dim {
                let tile_end = (j + DIM_TILE).min(dim);
                if *ready < tile_end {
                    if tile_end - j == DIM_TILE {
                        transpose8_avx2(rows, t, dim, j);
                    } else {
                        transpose_tile(rows, t, dim, j, tile_end);
                    }
                    *ready = tile_end;
                }
                while j < tile_end {
                    // Lane l owns point l; each lane's f64 chain is the
                    // scalar `dist2_below` chain verbatim (separate mul
                    // and add).
                    let qv = _mm256_set1_pd(f64::from(*q.get_unchecked(j)));
                    let p = t.add(j * KNN_GROUP);
                    let d0 = _mm256_sub_pd(_mm256_loadu_pd(p), qv);
                    let d1 = _mm256_sub_pd(_mm256_loadu_pd(p.add(4)), qv);
                    let d2 = _mm256_sub_pd(_mm256_loadu_pd(p.add(8)), qv);
                    let d3 = _mm256_sub_pd(_mm256_loadu_pd(p.add(12)), qv);
                    a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
                    a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
                    a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
                    a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
                    j += 1;
                }
                // Ordered `>=` is the scalar `acc >= bound` exit, NaN
                // included; a lane stays dead once it exits, as the scalar
                // loop returns.
                let m0 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(a0, bv)) as u32;
                let m1 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(a1, bv)) as u32;
                let m2 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(a2, bv)) as u32;
                let m3 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(a3, bv)) as u32;
                dead |= m0 | (m1 << 4) | (m2 << 8) | (m3 << 12);
                if (!dead & 0xFFFF).count_ones() <= KNN_HANDOFF {
                    break;
                }
            }
            *mask = !dead & 0xFFFF;
        }
    }

    /// One query against consecutive 16-point groups on SSE2: eight
    /// 2-lane chains per group.
    ///
    /// # Safety
    ///
    /// As [`knn_tile_avx2`] (SSE2 itself is `x86_64` baseline).
    #[target_feature(enable = "sse2")]
    pub unsafe fn knn_tile_sse2(
        rows: &[f32],
        tposed: &mut [f64],
        ready: &mut [usize],
        q: &[f32],
        bound: f64,
        masks: &mut [u32],
    ) {
        let dim = q.len();
        let group_len = KNN_GROUP * dim;
        let bv = _mm_set1_pd(bound);
        for (g, (mask, ready)) in masks.iter_mut().zip(ready.iter_mut()).enumerate() {
            let rows = rows.as_ptr().add(g * group_len);
            let t = tposed.as_mut_ptr().add(g * group_len);
            let mut acc = [_mm_setzero_pd(); 8];
            let mut dead = 0u32;
            let mut j = 0usize;
            while j < dim {
                let tile_end = (j + DIM_TILE).min(dim);
                if *ready < tile_end {
                    if tile_end - j == DIM_TILE {
                        transpose8_sse2(rows, t, dim, j);
                    } else {
                        transpose_tile(rows, t, dim, j, tile_end);
                    }
                    *ready = tile_end;
                }
                while j < tile_end {
                    let qv = _mm_set1_pd(f64::from(*q.get_unchecked(j)));
                    let p = t.add(j * KNN_GROUP);
                    for (c, a) in acc.iter_mut().enumerate() {
                        let d = _mm_sub_pd(_mm_loadu_pd(p.add(2 * c)), qv);
                        *a = _mm_add_pd(*a, _mm_mul_pd(d, d));
                    }
                    j += 1;
                }
                for (c, &a) in acc.iter().enumerate() {
                    dead |= (_mm_movemask_pd(_mm_cmpge_pd(a, bv)) as u32) << (2 * c);
                }
                if (!dead & 0xFFFF).count_ones() <= KNN_HANDOFF {
                    break;
                }
            }
            *mask = !dead & 0xFFFF;
        }
    }

    /// `acc[j] += f64::from(x[j])` for every row `x` at `ids`, in order:
    /// one 4-lane chain per group of four dimensions, the scalar chain
    /// for the last `dim % 4`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `acc.len() == data.dim()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_rows_avx2(data: &Dataset, ids: &[u32], acc: &mut [f64]) {
        let d = acc.len();
        let a = acc.as_mut_ptr();
        for (i, &id) in ids.iter().enumerate() {
            prefetch_ahead(data, ids, i);
            let x = data.point(id as usize).as_ptr();
            let mut j = 0usize;
            while j + 4 <= d {
                let v = _mm256_cvtps_pd(_mm_loadu_ps(x.add(j)));
                _mm256_storeu_pd(a.add(j), _mm256_add_pd(_mm256_loadu_pd(a.add(j)), v));
                j += 4;
            }
            while j < d {
                *a.add(j) += f64::from(*x.add(j));
                j += 1;
            }
        }
    }

    /// `acc[j] += (f64::from(x[j]) - mean[j])²` for every row `x` at
    /// `ids`, in order, lanes as in [`sum_rows_avx2`]; subtract, multiply
    /// and add stay separate instructions.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `mean.len() == acc.len() == data.dim()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_sq_devs_avx2(data: &Dataset, ids: &[u32], mean: &[f64], acc: &mut [f64]) {
        let d = acc.len();
        let a = acc.as_mut_ptr();
        let m = mean.as_ptr();
        for (i, &id) in ids.iter().enumerate() {
            prefetch_ahead(data, ids, i);
            let x = data.point(id as usize).as_ptr();
            let mut j = 0usize;
            while j + 4 <= d {
                let dev = _mm256_sub_pd(
                    _mm256_cvtps_pd(_mm_loadu_ps(x.add(j))),
                    _mm256_loadu_pd(m.add(j)),
                );
                let sq = _mm256_mul_pd(dev, dev);
                _mm256_storeu_pd(a.add(j), _mm256_add_pd(_mm256_loadu_pd(a.add(j)), sq));
                j += 4;
            }
            while j < d {
                let dev = f64::from(*x.add(j)) - *m.add(j);
                *a.add(j) += dev * dev;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_parses_every_spelling_and_rejects_junk() {
        assert_eq!(Choice::parse("auto"), Ok(Choice::Auto));
        assert_eq!(Choice::parse("scalar"), Ok(Choice::Fixed(Isa::Scalar)));
        assert_eq!(Choice::parse("sse2"), Ok(Choice::Fixed(Isa::Sse2)));
        assert_eq!(Choice::parse("avx2"), Ok(Choice::Fixed(Isa::Avx2)));
        let err = Choice::parse("neon").unwrap_err();
        assert!(err.contains("neon") && err.contains("avx2"), "{err}");
    }

    #[test]
    fn detection_is_coherent() {
        // Scalar is always supported and always listed first.
        assert!(Isa::Scalar.is_supported());
        let sup = supported();
        assert_eq!(sup[0], Isa::Scalar);
        // The detected ISA is the best supported one.
        let det = detect();
        assert!(det.is_supported());
        assert_eq!(sup.last().copied(), Some(det));
        #[cfg(target_arch = "x86_64")]
        assert!(Isa::Sse2.is_supported(), "SSE2 is x86_64 baseline");
    }

    #[test]
    fn force_overrides_and_describe_reports_provenance() {
        // Keep every assertion about the process-global override in this
        // one test: tests run concurrently and `force` is global.
        force(Choice::Fixed(Isa::Scalar)).unwrap();
        assert_eq!(active(), Isa::Scalar);
        assert_eq!(describe(), "scalar (forced)");
        force(Choice::Auto).unwrap();
        assert_eq!(active(), detect());
        assert_eq!(describe(), format!("{} (forced)", detect()));
    }

    #[test]
    fn display_matches_cli_spelling() {
        for isa in Isa::ALL {
            assert_eq!(Choice::parse(isa.name()), Ok(Choice::Fixed(isa)));
            assert_eq!(format!("{isa}"), isa.name());
        }
    }
}
