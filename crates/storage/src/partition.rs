//! Morsel partitioning: slicing an execution domain into extents.
//!
//! The paper's central claim is that parallelism is *data-layout
//! controlled*: the same algebra program runs sequential, SIMD-laned or
//! multicore purely by how vectors are partitioned into extents (§2.3).
//! This module is the storage-side half of that claim for the serving
//! engine: a [`Partitioning`] slices the row range `[0, len)` of a table
//! (every column shares the same row count, so one partitioning covers
//! all of a table's columns) into `P` contiguous, cache-line-friendly
//! **morsels**. The compiled executor fans hot kernels — selections,
//! folds, grouped aggregation, the build side of joins — across these
//! morsels on its persistent worker pool and merges the partials back
//! into results bit-identical to the serial path.
//!
//! Layouts are computed per execution *domain*, not per table: a
//! domain may be an intermediate that no table holds, and it is cut in
//! units of whatever the execution unit iterates (elements, uniform
//! runs, selection chunks). Computing a layout is a few arithmetic
//! operations, so nothing caches them.
//!
//! # Granularity for work stealing
//!
//! With the persistent morsel pool (`voodoo_compile::pool`), morsels are
//! *stolen* between long-lived workers rather than statically assigned
//! one-per-thread. A static `P == workers` split cannot rebalance: if
//! one morsel is slow (skewed selectivity, cold cache, a preempted
//! core), every other worker idles behind it. [`Partitioning::
//! for_stealing`] therefore over-decomposes the domain by a small
//! *steal grain* ([`DEFAULT_STEAL_GRAIN`] morsels per worker), so an
//! idle worker always has units left to take from a loaded peer's
//! deque. The morsels stay [`MORSEL_ALIGN`]-aligned and in row order —
//! merging partials in morsel order is what keeps pooled results
//! bit-identical to the serial path.

/// Morsel boundaries are aligned to this many rows (when the input is
/// large enough to afford it): whole cache lines per worker, no false
/// sharing on the write side, and SIMD-friendly extents.
pub const MORSEL_ALIGN: usize = 1024;

/// Default morsels *per worker* when partitioning for a stealing
/// scheduler ([`Partitioning::for_stealing`]): enough spare units that
/// an idle worker can rebalance a skewed split, few enough that the
/// morsel-order merge stays cheap.
pub const DEFAULT_STEAL_GRAIN: usize = 4;

/// One contiguous extent of rows: `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// First row of the extent.
    pub start: usize,
    /// One past the last row.
    pub end: usize,
}

impl Morsel {
    /// Rows in the extent.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the extent holds no rows.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// A slicing of `[0, len)` into at most `P` aligned, non-empty morsels.
///
/// Invariants: morsels are contiguous, in order, non-overlapping, and
/// cover `[0, len)` exactly (an empty input has zero morsels). Every
/// morsel start except the first is a multiple of [`MORSEL_ALIGN`]
/// whenever `len >= P * MORSEL_ALIGN`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    len: usize,
    morsels: Vec<Morsel>,
}

impl Partitioning {
    /// Slice `[0, len)` into at most `parts` morsels.
    ///
    /// `parts` above `len` is clamped (a morsel is never empty); small
    /// inputs split unaligned so `P`-way parallelism is still exercised,
    /// large inputs get [`MORSEL_ALIGN`]-aligned boundaries.
    pub fn for_len(len: usize, parts: usize) -> Partitioning {
        let parts = parts.max(1);
        if len == 0 {
            return Partitioning {
                len,
                morsels: Vec::new(),
            };
        }
        let target = parts.min(len);
        let mut per = len.div_ceil(target);
        if per >= MORSEL_ALIGN {
            // Round the extent up to whole aligned blocks; the last
            // morsel absorbs the remainder.
            per = per.div_ceil(MORSEL_ALIGN) * MORSEL_ALIGN;
        }
        let morsels = (0..target)
            .map(|i| Morsel {
                start: i * per,
                end: ((i + 1) * per).min(len),
            })
            .filter(|m| !m.is_empty())
            .collect();
        Partitioning { len, morsels }
    }

    /// Slice `[0, len)` for a *stealing* scheduler: up to
    /// `workers × grain` morsels (grain clamped to ≥ 1; see
    /// [`DEFAULT_STEAL_GRAIN`]), so a pool of `workers` long-lived
    /// threads has spare units to rebalance skew by stealing. Alignment
    /// and ordering invariants are exactly [`Partitioning::for_len`]'s:
    /// results merged in morsel order are independent of how many
    /// morsels the domain was cut into.
    pub fn for_stealing(len: usize, workers: usize, grain: usize) -> Partitioning {
        Partitioning::for_len(len, workers.max(1).saturating_mul(grain.max(1)))
    }

    /// The partitioned row count.
    pub fn total_len(&self) -> usize {
        self.len
    }

    /// The morsels, in row order.
    pub fn morsels(&self) -> &[Morsel] {
        &self.morsels
    }

    /// Number of morsels.
    pub fn count(&self) -> usize {
        self.morsels.len()
    }

    /// Fence-post boundaries (`starts` plus the final `end`): the
    /// partition metadata recorded on vectors produced partition-parallel
    /// (`voodoo_core::StructuredVector::partition_bounds`).
    pub fn boundaries(&self) -> Vec<usize> {
        let mut b: Vec<usize> = self.morsels.iter().map(|m| m.start).collect();
        b.push(self.len);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_exactly_without_overlap() {
        for (len, parts) in [(0usize, 4usize), (1, 4), (7, 3), (10_000, 4), (4096, 8)] {
            let p = Partitioning::for_len(len, parts);
            let mut covered = 0usize;
            let mut prev_end = 0usize;
            for m in p.morsels() {
                assert_eq!(m.start, prev_end, "contiguous ({len}, {parts})");
                assert!(!m.is_empty(), "no empty morsels ({len}, {parts})");
                covered += m.len();
                prev_end = m.end;
            }
            assert_eq!(covered, len, "full coverage ({len}, {parts})");
            assert!(p.count() <= parts.max(1));
        }
    }

    #[test]
    fn large_inputs_get_aligned_boundaries() {
        let p = Partitioning::for_len(10 * MORSEL_ALIGN + 17, 4);
        for m in &p.morsels()[1..] {
            assert_eq!(m.start % MORSEL_ALIGN, 0, "aligned start {}", m.start);
        }
        assert_eq!(p.boundaries().last(), Some(&(10 * MORSEL_ALIGN + 17)));
    }

    #[test]
    fn parts_beyond_rows_clamp_to_singleton_morsels() {
        let p = Partitioning::for_len(3, 8);
        assert_eq!(p.count(), 3);
        assert!(p.morsels().iter().all(|m| m.len() == 1));
        let empty = Partitioning::for_len(0, 8);
        assert_eq!(empty.count(), 0);
        assert!(empty.boundaries() == vec![0]);
    }

    #[test]
    fn stealing_layouts_over_decompose_but_keep_invariants() {
        let p = Partitioning::for_stealing(100 * MORSEL_ALIGN, 4, DEFAULT_STEAL_GRAIN);
        assert!(p.count() > 4, "spare units for stealing: {}", p.count());
        assert!(p.count() <= 4 * DEFAULT_STEAL_GRAIN);
        let mut prev_end = 0usize;
        for m in p.morsels() {
            assert_eq!(m.start, prev_end);
            prev_end = m.end;
        }
        assert_eq!(prev_end, 100 * MORSEL_ALIGN);
        for m in &p.morsels()[1..] {
            assert_eq!(m.start % MORSEL_ALIGN, 0);
        }
        // Degenerate grains clamp instead of collapsing to zero morsels.
        assert_eq!(Partitioning::for_stealing(10, 4, 0).count(), 4);
        assert_eq!(Partitioning::for_stealing(0, 4, 4).count(), 0);
    }
}
