//! Two-level cache hierarchy.

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::row::{LineTable, RowPlan, Slot};
use crate::sinks::AccessSink;
use crate::stats::AccessStats;

/// An L1 → L2 hierarchy matching the paper's simulation setup.
///
/// Semantics:
/// * a **read** probes L1; on an L1 miss the line is fetched through L2, so
///   L2 sees exactly the L1 read misses;
/// * a **write** is write-through at L1 (the UltraSparc2 L1 is
///   write-through): it updates L1 per L1's write policy *and* is always
///   presented to L2, where the L2 write policy applies.
///
/// The default geometry ([`Hierarchy::ultrasparc2`]) is the 16KB
/// direct-mapped write-around L1 with 32-byte lines over the 2MB
/// direct-mapped L2 with 64-byte lines used for every simulation figure in
/// the paper (Figs 14, 16, 18, 20).
///
/// # Example
///
/// ```
/// use tiling3d_cachesim::{AccessSink, Hierarchy};
///
/// let mut h = Hierarchy::ultrasparc2();
/// h.read(0);  // cold miss at both levels
/// h.read(8);  // same L1 line: hit, L2 not consulted
/// assert_eq!(h.l1_stats().misses, 1);
/// assert_eq!(h.l2_stats().accesses, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    /// Row points replayed through [`AccessSink::row`].
    row_points: u64,
    /// The subset of `row_points` replayed access by access.
    row_points_exact: u64,
}

impl Hierarchy {
    /// Builds a hierarchy from two level configurations.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        Hierarchy {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            row_points: 0,
            row_points_exact: 0,
        }
    }

    /// The paper's simulated UltraSparc2 memory system.
    pub fn ultrasparc2() -> Self {
        Self::new(CacheConfig::ULTRASPARC2_L1, CacheConfig::ULTRASPARC2_L2)
    }

    /// L1 counters.
    pub fn l1_stats(&self) -> AccessStats {
        self.l1.stats()
    }

    /// L2 counters.
    pub fn l2_stats(&self) -> AccessStats {
        self.l2.stats()
    }

    /// Immutable access to the L1 model (for probes in tests).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// Immutable access to the L2 model.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Clears counters and contents of both levels.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.row_points = 0;
        self.row_points_exact = 0;
    }

    /// Row points replayed through [`AccessSink::row`] so far, and how
    /// many of them were replayed access by access (the first point of
    /// every row, points with a live same-set pair, and every point of a
    /// row that cannot take the run-level path).
    pub fn row_points(&self) -> (u64, u64) {
        (self.row_points, self.row_points_exact)
    }

    /// L1 miss rate in percent (the paper's primary metric).
    pub fn l1_miss_rate_pct(&self) -> f64 {
        self.l1.stats().miss_rate_pct()
    }

    /// L2 *global-reference* miss rate in percent: L2 misses divided by the
    /// total references the program issued (L1 accesses), matching how the
    /// paper reports small L2 rates (e.g. 6.3% L1 / 1.3% L2 for RESID).
    pub fn l2_miss_rate_pct(&self) -> f64 {
        let total = self.l1.stats().accesses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.l2.stats().misses as f64 / total as f64
        }
    }

    /// L2 *local* miss rate in percent (misses over L2 accesses).
    pub fn l2_local_miss_rate_pct(&self) -> f64 {
        self.l2.stats().miss_rate_pct()
    }

    /// Folds both levels' stats into the global observability metrics as
    /// `cachesim.l1.*` / `cachesim.l2.*` counters (no-op when the recorder
    /// is off), and the row replay counters as `cachesim.row.points` /
    /// `cachesim.row.points_exact`. Call once per simulated point, before
    /// `reset`.
    pub fn fold_obs_metrics(&self) {
        self.l1.stats().fold_obs_metrics("cachesim.l1");
        self.l2.stats().fold_obs_metrics("cachesim.l2");
        if tiling3d_obs::collecting() {
            tiling3d_obs::counter_add("cachesim.row.points", self.row_points);
            tiling3d_obs::counter_add("cachesim.row.points_exact", self.row_points_exact);
        }
    }
}

impl Hierarchy {
    /// L1-miss refill path, out of line: most reads hit L1, so keeping the
    /// L2 lookup behind a call leaves callers with just the compact L1
    /// probe to inline.
    #[inline(never)]
    fn l2_read_fill(&mut self, addr: u64) {
        self.l2.access(addr, false);
    }

    /// One slot access of the point at `point`. Stores are inlined here,
    /// unlike [`AccessSink::write`]: the row loops are the only callers,
    /// and they issue a store at nearly every point.
    #[inline(always)]
    fn slot(&mut self, s: Slot, point: u64) {
        let a = point.wrapping_add(s.offset as u64);
        if s.write {
            self.l1.access(a, true);
            self.l2.access(a, true);
        } else {
            self.read(a);
        }
    }

    /// Replays every slot of the point at `point`, in source order.
    #[inline]
    fn point_exact(&mut self, slots: &[Slot], point: u64) {
        for &s in slots {
            self.slot(s, point);
        }
    }

    /// Run-level replay of a row over a direct-mapped L1 (DESIGN.md §19).
    /// Point 0 is replayed exactly. After it, a load is probed only at the
    /// point where it enters a new L1 line and every store is probed; the
    /// other loads re-read the line they read at the previous point, which
    /// no allocating access can have evicted unless two allocating slots
    /// sat on distinct lines of one set at that point or this one — and
    /// the table probes every slot of such points. Skipped loads are
    /// direct-mapped hits, which change no cache state and never reach L2,
    /// so both levels see the per-access expansion's state and L2 stream.
    fn row_lines(&mut self, plan: &RowPlan, table: &LineTable, base: u64, n: usize) {
        let stride = plan.stride() as u64;
        self.point_exact(plan.slots(), base);
        let (mut point, mut exact, mut hits) = (base, 1u64, 0u64);
        for _ in 1..n {
            point = point.wrapping_add(stride);
            let phase = table.phase(point);
            for &s in table.probes(phase) {
                self.slot(s, point);
            }
            hits += u64::from(phase.hits);
            exact += u64::from(phase.exact);
        }
        // Direct-mapped hits update counters only: no LRU state to touch.
        self.l1.record_line_read_hits(hits);
        self.row_points_exact += exact;
    }
}

impl AccessSink for Hierarchy {
    #[inline]
    fn read(&mut self, addr: u64) {
        if self.l1.access(addr, false) {
            self.l2_read_fill(addr);
        }
    }

    /// Out of line: stencil traces write once per point (1 in 7–29
    /// accesses), and the write-through L2 update would double the inlined
    /// footprint of every trace loop for that rare case.
    #[inline(never)]
    fn write(&mut self, addr: u64) {
        self.l1.access(addr, true);
        // Write-through: L2 always observes the store.
        self.l2.access(addr, true);
    }

    #[inline]
    fn read_run(&mut self, addr: u64, stride: i64, n: usize) {
        // Segment by L1 lines with a division-free same-line loop (any
        // stride): within one line only the first access can miss (and
        // reach L2, at that exact address — matching the per-access
        // expansion); the rest are L1 hits recorded in bulk.
        let shift = self.l1.line_bytes().trailing_zeros();
        let mut a = addr;
        let mut rem = n;
        while rem > 0 {
            if self.l1.access(a, false) {
                self.l2_read_fill(a);
            }
            let line = a >> shift;
            rem -= 1;
            a = a.wrapping_add(stride as u64);
            let mut hits = 0u64;
            while rem > 0 && a >> shift == line {
                hits += 1;
                rem -= 1;
                a = a.wrapping_add(stride as u64);
            }
            if hits > 0 {
                self.l1.record_line_read_hits(hits);
            }
        }
    }

    #[inline]
    fn write_run(&mut self, addr: u64, stride: i64, n: usize) {
        // Write-through: both levels observe every store, and stores never
        // couple the levels (unlike reads, where only L1 misses reach L2),
        // so each level batches its own run independently — the two
        // level-local segmentations are together bit-identical to the
        // interleaved per-access expansion.
        self.l1.write_run(addr, stride, n);
        self.l2.write_run(addr, stride, n);
    }

    /// Run-level replay when L1 is direct-mapped and the plan's stride is
    /// a power of two no larger than an L1 line; the per-access expansion
    /// otherwise. L2's geometry does not matter: it sees every L1 read
    /// miss and every store, in order, either way.
    fn row(&mut self, plan: &RowPlan, base: u64, n: usize) {
        self.row_points += n as u64;
        // A one-point row is its own exact first point.
        let table = if n > 1 && self.l1.config().ways == 1 {
            plan.line_table(self.l1.config())
        } else {
            None
        };
        match table {
            Some(t) => self.row_lines(plan, t, base, n),
            None => {
                let mut point = base;
                for _ in 0..n {
                    self.point_exact(plan.slots(), point);
                    point = point.wrapping_add(plan.stride() as u64);
                }
                self.row_points_exact += n as u64;
            }
        }
    }
}

/// Convenience: run a trace closure against the standard UltraSparc2
/// hierarchy and return it for inspection.
pub fn simulate_ultrasparc2(trace: impl FnOnce(&mut Hierarchy)) -> Hierarchy {
    let mut h = Hierarchy::ultrasparc2();
    trace(&mut h);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_sees_only_l1_read_misses() {
        let mut h = Hierarchy::ultrasparc2();
        h.read(0); // L1 miss -> L2 access
        h.read(8); // L1 hit -> no L2 access
        h.read(0); // L1 hit
        assert_eq!(h.l1_stats().accesses, 3);
        assert_eq!(h.l1_stats().misses, 1);
        assert_eq!(h.l2_stats().accesses, 1);
    }

    #[test]
    fn writes_are_write_through() {
        let mut h = Hierarchy::ultrasparc2();
        h.write(0);
        h.write(0);
        assert_eq!(h.l1_stats().writes, 2);
        assert_eq!(h.l2_stats().writes, 2);
        // L1 write-around: both L1 writes miss (no allocate); L2
        // write-allocate: first misses, second hits.
        assert_eq!(h.l1_stats().write_misses, 2);
        assert_eq!(h.l2_stats().write_misses, 1);
    }

    #[test]
    fn l1_conflict_can_still_hit_l2() {
        let mut h = Hierarchy::ultrasparc2();
        // Two addresses 16K apart conflict in L1 but not in the 2M L2.
        h.read(0);
        h.read(16 * 1024);
        h.read(0);
        h.read(16 * 1024);
        assert_eq!(h.l1_stats().misses, 4);
        assert_eq!(h.l2_stats().misses, 2); // only cold misses at L2
    }

    #[test]
    fn global_l2_rate_uses_program_references() {
        let mut h = Hierarchy::ultrasparc2();
        for i in 0..10u64 {
            h.read(i * 8); // one 32B L1 line per 4 reads
        }
        // 10 refs, 3 L1 misses (lines 0,32,64), 3 L2 misses... lines are
        // 64B in L2 so lines {0,64} -> 2 L2 misses.
        assert_eq!(h.l1_stats().misses, 3);
        assert_eq!(h.l2_stats().misses, 2);
        assert!((h.l2_miss_rate_pct() - 20.0).abs() < 1e-12);
        assert!(h.l2_local_miss_rate_pct() > h.l2_miss_rate_pct());
    }

    #[test]
    fn simulate_helper_returns_populated_hierarchy() {
        let h = simulate_ultrasparc2(|h| {
            h.read(123);
            h.write(456);
        });
        assert_eq!(h.l1_stats().accesses, 2);
    }
}
