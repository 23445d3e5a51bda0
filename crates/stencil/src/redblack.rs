//! 3D Red-black SOR (Fig 12): naive, fused, and skewed-tiled schedules.
//!
//! Red points (even Fortran coordinate sum) are updated from their black
//! neighbours, then black points from the updated reds, all **in place** on
//! a single array. The naive schedule makes two full sweeps per iteration
//! (terrible locality: the array is pulled through cache twice, at half
//! line utilisation). The *fused* schedule updates black points of plane
//! `K` immediately after red points of plane `K+1`, so one pass suffices —
//! but now **three** planes must stay cache-resident, which is where the
//! paper's tiling (bottom of Fig 12, with the tile origin skewed by
//! `K - KK`) comes in.
//!
//! All three schedules compute **bitwise identical** results: every black
//! update still sees fully-updated red neighbours, and reds only read
//! original blacks. The tests verify this exhaustively, which pins down the
//! delicate index arithmetic of the skewed tiled loop.

use tiling3d_cachesim::{AccessSink, RowPlan, Slot};
use tiling3d_grid::Array3;
use tiling3d_loopnest::{stride2_last, TileDims};

use crate::backend::{self, Backend, ExecBackend, LaneEngine, Resolved, RowEngine, RowKernel};
use crate::rowexec;

/// FLOPs per updated point (2 multiplies + 6 adds).
pub const FLOPS_PER_POINT: u64 = 8;

/// Which Fig 12 schedule to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Two full passes: all red points, then all black points.
    Naive,
    /// One fused pass: red of plane `K+1`, then black of plane `K`.
    Fused,
    /// The fused pass tiled over `(J, I)` with skewed tile origins.
    Tiled(TileDims),
}

/// FLOPs in one full red-black iteration (every interior point updated
/// once) on an `n x n x nk` grid.
pub fn sweep_flops(n: usize, nk: usize) -> u64 {
    let interior = (n - 2) as u64;
    interior * interior * (nk as u64 - 2) * FLOPS_PER_POINT
}

/// Walks the **naive** schedule as stride-2 rows: pass 0 yields the red
/// rows (Fortran-even coordinate sums), pass 1 the black rows.
fn rows_naive(n: usize, nk: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
    for p in 0..2usize {
        for k in 1..=nk - 2 {
            for j in 1..=n - 2 {
                let i0 = 1 + (k + j + p) % 2;
                if i0 <= n - 2 {
                    f(i0, stride2_last(i0, n - 2), j, k);
                }
            }
        }
    }
}

/// Walks the **fused** schedule (middle of Fig 12) as stride-2 rows.
fn rows_fused(n: usize, nk: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
    for kk in 0..=nk - 2 {
        // Two-trip inner K loop: K = KK+1 (red), then K = KK (black).
        for k in [kk + 1, kk] {
            if !(1..=nk - 2).contains(&k) {
                continue;
            }
            let parity = if k == kk + 1 { 0 } else { 1 }; // red : black
            for j in 1..=n - 2 {
                let i0 = 1 + (k + j + parity) % 2;
                if i0 <= n - 2 {
                    f(i0, stride2_last(i0, n - 2), j, k);
                }
            }
        }
    }
}

/// Walks the **tiled** schedule (bottom of Fig 12) as stride-2 rows, with
/// tile origins skewed by `K - KK` in both `J` and `I`.
fn rows_tiled(n: usize, nk: usize, tile: TileDims, mut f: impl FnMut(usize, usize, usize, usize)) {
    let (ti, tj) = (tile.ti, tile.tj);
    let mut jj = 0usize;
    while jj <= n - 2 {
        let mut ii = 0usize;
        while ii <= n - 2 {
            for kk in 0..=nk - 2 {
                for k in [kk + 1, kk] {
                    if !(1..=nk - 2).contains(&k) {
                        continue;
                    }
                    let sh = k - kk; // skew: 1 on the red trip, 0 on black
                    let j_lo = (jj + sh).max(1);
                    let j_hi = (jj + sh + tj - 1).min(n - 2);
                    for j in j_lo..=j_hi {
                        // IStart = II + K - KK, parity-corrected to the
                        // red/black rule; the Fortran `if (IStart.eq.1)
                        // IStart=3` becomes 0 -> 2 in 0-based indexing.
                        let is0 = ii + sh;
                        let mut i = is0 + (kk + j + is0) % 2;
                        if i == 0 {
                            i = 2;
                        }
                        let i_hi = (ii + sh + ti - 1).min(n - 2);
                        if i <= i_hi {
                            f(i, stride2_last(i, i_hi), j, k);
                        }
                    }
                }
            }
            ii += ti;
        }
        jj += tj;
    }
}

/// Walks the update points of `schedule` as stride-2 row segments in
/// **execution order**: `f(i_first, i_last, j, k)` with
/// `i_first..=i_last step 2` all one color. This is the iteration layer
/// of the red-black row engine; [`visit`] is its per-point expansion.
pub fn visit_rows(
    n: usize,
    nk: usize,
    schedule: Schedule,
    f: impl FnMut(usize, usize, usize, usize),
) {
    if n < 3 || nk < 3 {
        return; // no interior points
    }
    match schedule {
        Schedule::Naive => rows_naive(n, nk, f),
        Schedule::Fused => rows_fused(n, nk, f),
        Schedule::Tiled(t) => rows_tiled(n, nk, t, f),
    }
}

/// Walks the update points of `schedule` in **execution order**, calling
/// `f(i, j, k)` once per interior point.
///
/// This is the order the dynamic legality cross-check replays (see
/// `crate::crosscheck`): red points must be visited before every adjacent
/// black point for the in-place update to be correct, which is exactly the
/// lexicographic-positivity condition the static certificate proves.
pub fn visit(n: usize, nk: usize, schedule: Schedule, mut f: impl FnMut(usize, usize, usize)) {
    visit_rows(n, nk, schedule, |i0, i1, j, k| {
        let mut i = i0;
        while i <= i1 {
            f(i, j, k);
            i += 2;
        }
    });
}

/// One full red-black iteration in the chosen schedule, updating `a` in
/// place: `A = C1*A + C2*(sum of 6 face neighbours)`.
///
/// Runs on the row engine: each stride-2 row segment is computed into a
/// scratch buffer from an immutable view of the array, then scattered
/// back. Within one segment every read lands on the opposite color (or on
/// the not-yet-written center), so the split is bitwise identical to the
/// per-point in-place update in [`crate::reference::redblack`].
///
/// # Panics
/// Panics unless the `I`/`J` logical extents are equal (the `K` extent may
/// differ — the paper's evaluation uses `N x N x 30` grids).
pub fn sweep(a: &mut Array3<f64>, c1: f64, c2: f64, schedule: Schedule) {
    sweep_with::<RowEngine>(a, c1, c2, schedule);
}

/// [`sweep`] with the execution backend chosen at runtime (`Auto` probes
/// once per process; see [`crate::backend::resolve`]).
pub fn sweep_backend(a: &mut Array3<f64>, c1: f64, c2: f64, schedule: Schedule, sel: ExecBackend) {
    match backend::resolve(sel, RowKernel::RedBlack) {
        Resolved::Row => sweep_with::<RowEngine>(a, c1, c2, schedule),
        Resolved::Lane => sweep_with::<LaneEngine>(a, c1, c2, schedule),
    }
}

/// [`sweep`] generic over the row-segment execution [`Backend`].
pub fn sweep_with<B: Backend>(a: &mut Array3<f64>, c1: f64, c2: f64, schedule: Schedule) {
    let n = a.ni();
    let nk = a.nk();
    assert!(a.nj() == n, "red-black kernel expects square I/J extents");
    let (di, ps) = (a.di(), a.plane_stride());
    let av = a.as_mut_slice();
    let mut scratch = vec![0.0f64; n / 2 + 1];
    visit_rows(n, nk, schedule, |i0, i1, j, k| {
        let lo = j * di + k * ps + i0;
        let m = (i1 - i0) / 2 + 1;
        {
            let src: &[f64] = av;
            B::redblack_row(
                &mut scratch[..m],
                &src[lo..],
                &src[lo - 1..],
                &src[lo - di..],
                &src[lo + 1..],
                &src[lo + di..],
                &src[lo - ps..],
                &src[lo + ps..],
                c1,
                c2,
            );
        }
        rowexec::scatter_stride2(&mut av[lo..], &scratch[..m]);
    });
    if nk >= 2 && n >= 2 {
        rowexec::note_sweep(
            (n as u64 - 2) * (n as u64 - 2) * (nk as u64 - 2),
            FLOPS_PER_POINT,
        );
    }
}

/// Replays the exact address trace of one iteration (array `A` at byte 0,
/// allocated `di x dj x n`). Per updated point the accesses follow the
/// source expression: centre load, the six neighbour loads, centre store.
/// Each stride-2 row segment of [`visit_rows`] is one [`AccessSink::row`].
pub fn trace<S: AccessSink>(
    n: usize,
    nk: usize,
    di: usize,
    dj: usize,
    schedule: Schedule,
    sink: &mut S,
) {
    assert!(di >= n && dj >= n);
    let ps = di * dj;
    let (di8, ps8) = (di as i64 * 8, ps as i64 * 8);
    let plan = RowPlan::new(
        16,
        [
            Slot::read(0),
            Slot::read(-8),
            Slot::read(-di8),
            Slot::read(8),
            Slot::read(di8),
            Slot::read(-ps8),
            Slot::read(ps8),
            Slot::write(0),
        ],
    );
    visit_rows(n, nk, schedule, |i0, i1, j, k| {
        sink.row(
            &plan,
            ((i0 + j * di + k * ps) * 8) as u64,
            (i1 - i0) / 2 + 1,
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tiling3d_cachesim::CountingSink;
    use tiling3d_grid::fill_random;

    fn grid(n: usize, di: usize, dj: usize, seed: u64) -> Array3<f64> {
        let mut a = Array3::with_padding(n, n, n, di, dj);
        fill_random(&mut a, seed);
        a
    }

    #[test]
    fn every_schedule_updates_each_interior_point_once() {
        let n = 11;
        for sched in [
            Schedule::Naive,
            Schedule::Fused,
            Schedule::Tiled(TileDims::new(4, 3)),
        ] {
            let mut seen = HashSet::new();
            visit(n, n, sched, |i, j, k| {
                assert!(seen.insert((i, j, k)), "{sched:?}: duplicate ({i},{j},{k})");
            });
            assert_eq!(seen.len(), (n - 2).pow(3), "{sched:?}: coverage");
        }
    }

    #[test]
    fn naive_pass_order_is_red_then_black() {
        // First (n-2)^3/2-ish updates must all be red (even Fortran parity
        // = odd 0-based parity sum ... verify via the parity the walker
        // uses: p=0 points have (i+j+k) even in 0-based + formula terms).
        let n = 9;
        let mut phase_one_parity = None;
        let mut count = 0usize;
        visit(n, n, Schedule::Naive, |i, j, k| {
            count += 1;
            let par = (i + j + k) % 2;
            if count == 1 {
                phase_one_parity = Some(par);
            } else if count <= (n - 2).pow(3) / 2 {
                assert_eq!(Some(par), phase_one_parity, "mixed colours in pass one");
            }
        });
    }

    #[test]
    fn fused_matches_naive_bitwise() {
        for n in [8usize, 9, 12, 15] {
            let mut a = grid(n, n, n, 42);
            let mut b = a.clone();
            sweep(&mut a, 0.4, 0.1, Schedule::Naive);
            sweep(&mut b, 0.4, 0.1, Schedule::Fused);
            assert!(a.logical_eq(&b), "n={n}");
        }
    }

    #[test]
    fn tiled_matches_naive_bitwise() {
        for &(n, ti, tj) in &[
            (8usize, 3usize, 3usize),
            (9, 2, 5),
            (12, 4, 4),
            (15, 1, 1),
            (15, 100, 100),
            (13, 5, 2),
        ] {
            let mut a = grid(n, n, n, 7);
            let mut b = a.clone();
            sweep(&mut a, 0.4, 0.1, Schedule::Naive);
            sweep(&mut b, 0.4, 0.1, Schedule::Tiled(TileDims::new(ti, tj)));
            assert!(a.logical_eq(&b), "n={n} tile=({ti},{tj})");
        }
    }

    #[test]
    fn tiled_with_padding_matches_unpadded() {
        let n = 12;
        let mut a = grid(n, n, n, 99);
        let mut b = a.repadded(19, 17);
        sweep(&mut a, 0.3, 0.1, Schedule::Naive);
        sweep(&mut b, 0.3, 0.1, Schedule::Tiled(TileDims::new(5, 3)));
        assert!(a.logical_eq(&b));
    }

    #[test]
    fn red_pass_reads_only_original_blacks() {
        // After only the red half-sweep of the naive schedule, black
        // points are untouched.
        let n = 10;
        let orig = grid(n, n, n, 5);
        let mut a = orig.clone();
        let (di, ps) = (a.di(), a.plane_stride());
        {
            let av = a.as_mut_slice();
            // Red pass only (p = 0).
            for k in 1..=n - 2 {
                for j in 1..=n - 2 {
                    let mut i = 1 + (k + j) % 2;
                    while i <= n - 2 {
                        let idx = i + j * di + k * ps;
                        av[idx] = 0.4 * av[idx]
                            + 0.1
                                * (av[idx - 1]
                                    + av[idx - di]
                                    + av[idx + 1]
                                    + av[idx + di]
                                    + av[idx - ps]
                                    + av[idx + ps]);
                        i += 2;
                    }
                }
            }
        }
        for (i, j, k, v) in orig.iter_logical() {
            let red = (1 + (k + j) % 2) % 2 == i % 2;
            if !red {
                assert_eq!(a.get(i, j, k), v, "black ({i},{j},{k}) was modified");
            }
        }
    }

    #[test]
    fn non_cubic_grid_schedules_agree() {
        let mut a = Array3::with_padding(10, 10, 6, 12, 11);
        fill_random(&mut a, 31);
        let mut b = a.clone();
        let mut c = a.clone();
        sweep(&mut a, 0.4, 0.1, Schedule::Naive);
        sweep(&mut b, 0.4, 0.1, Schedule::Fused);
        sweep(&mut c, 0.4, 0.1, Schedule::Tiled(TileDims::new(3, 4)));
        assert!(a.logical_eq(&b));
        assert!(a.logical_eq(&c));
    }

    #[test]
    fn trace_access_counts() {
        let n = 10;
        let mut c = CountingSink::default();
        trace(n, n, n, n, Schedule::Fused, &mut c);
        let pts = (n as u64 - 2).pow(3);
        assert_eq!(c.reads, 7 * pts);
        assert_eq!(c.writes, pts);
        let mut ct = CountingSink::default();
        trace(n, n, 13, 12, Schedule::Tiled(TileDims::new(3, 4)), &mut ct);
        assert_eq!(ct.reads, 7 * pts);
        assert_eq!(ct.writes, pts);
    }

    #[test]
    fn flops_accounting() {
        assert_eq!(sweep_flops(10, 10), 512 * 8);
        assert_eq!(sweep_flops(10, 6), 8 * 8 * 4 * 8);
    }
}
