//! The RESID kernel of SPEC/NAS MGRID (Fig 13): a 27-point residual.
//!
//! ```text
//! R(I1,I2,I3) = V(I1,I2,I3) - A0*U(centre)
//!                           - A1*(sum of  6 face   neighbours)
//!                           - A2*(sum of 12 edge   neighbours)
//!                           - A3*(sum of  8 corner neighbours)
//! ```
//!
//! RESID is the paper's "realistic application kernel": MGRID spends ~60%
//! of its time here, the stencil is a full 27-point box, and a second input
//! array `V` introduces the cross-interference of Section 3.5 (which the
//! paper simply tolerates — one `V` stream against 27-fold `U` reuse).
//! Tiling follows Fig 13's right column: tile `I2`/`I1`, leave `I3` intact.

use tiling3d_cachesim::{AccessSink, RowPlan, Slot};
use tiling3d_grid::Array3;
use tiling3d_loopnest::{for_each_rows, for_each_tiled_rows, IterSpace, TileDims};

use crate::backend::{self, Backend, ExecBackend, LaneEngine, Resolved, RowEngine, RowKernel};
use crate::rowexec;

/// FLOPs per interior point: 26 adds within/between neighbour groups plus
/// the `V` subtraction and 4 coefficient multiplies — 31 total. (A1 is kept
/// in the expression even when numerically zero, like the benchmark's
/// reference source.)
pub const FLOPS_PER_POINT: u64 = 31;

/// Stencil coefficients `(A0, A1, A2, A3)` for centre / faces / edges /
/// corners.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coeffs {
    /// Centre weight.
    pub a0: f64,
    /// Face weight (the official MG operator uses 0 here — kept in the
    /// computation regardless, as the benchmark source does).
    pub a1: f64,
    /// Edge weight.
    pub a2: f64,
    /// Corner weight.
    pub a3: f64,
}

impl Coeffs {
    /// The NAS/SPEC MGRID `A` operator: `(-8/3, 0, 1/6, 1/12)`.
    pub const MGRID_A: Coeffs = Coeffs {
        a0: -8.0 / 3.0,
        a1: 0.0,
        a2: 1.0 / 6.0,
        a3: 1.0 / 12.0,
    };
}

/// FLOPs of one sweep over the interior of an `ni x nj x nk` grid.
pub fn sweep_flops(ni: usize, nj: usize, nk: usize) -> u64 {
    IterSpace::interior(ni, nj, nk).points() * FLOPS_PER_POINT
}

/// The 6 face offsets in Fig 13's source order, as linear-index deltas.
#[inline(always)]
pub(crate) fn faces(di: i64, ps: i64) -> [i64; 6] {
    [-1, 1, -di, di, -ps, ps]
}

/// The 12 edge offsets (|d1|+|d2|+|d3| = 2) in Fig 13's source order.
#[inline(always)]
pub(crate) fn edges(di: i64, ps: i64) -> [i64; 12] {
    [
        -1 - di,
        1 - di,
        -1 + di,
        1 + di,
        -di - ps,
        di - ps,
        -di + ps,
        di + ps,
        -1 - ps,
        -1 + ps,
        1 - ps,
        1 + ps,
    ]
}

/// The 8 corner offsets (|d1|+|d2|+|d3| = 3) in Fig 13's source order.
#[inline(always)]
pub(crate) fn corners(di: i64, ps: i64) -> [i64; 8] {
    [
        -1 - di - ps,
        1 - di - ps,
        -1 + di - ps,
        1 + di - ps,
        -1 - di + ps,
        1 - di + ps,
        -1 + di + ps,
        1 + di + ps,
    ]
}

/// One RESID sweep, optionally tiled (`Some(tile)` = the Fig 13 right-hand
/// schedule, tiling `I2`/`I1` and leaving `I3` untouched).
///
/// Runs on the row engine: the 27-point box becomes nine overlapping
/// unit-stride `U` rows per output row (see [`rowexec::resid_row`]), with
/// accumulation order identical to [`crate::reference::resid`] — results
/// are bitwise identical.
///
/// # Panics
/// Panics if the three arrays differ in logical or allocated extents.
pub fn sweep(
    r: &mut Array3<f64>,
    u: &Array3<f64>,
    v: &Array3<f64>,
    coeffs: &Coeffs,
    tile: Option<TileDims>,
) {
    sweep_with::<RowEngine>(r, u, v, coeffs, tile);
}

/// One sweep on the backend `sel` resolves to — the runtime-dispatch
/// form of [`sweep_with`].
pub fn sweep_backend(
    r: &mut Array3<f64>,
    u: &Array3<f64>,
    v: &Array3<f64>,
    coeffs: &Coeffs,
    tile: Option<TileDims>,
    sel: ExecBackend,
) {
    match backend::resolve(sel, RowKernel::Resid) {
        Resolved::Row => sweep_with::<RowEngine>(r, u, v, coeffs, tile),
        Resolved::Lane => sweep_with::<LaneEngine>(r, u, v, coeffs, tile),
    }
}

/// [`sweep`] on an explicit execution backend `B`.
pub fn sweep_with<B: Backend>(
    r: &mut Array3<f64>,
    u: &Array3<f64>,
    v: &Array3<f64>,
    coeffs: &Coeffs,
    tile: Option<TileDims>,
) {
    for pair in [(r.ni(), u.ni()), (r.di(), u.di()), (r.dj(), u.dj())] {
        assert_eq!(pair.0, pair.1, "R and U extents differ");
    }
    for pair in [(u.ni(), v.ni()), (u.di(), v.di()), (u.dj(), v.dj())] {
        assert_eq!(pair.0, pair.1, "U and V extents differ");
    }
    let (di, ps) = (u.di(), u.plane_stride());
    let space = IterSpace::interior(u.ni(), u.nj(), u.nk());
    let rv = r.as_mut_slice();
    let (uv, vv) = (u.as_slice(), v.as_slice());
    let row = |i0: usize, i1: usize, j: usize, k: usize| {
        let lo = j * di + k * ps + i0;
        let len = i1 - i0 + 1;
        let h = lo - 1; // halo start: one element left of the row
        let rows: rowexec::Rows9 = [
            &uv[h - di - ps..],
            &uv[h - ps..],
            &uv[h + di - ps..],
            &uv[h - di..],
            &uv[h..],
            &uv[h + di..],
            &uv[h - di + ps..],
            &uv[h + ps..],
            &uv[h + di + ps..],
        ];
        B::resid_row(&mut rv[lo..lo + len], &vv[lo..], rows, coeffs);
    };
    match tile {
        None => for_each_rows(space, row),
        Some(t) => for_each_tiled_rows(space, t, row),
    }
    rowexec::note_sweep(space.points(), FLOPS_PER_POINT);
}

/// Replays the exact address trace of one sweep. Layout: `R` at byte 0,
/// then `U`, then `V`, consecutively allocated (`di x dj x nk` each).
/// Per point: 27 `U` loads in source order, the `V` load, the `R` store.
/// Each row segment of the schedule compute walks is one
/// [`AccessSink::row`].
pub fn trace<S: AccessSink>(
    ni: usize,
    nj: usize,
    nk: usize,
    di: usize,
    dj: usize,
    tile: Option<TileDims>,
    sink: &mut S,
) {
    let bytes = (di * dj * nk * 8) as u64;
    trace_at(ni, nj, nk, di, dj, tile, [0, bytes, 2 * bytes], sink);
}

/// Like [`trace`] but with explicit byte base addresses `[R, U, V]` for
/// inter-variable padding experiments (Section 3.5).
#[allow(clippy::too_many_arguments)]
pub fn trace_at<S: AccessSink>(
    ni: usize,
    nj: usize,
    nk: usize,
    di: usize,
    dj: usize,
    tile: Option<TileDims>,
    bases: [u64; 3],
    sink: &mut S,
) {
    assert!(di >= ni && dj >= nj);
    if ni < 3 || nj < 3 || nk < 3 {
        return; // no interior points
    }
    let ps = di * dj;
    let [r_base, u_base, v_base] = bases.map(|b| b as i64);
    // Slot offsets are from a point's in-array byte offset `8 * idx`: the
    // 27 `U` loads in source order (centre, faces, edges, corners), the
    // `V` load, the `R` store.
    let (dii, psi) = (di as i64, ps as i64);
    let u = |off: i64| Slot::read(u_base + off * 8);
    let plan = RowPlan::new(
        8,
        std::iter::once(u(0))
            .chain(faces(dii, psi).map(u))
            .chain(edges(dii, psi).map(u))
            .chain(corners(dii, psi).map(u))
            .chain([Slot::read(v_base), Slot::write(r_base)]),
    );
    let row = |i0: usize, i1: usize, j: usize, k: usize| {
        sink.row(&plan, ((i0 + j * di + k * ps) * 8) as u64, i1 - i0 + 1);
    };
    let space = IterSpace::interior(ni, nj, nk);
    match tile {
        None => for_each_rows(space, row),
        Some(t) => for_each_tiled_rows(space, t, row),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_cachesim::CountingSink;
    use tiling3d_grid::{fill_linear3, fill_random};

    fn arrays(n: usize, di: usize, dj: usize) -> (Array3<f64>, Array3<f64>, Array3<f64>) {
        let r = Array3::with_padding(n, n, n, di, dj);
        let mut u = Array3::with_padding(n, n, n, di, dj);
        let mut v = Array3::with_padding(n, n, n, di, dj);
        fill_random(&mut u, 11);
        fill_random(&mut v, 22);
        (r, u, v)
    }

    #[test]
    fn offset_tables_partition_the_27_point_box() {
        use std::collections::HashSet;
        let (di, ps) = (100i64, 100 * 100i64);
        let mut all = HashSet::new();
        all.insert(0i64);
        for o in faces(di, ps)
            .iter()
            .chain(&edges(di, ps))
            .chain(&corners(di, ps))
        {
            assert!(all.insert(*o), "duplicate offset {o}");
        }
        assert_eq!(all.len(), 27);
    }

    #[test]
    fn affine_field_oracle() {
        // For an affine U each neighbour group sums to (count x centre),
        // so R = V - (A0 + 6*A1 + 12*A2 + 8*A3) * U(centre).
        let n = 8;
        let (mut r, mut u, mut v) = arrays(n, n, n);
        fill_linear3(&mut u, 1.0, 2.0, -1.5, 0.25);
        fill_linear3(&mut v, 0.0, 0.0, 0.0, 3.0);
        let c = Coeffs {
            a0: -2.0,
            a1: 0.5,
            a2: 0.25,
            a3: 0.125,
        };
        sweep(&mut r, &u, &v, &c, None);
        let w = c.a0 + 6.0 * c.a1 + 12.0 * c.a2 + 8.0 * c.a3;
        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    let expect = 3.0 - w * u.get(i, j, k);
                    assert!((r.get(i, j, k) - expect).abs() < 1e-9, "({i},{j},{k})");
                }
            }
        }
    }

    #[test]
    fn mgrid_coeffs_annihilate_constants() {
        // A0 + 12*A2 + 8*A3 = -8/3 + 2 + 2/3 = 0: the MG operator kills
        // constant fields, so R = V exactly.
        let n = 7;
        let (mut r, mut u, mut v) = arrays(n, n, n);
        u.fill(5.0);
        fill_random(&mut v, 3);
        sweep(&mut r, &u, &v, &Coeffs::MGRID_A, None);
        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    assert!((r.get(i, j, k) - v.get(i, j, k)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn tiled_equals_untiled_bitwise() {
        for &(n, di, dj, ti, tj) in &[
            (9usize, 9usize, 9usize, 3usize, 3usize),
            (12, 15, 13, 5, 2),
            (10, 10, 10, 1, 1),
        ] {
            let (mut r1, u, v) = arrays(n, di, dj);
            let mut r2 = r1.clone();
            sweep(&mut r1, &u, &v, &Coeffs::MGRID_A, None);
            sweep(
                &mut r2,
                &u,
                &v,
                &Coeffs::MGRID_A,
                Some(TileDims::new(ti, tj)),
            );
            assert!(r1.logical_eq(&r2), "n={n} tile=({ti},{tj})");
        }
    }

    #[test]
    fn trace_emission_order_matches_offset_tables() {
        // The hand-batched body must replay byte-for-byte the stream the
        // offset-table loops produced before runs were introduced.
        struct Collect(Vec<(bool, u64)>);
        impl AccessSink for Collect {
            fn read(&mut self, a: u64) {
                self.0.push((false, a));
            }
            fn write(&mut self, a: u64) {
                self.0.push((true, a));
            }
        }
        let (n, di, dj) = (7usize, 9usize, 8usize);
        let mut got = Collect(Vec::new());
        trace(n, n, n, di, dj, None, &mut got);

        let ps = di * dj;
        let bytes = (di * dj * n * 8) as u64;
        let (dii, psi) = (di as i64, ps as i64);
        let mut want = Vec::new();
        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    let idx = (i + j * di + k * ps) as i64;
                    let u = |off: i64| bytes + ((idx + off) * 8) as u64;
                    want.push((false, u(0)));
                    for o in faces(dii, psi)
                        .iter()
                        .chain(&edges(dii, psi))
                        .chain(&corners(dii, psi))
                    {
                        want.push((false, u(*o)));
                    }
                    want.push((false, 2 * bytes + (idx * 8) as u64));
                    want.push((true, (idx * 8) as u64));
                }
            }
        }
        assert_eq!(got.0, want);
    }

    #[test]
    fn trace_counts_match_stencil_arity() {
        let n = 9;
        let mut c = CountingSink::default();
        trace(n, n, n, n, n, None, &mut c);
        let pts = (n as u64 - 2).pow(3);
        assert_eq!(c.reads, 28 * pts); // 27 U + 1 V
        assert_eq!(c.writes, pts);
        let mut ct = CountingSink::default();
        trace(n, n, n, 11, 12, Some(TileDims::new(2, 4)), &mut ct);
        assert_eq!(ct.reads, 28 * pts);
        assert_eq!(ct.writes, pts);
    }

    #[test]
    fn flops_accounting() {
        assert_eq!(sweep_flops(10, 10, 10), 512 * 31);
    }
}
