//! Explicit-lane row kernels: the compute layer of the lane engine.
//!
//! Each function here is the lane-engine counterpart of a
//! [`rowexec`](crate::rowexec) row kernel, generic over a compile-time
//! lane width `LANES` and unroll factor `UNROLL` (see
//! [`LaneStrategy`](crate::backend::LaneStrategy)). A row segment is
//! processed as `chunks_exact` blocks of `LANES * UNROLL` points, then
//! `chunks_exact` groups of `LANES` points for whatever the blocks left
//! over; each group converts its chunks to `&[f64; LANES]` array
//! references (a safe `try_into`, no `unsafe`), so the compiler sees
//! fixed-width independent lane operations it can lower straight to
//! vector instructions — no autovectorization heuristics involved. Only
//! the final `len % LANES` points run the scalar `rowexec` body
//! verbatim.
//!
//! The contiguous kernels drive the group loops with *zipped*
//! `chunks_exact` iterators rather than indexed slice windows, and the
//! public row kernels are `#[inline(never)]`. Both are load-bearing for
//! performance stability: indexed windows leave per-group bounds checks
//! whose elimination depends on how the surrounding sweep was inlined
//! (the same kernel measured up to 2x slower depending on which crate
//! instantiated it), and keeping the kernels outlined preserves the
//! `noalias` parameter attributes the vectorizer needs.
//!
//! **Bitwise-identity contract.** Lanes run *across* `i`: lane `l`
//! computes point `x + l`'s full expression in exactly the per-point
//! operand/accumulation order of [`reference`](crate::reference) (RESID's
//! ordered `s1`/`s2`/`s3` partial sums are kept as per-lane accumulator
//! arrays fed one stencil term at a time). No reassociation happens
//! *within* a point, so every result bit-matches the row engine and the
//! reference for any `LANES`/`UNROLL` — the property
//! `tests/backend_golden.rs` gates.

use crate::resid::Coeffs;
use crate::rowexec::Rows9;

/// Borrows the `LANES`-wide window of `s` at `x` as an array reference.
#[inline(always)]
fn vl<const LANES: usize>(s: &[f64], x: usize) -> &[f64; LANES] {
    s[x..x + LANES].try_into().expect("lane window in bounds")
}

/// Adds one stencil term (`src` at lane base `x`) into the per-lane
/// accumulators — one *ordered* scalar add per lane, vectorized across
/// lanes only.
#[inline(always)]
fn addl<const LANES: usize>(acc: &mut [f64; LANES], src: &[f64], x: usize) {
    let v = vl::<LANES>(src, x);
    for (a, b) in acc.iter_mut().zip(v) {
        *a += *b;
    }
}

/// Gathers `LANES` stride-2 elements of `src` starting at update index
/// `t0` (element index `2 * t0`) into a lane array.
#[inline(always)]
fn gather2<const LANES: usize>(src: &[f64], t0: usize) -> [f64; LANES] {
    let wnd = &src[2 * t0..2 * t0 + 2 * LANES - 1];
    let mut out = [0.0; LANES];
    for (l, o) in out.iter_mut().enumerate() {
        *o = wnd[2 * l];
    }
    out
}

/// One `LANES`-wide group of the 3D Jacobi body. Every operand arrives
/// as a `chunks_exact` chunk, so the array conversions are
/// statically-true length checks the compiler folds away — the loop body
/// is branchless lane arithmetic regardless of where the caller was
/// instantiated.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn jacobi3d_lane_group<const LANES: usize>(
    dl: &mut [f64],
    w: &[f64],
    e: &[f64],
    n: &[f64],
    s: &[f64],
    d: &[f64],
    u: &[f64],
    c: f64,
) {
    let dv: &mut [f64; LANES] = dl.try_into().expect("chunk is LANES wide");
    let (wv, ev) = (vl::<LANES>(w, 0), vl::<LANES>(e, 0));
    let (nv, sv) = (vl::<LANES>(n, 0), vl::<LANES>(s, 0));
    let (dn, up) = (vl::<LANES>(d, 0), vl::<LANES>(u, 0));
    for (l, out) in dv.iter_mut().enumerate() {
        *out = c * (wv[l] + ev[l] + nv[l] + sv[l] + dn[l] + up[l]);
    }
}

/// Lane form of [`rowexec::jacobi3d_row`](crate::rowexec::jacobi3d_row).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub fn jacobi3d_row<const LANES: usize, const UNROLL: usize>(
    dst: &mut [f64],
    w: &[f64],
    e: &[f64],
    n: &[f64],
    s: &[f64],
    d: &[f64],
    u: &[f64],
    c: f64,
) {
    let len = dst.len();
    let (w, e) = (&w[..len], &e[..len]);
    let (n, s) = (&n[..len], &s[..len]);
    let (d, u) = (&d[..len], &u[..len]);
    let block = LANES * UNROLL;
    let bhead = len - len % block;
    let head = len - len % LANES;
    let (dst_blocks, dst_rest) = dst.split_at_mut(bhead);
    let (dst_mid, dst_tail) = dst_rest.split_at_mut(head - bhead);
    // All three phases are zipped `chunks_exact` streams: no indexed
    // slice windows, hence no bounds checks for the optimizer to hoist
    // (or fail to hoist — indexed windows made codegen quality depend on
    // the instantiation site).
    let zip7 = |d0: &mut [f64], width: usize, lo: usize, hi: usize| {
        // Closure captures the pre-sliced operands; returns nothing —
        // it drives the group body over one dst region.
        d0.chunks_exact_mut(width)
            .zip(w[lo..hi].chunks_exact(width))
            .zip(e[lo..hi].chunks_exact(width))
            .zip(n[lo..hi].chunks_exact(width))
            .zip(s[lo..hi].chunks_exact(width))
            .zip(d[lo..hi].chunks_exact(width))
            .zip(u[lo..hi].chunks_exact(width))
            .for_each(|((((((dl, wl), el), nl), sl), dnl), ul)| {
                dl.chunks_exact_mut(LANES)
                    .zip(wl.chunks_exact(LANES))
                    .zip(el.chunks_exact(LANES))
                    .zip(nl.chunks_exact(LANES))
                    .zip(sl.chunks_exact(LANES))
                    .zip(dnl.chunks_exact(LANES))
                    .zip(ul.chunks_exact(LANES))
                    .for_each(|((((((dg, wg), eg), ng), sg), dng), ug)| {
                        jacobi3d_lane_group::<LANES>(dg, wg, eg, ng, sg, dng, ug, c);
                    });
            });
    };
    zip7(dst_blocks, block, 0, bhead);
    zip7(dst_mid, LANES, bhead, head);
    dst_tail
        .iter_mut()
        .zip(&w[head..])
        .zip(&e[head..])
        .zip(&n[head..])
        .zip(&s[head..])
        .zip(&d[head..])
        .zip(&u[head..])
        .for_each(|((((((out, wv), ev), nv), sv), dn), up)| {
            *out = c * (wv + ev + nv + sv + dn + up);
        });
}

/// One `LANES`-wide group of the 2D Jacobi body (see
/// [`jacobi3d_lane_group`] for why operands are exact chunks).
#[inline(always)]
fn jacobi2d_lane_group<const LANES: usize>(
    dl: &mut [f64],
    w: &[f64],
    e: &[f64],
    n: &[f64],
    s: &[f64],
    c: f64,
) {
    let dv: &mut [f64; LANES] = dl.try_into().expect("chunk is LANES wide");
    let (wv, ev) = (vl::<LANES>(w, 0), vl::<LANES>(e, 0));
    let (nv, sv) = (vl::<LANES>(n, 0), vl::<LANES>(s, 0));
    for (l, out) in dv.iter_mut().enumerate() {
        *out = c * (wv[l] + ev[l] + nv[l] + sv[l]);
    }
}

/// Lane form of [`rowexec::jacobi2d_row`](crate::rowexec::jacobi2d_row).
#[inline(never)]
pub fn jacobi2d_row<const LANES: usize, const UNROLL: usize>(
    dst: &mut [f64],
    w: &[f64],
    e: &[f64],
    n: &[f64],
    s: &[f64],
    c: f64,
) {
    let len = dst.len();
    let (w, e, n, s) = (&w[..len], &e[..len], &n[..len], &s[..len]);
    let block = LANES * UNROLL;
    let bhead = len - len % block;
    let head = len - len % LANES;
    let (dst_blocks, dst_rest) = dst.split_at_mut(bhead);
    let (dst_mid, dst_tail) = dst_rest.split_at_mut(head - bhead);
    let zip5 = |d0: &mut [f64], width: usize, lo: usize, hi: usize| {
        d0.chunks_exact_mut(width)
            .zip(w[lo..hi].chunks_exact(width))
            .zip(e[lo..hi].chunks_exact(width))
            .zip(n[lo..hi].chunks_exact(width))
            .zip(s[lo..hi].chunks_exact(width))
            .for_each(|((((dl, wl), el), nl), sl)| {
                dl.chunks_exact_mut(LANES)
                    .zip(wl.chunks_exact(LANES))
                    .zip(el.chunks_exact(LANES))
                    .zip(nl.chunks_exact(LANES))
                    .zip(sl.chunks_exact(LANES))
                    .for_each(|((((dg, wg), eg), ng), sg)| {
                        jacobi2d_lane_group::<LANES>(dg, wg, eg, ng, sg, c);
                    });
            });
    };
    zip5(dst_blocks, block, 0, bhead);
    zip5(dst_mid, LANES, bhead, head);
    dst_tail
        .iter_mut()
        .zip(&w[head..])
        .zip(&e[head..])
        .zip(&n[head..])
        .zip(&s[head..])
        .for_each(|((((out, wv), ev), nv), sv)| {
            *out = c * (wv + ev + nv + sv);
        });
}

/// Lane form of [`rowexec::resid_row`](crate::rowexec::resid_row).
///
/// The three shell sums are per-lane accumulator arrays fed one term at
/// a time (the private `addl` helper), which preserves the reference
/// accumulation order within each point while running `LANES` points in
/// parallel.
#[inline(never)]
pub fn resid_row<const LANES: usize, const UNROLL: usize>(
    dst: &mut [f64],
    v: &[f64],
    rows: Rows9<'_>,
    c: &Coeffs,
) {
    let len = dst.len();
    if len == 0 {
        return;
    }
    let v = &v[..len];
    let h = len + 2;
    let rows9 = rows.map(|r| &r[..h]);
    let block = LANES * UNROLL;
    let bhead = len - len % block;
    let head = len - len % LANES;
    let (dst_blocks, dst_rest) = dst.split_at_mut(bhead);
    let (dst_mid, dst_tail) = dst_rest.split_at_mut(head - bhead);
    for (bi, db) in dst_blocks.chunks_exact_mut(block).enumerate() {
        let x0 = bi * block;
        for (ui, dl) in db.chunks_exact_mut(LANES).enumerate() {
            resid_lane_group::<LANES>(dl, x0 + ui * LANES, v, &rows9, c);
        }
    }
    for (ui, dl) in dst_mid.chunks_exact_mut(LANES).enumerate() {
        resid_lane_group::<LANES>(dl, bhead + ui * LANES, v, &rows9, c);
    }
    let [nd, cd, sd, nc, cc, sc, nu, cu, su] = rows9;
    for (t, out) in dst_tail.iter_mut().enumerate() {
        let x = head + t;
        let mut s1 = 0.0;
        s1 += cc[x];
        s1 += cc[x + 2];
        s1 += nc[x + 1];
        s1 += sc[x + 1];
        s1 += cd[x + 1];
        s1 += cu[x + 1];
        let mut s2 = 0.0;
        s2 += nc[x];
        s2 += nc[x + 2];
        s2 += sc[x];
        s2 += sc[x + 2];
        s2 += nd[x + 1];
        s2 += sd[x + 1];
        s2 += nu[x + 1];
        s2 += su[x + 1];
        s2 += cd[x];
        s2 += cu[x];
        s2 += cd[x + 2];
        s2 += cu[x + 2];
        let mut s3 = 0.0;
        s3 += nd[x];
        s3 += nd[x + 2];
        s3 += sd[x];
        s3 += sd[x + 2];
        s3 += nu[x];
        s3 += nu[x + 2];
        s3 += su[x];
        s3 += su[x + 2];
        *out = v[x] - c.a0 * cc[x + 1] - c.a1 * s1 - c.a2 * s2 - c.a3 * s3;
    }
}

/// One `LANES`-wide group of the RESID body: the three ordered shell
/// sums as per-lane accumulator arrays, one stencil term at a time.
///
/// Each of the nine rows is re-borrowed once as a `LANES + 2` window at
/// the group base, so every stencil term is a *constant-offset*
/// sub-window of an already-checked slice — one bounds check per row,
/// not one per term.
#[inline(always)]
fn resid_lane_group<const LANES: usize>(
    dl: &mut [f64],
    x: usize,
    v: &[f64],
    rows: &Rows9<'_>,
    c: &Coeffs,
) {
    let [nd, cd, sd, nc, cc, sc, nu, cu, su] = rows.map(|r| &r[x..x + LANES + 2]);
    let mut s1 = [0.0; LANES];
    addl(&mut s1, cc, 0);
    addl(&mut s1, cc, 2);
    addl(&mut s1, nc, 1);
    addl(&mut s1, sc, 1);
    addl(&mut s1, cd, 1);
    addl(&mut s1, cu, 1);
    let mut s2 = [0.0; LANES];
    addl(&mut s2, nc, 0);
    addl(&mut s2, nc, 2);
    addl(&mut s2, sc, 0);
    addl(&mut s2, sc, 2);
    addl(&mut s2, nd, 1);
    addl(&mut s2, sd, 1);
    addl(&mut s2, nu, 1);
    addl(&mut s2, su, 1);
    addl(&mut s2, cd, 0);
    addl(&mut s2, cu, 0);
    addl(&mut s2, cd, 2);
    addl(&mut s2, cu, 2);
    let mut s3 = [0.0; LANES];
    addl(&mut s3, nd, 0);
    addl(&mut s3, nd, 2);
    addl(&mut s3, sd, 0);
    addl(&mut s3, sd, 2);
    addl(&mut s3, nu, 0);
    addl(&mut s3, nu, 2);
    addl(&mut s3, su, 0);
    addl(&mut s3, su, 2);
    let dv: &mut [f64; LANES] = dl.try_into().expect("chunk is LANES wide");
    let vv = vl::<LANES>(v, x);
    let cv = vl::<LANES>(cc, 1);
    for (l, out) in dv.iter_mut().enumerate() {
        *out = vv[l] - c.a0 * cv[l] - c.a1 * s1[l] - c.a2 * s2[l] - c.a3 * s3[l];
    }
}

/// Lane form of [`rowexec::redblack_row`](crate::rowexec::redblack_row):
/// stride-2 parity rows are gathered into lane arrays (the private
/// `gather2` helper), combined, and written to the contiguous scratch —
/// the caller's scatter is unchanged.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub fn redblack_row<const LANES: usize, const UNROLL: usize>(
    scratch: &mut [f64],
    ctr: &[f64],
    w: &[f64],
    n: &[f64],
    e: &[f64],
    s: &[f64],
    d: &[f64],
    u: &[f64],
    c1: f64,
    c2: f64,
) {
    let m = scratch.len();
    if m == 0 {
        return;
    }
    let seg = 2 * m - 1;
    let (ctr, w, n) = (&ctr[..seg], &w[..seg], &n[..seg]);
    let (e, s) = (&e[..seg], &s[..seg]);
    let (d, u) = (&d[..seg], &u[..seg]);
    let block = LANES * UNROLL;
    let bhead = m - m % block;
    let head = m - m % LANES;
    let (sc_blocks, sc_rest) = scratch.split_at_mut(bhead);
    let (sc_mid, sc_tail) = sc_rest.split_at_mut(head - bhead);
    for (bi, sb) in sc_blocks.chunks_exact_mut(block).enumerate() {
        let t0b = bi * block;
        for (ui, sl) in sb.chunks_exact_mut(LANES).enumerate() {
            redblack_lane_group::<LANES>(sl, t0b + ui * LANES, ctr, w, n, e, s, d, u, c1, c2);
        }
    }
    for (ui, sl) in sc_mid.chunks_exact_mut(LANES).enumerate() {
        redblack_lane_group::<LANES>(sl, bhead + ui * LANES, ctr, w, n, e, s, d, u, c1, c2);
    }
    for (t, slot) in sc_tail.iter_mut().enumerate() {
        let x = 2 * (head + t);
        *slot = c1 * ctr[x] + c2 * (w[x] + n[x] + e[x] + s[x] + d[x] + u[x]);
    }
}

/// One `LANES`-wide group of the 3D red-black body on stride-2 rows.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn redblack_lane_group<const LANES: usize>(
    sl: &mut [f64],
    t0: usize,
    ctr: &[f64],
    w: &[f64],
    n: &[f64],
    e: &[f64],
    s: &[f64],
    d: &[f64],
    u: &[f64],
    c1: f64,
    c2: f64,
) {
    let cv = gather2::<LANES>(ctr, t0);
    let wv = gather2::<LANES>(w, t0);
    let nv = gather2::<LANES>(n, t0);
    let ev = gather2::<LANES>(e, t0);
    let sv = gather2::<LANES>(s, t0);
    let dn = gather2::<LANES>(d, t0);
    let up = gather2::<LANES>(u, t0);
    let out: &mut [f64; LANES] = sl.try_into().expect("chunk is LANES wide");
    for (l, o) in out.iter_mut().enumerate() {
        *o = c1 * cv[l] + c2 * (wv[l] + nv[l] + ev[l] + sv[l] + dn[l] + up[l]);
    }
}

/// One `LANES`-wide group of the 2D red-black body on stride-2 rows.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn redblack2d_lane_group<const LANES: usize>(
    sl: &mut [f64],
    t0: usize,
    ctr: &[f64],
    w: &[f64],
    n: &[f64],
    e: &[f64],
    s: &[f64],
    c1: f64,
    c2: f64,
) {
    let cv = gather2::<LANES>(ctr, t0);
    let wv = gather2::<LANES>(w, t0);
    let nv = gather2::<LANES>(n, t0);
    let ev = gather2::<LANES>(e, t0);
    let sv = gather2::<LANES>(s, t0);
    let out: &mut [f64; LANES] = sl.try_into().expect("chunk is LANES wide");
    for (l, o) in out.iter_mut().enumerate() {
        *o = c1 * cv[l] + c2 * (wv[l] + nv[l] + ev[l] + sv[l]);
    }
}

/// Lane form of
/// [`rowexec::redblack2d_row`](crate::rowexec::redblack2d_row).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub fn redblack2d_row<const LANES: usize, const UNROLL: usize>(
    scratch: &mut [f64],
    ctr: &[f64],
    w: &[f64],
    n: &[f64],
    e: &[f64],
    s: &[f64],
    c1: f64,
    c2: f64,
) {
    let m = scratch.len();
    if m == 0 {
        return;
    }
    let seg = 2 * m - 1;
    let (ctr, w) = (&ctr[..seg], &w[..seg]);
    let (n, e, s) = (&n[..seg], &e[..seg], &s[..seg]);
    let block = LANES * UNROLL;
    let bhead = m - m % block;
    let head = m - m % LANES;
    let (sc_blocks, sc_rest) = scratch.split_at_mut(bhead);
    let (sc_mid, sc_tail) = sc_rest.split_at_mut(head - bhead);
    for (bi, sb) in sc_blocks.chunks_exact_mut(block).enumerate() {
        let t0b = bi * block;
        for (ui, sl) in sb.chunks_exact_mut(LANES).enumerate() {
            redblack2d_lane_group::<LANES>(sl, t0b + ui * LANES, ctr, w, n, e, s, c1, c2);
        }
    }
    for (ui, sl) in sc_mid.chunks_exact_mut(LANES).enumerate() {
        redblack2d_lane_group::<LANES>(sl, bhead + ui * LANES, ctr, w, n, e, s, c1, c2);
    }
    for (t, slot) in sc_tail.iter_mut().enumerate() {
        let x = 2 * (head + t);
        *slot = c1 * ctr[x] + c2 * (w[x] + n[x] + e[x] + s[x]);
    }
}

#[cfg(test)]
mod tests {
    use crate::rowexec;

    fn data(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 997.0 - 0.5
            })
            .collect()
    }

    #[test]
    fn jacobi3d_lane_matches_row_for_every_remainder() {
        let src = data(4 * 80 + 16, 3);
        for len in [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65] {
            let mut row = vec![0.0; len];
            let mut lane = vec![0.0; len];
            rowexec::jacobi3d_row(
                &mut row,
                &src[0..],
                &src[1..],
                &src[2..],
                &src[3..],
                &src[4..],
                &src[5..],
                0.31,
            );
            super::jacobi3d_row::<8, 4>(
                &mut lane,
                &src[0..],
                &src[1..],
                &src[2..],
                &src[3..],
                &src[4..],
                &src[5..],
                0.31,
            );
            assert_eq!(
                row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                lane.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "len={len}"
            );
        }
    }

    #[test]
    fn redblack_lane_matches_row_for_every_remainder() {
        let src = data(600, 9);
        for m in [0usize, 1, 2, 5, 8, 9, 16, 17, 33, 64, 65] {
            let mut row = vec![0.0; m];
            let mut lane = vec![0.0; m];
            rowexec::redblack_row(
                &mut row,
                &src[0..],
                &src[1..],
                &src[2..],
                &src[3..],
                &src[4..],
                &src[5..],
                &src[6..],
                0.4,
                0.1,
            );
            super::redblack_row::<4, 2>(
                &mut lane,
                &src[0..],
                &src[1..],
                &src[2..],
                &src[3..],
                &src[4..],
                &src[5..],
                &src[6..],
                0.4,
                0.1,
            );
            assert_eq!(
                row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                lane.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "m={m}"
            );
        }
    }
}
