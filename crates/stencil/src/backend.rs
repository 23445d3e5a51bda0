//! The execution-backend layer: *how* a certified plan's row segments
//! run, abstracted from *which* rows run in *what order*.
//!
//! Every sweep in this crate decomposes its (possibly tiled, skewed, or
//! time-blocked) schedule into row segments and hands each one to a
//! [`Backend`] — a compile-time strategy type with one associated
//! function per row kernel. Two backends exist:
//!
//! * [`RowEngine`] — the production path ([`rowexec`]): pre-sliced
//!   operand rows the compiler autovectorizes. Every row-engine entry
//!   (`sweep`, `jacobi3d_sweep`, `jacobi_time_tiled`, ...) runs on it.
//! * [`LaneStrategy`]`<LANES, UNROLL>` — the explicit-lane path
//!   ([`laneexec`]): each unit-stride segment processed as safe chunked
//!   `[f64; LANES]` blocks with a compile-time lane width and unroll
//!   factor. [`LaneEngine`] is the tuned default instantiation.
//!
//! Both are **bitwise identical** to [`reference`](crate::reference) for
//! every kernel, schedule, size, padding and thread count — the lane
//! kernels vectorize across `i` and keep the reference accumulation
//! order within each point (`tests/backend_golden.rs` is the gate). The
//! lane kernels share no code with [`rowexec`], so the lane engine serves
//! as an independent test oracle for the row engine. Each compute family
//! has two entries with the same arguments: the row-engine `X(..)` and
//! the generic `X_with::<B>(..)`. The only runtime choice of engine is
//! [`ExecBackend`] (re-exported from `tiling3d_core::api`), taken by
//! `Kernel::run_with` and `Kernel::run_parallel_with`.

pub use tiling3d_core::api::ExecBackend;

use crate::laneexec;
use crate::resid::Coeffs;
use crate::rowexec::{self, Rows9};

/// One execution backend: the five row kernels every schedule in this
/// crate is built from, as associated functions so dispatch is static
/// and the row loops monomorphize per backend.
///
/// Implementations must be bitwise identical to
/// [`reference`](crate::reference) — same per-point expression, same
/// operand and accumulation order within each point.
#[allow(clippy::too_many_arguments)]
pub trait Backend {
    /// Backend name as reported in spans and bench rows.
    const NAME: &'static str;

    /// See [`rowexec::jacobi3d_row`].
    fn jacobi3d_row(
        dst: &mut [f64],
        w: &[f64],
        e: &[f64],
        n: &[f64],
        s: &[f64],
        d: &[f64],
        u: &[f64],
        c: f64,
    );

    /// See [`rowexec::jacobi2d_row`].
    fn jacobi2d_row(dst: &mut [f64], w: &[f64], e: &[f64], n: &[f64], s: &[f64], c: f64);

    /// See [`rowexec::resid_row`].
    fn resid_row(dst: &mut [f64], v: &[f64], rows: Rows9<'_>, c: &Coeffs);

    /// See [`rowexec::redblack_row`].
    fn redblack_row(
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
    );

    /// See [`rowexec::redblack2d_row`].
    fn redblack2d_row(
        scratch: &mut [f64],
        ctr: &[f64],
        w: &[f64],
        n: &[f64],
        e: &[f64],
        s: &[f64],
        c1: f64,
        c2: f64,
    );
}

/// The autovectorized row-segment engine — delegates to
/// [`rowexec`] unchanged.
#[derive(Clone, Copy, Debug, Default)]
pub struct RowEngine;

impl Backend for RowEngine {
    const NAME: &'static str = "row";

    #[inline(always)]
    fn jacobi3d_row(
        dst: &mut [f64],
        w: &[f64],
        e: &[f64],
        n: &[f64],
        s: &[f64],
        d: &[f64],
        u: &[f64],
        c: f64,
    ) {
        rowexec::jacobi3d_row(dst, w, e, n, s, d, u, c);
    }

    #[inline(always)]
    fn jacobi2d_row(dst: &mut [f64], w: &[f64], e: &[f64], n: &[f64], s: &[f64], c: f64) {
        rowexec::jacobi2d_row(dst, w, e, n, s, c);
    }

    #[inline(always)]
    fn resid_row(dst: &mut [f64], v: &[f64], rows: Rows9<'_>, c: &Coeffs) {
        rowexec::resid_row(dst, v, rows, c);
    }

    #[inline(always)]
    fn redblack_row(
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
        rowexec::redblack_row(scratch, ctr, w, n, e, s, d, u, c1, c2);
    }

    #[inline(always)]
    fn redblack2d_row(
        scratch: &mut [f64],
        ctr: &[f64],
        w: &[f64],
        n: &[f64],
        e: &[f64],
        s: &[f64],
        c1: f64,
        c2: f64,
    ) {
        rowexec::redblack2d_row(scratch, ctr, w, n, e, s, c1, c2);
    }
}

/// The explicit-lane engine with compile-time lane width and unroll
/// factor (microhh `TilingStrategy`-style) — delegates to
/// [`laneexec`]. Both parameters must be nonzero.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneStrategy<const LANES: usize, const UNROLL: usize>;

impl<const LANES: usize, const UNROLL: usize> Backend for LaneStrategy<LANES, UNROLL> {
    const NAME: &'static str = "lane";

    #[inline(always)]
    fn jacobi3d_row(
        dst: &mut [f64],
        w: &[f64],
        e: &[f64],
        n: &[f64],
        s: &[f64],
        d: &[f64],
        u: &[f64],
        c: f64,
    ) {
        laneexec::jacobi3d_row::<LANES, UNROLL>(dst, w, e, n, s, d, u, c);
    }

    #[inline(always)]
    fn jacobi2d_row(dst: &mut [f64], w: &[f64], e: &[f64], n: &[f64], s: &[f64], c: f64) {
        laneexec::jacobi2d_row::<LANES, UNROLL>(dst, w, e, n, s, c);
    }

    #[inline(always)]
    fn resid_row(dst: &mut [f64], v: &[f64], rows: Rows9<'_>, c: &Coeffs) {
        laneexec::resid_row::<LANES, UNROLL>(dst, v, rows, c);
    }

    #[inline(always)]
    fn redblack_row(
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
        laneexec::redblack_row::<LANES, UNROLL>(scratch, ctr, w, n, e, s, d, u, c1, c2);
    }

    #[inline(always)]
    fn redblack2d_row(
        scratch: &mut [f64],
        ctr: &[f64],
        w: &[f64],
        n: &[f64],
        e: &[f64],
        s: &[f64],
        c1: f64,
        c2: f64,
    ) {
        laneexec::redblack2d_row::<LANES, UNROLL>(scratch, ctr, w, n, e, s, c1, c2);
    }
}

/// The tuned lane engine: per row-kernel family, the
/// [`LaneStrategy`] instantiation that measured fastest (one lane
/// width does not fit all five stencils, e.g. the stride-2 red-black gather prefers narrow
/// unrolled-once lanes while RESID's 27-point body wants unroll depth
/// to hide its three serial shell-sum chains).
///
/// Like every backend it is bitwise identical to the row engine; the
/// per-kernel picks only move time.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneEngine;

impl Backend for LaneEngine {
    const NAME: &'static str = "lane";

    #[inline(always)]
    fn jacobi3d_row(
        dst: &mut [f64],
        w: &[f64],
        e: &[f64],
        n: &[f64],
        s: &[f64],
        d: &[f64],
        u: &[f64],
        c: f64,
    ) {
        LaneStrategy::<8, 2>::jacobi3d_row(dst, w, e, n, s, d, u, c);
    }

    #[inline(always)]
    fn jacobi2d_row(dst: &mut [f64], w: &[f64], e: &[f64], n: &[f64], s: &[f64], c: f64) {
        LaneStrategy::<4, 3>::jacobi2d_row(dst, w, e, n, s, c);
    }

    #[inline(always)]
    fn resid_row(dst: &mut [f64], v: &[f64], rows: Rows9<'_>, c: &Coeffs) {
        LaneStrategy::<4, 4>::resid_row(dst, v, rows, c);
    }

    #[inline(always)]
    fn redblack_row(
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
        LaneStrategy::<4, 1>::redblack_row(scratch, ctr, w, n, e, s, d, u, c1, c2);
    }

    #[inline(always)]
    fn redblack2d_row(
        scratch: &mut [f64],
        ctr: &[f64],
        w: &[f64],
        n: &[f64],
        e: &[f64],
        s: &[f64],
        c1: f64,
        c2: f64,
    ) {
        LaneStrategy::<4, 1>::redblack2d_row(scratch, ctr, w, n, e, s, c1, c2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        assert_eq!(RowEngine::NAME, "row");
        assert_eq!(LaneEngine::NAME, "lane");
        assert_eq!(ExecBackend::Row.name(), RowEngine::NAME);
        assert_eq!(ExecBackend::Lane.name(), LaneEngine::NAME);
    }
}
