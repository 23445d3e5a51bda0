//! Cache-capacity reuse analysis (the Section 1 argument).
//!
//! These functions formalise the paper's introductory analysis of when
//! group-temporal reuse between stencil references survives a given cache
//! capacity, and therefore when tiling is worth applying at all:
//!
//! * in **2D**, the leading reference `B(I, J+1)` and trailing `B(I, J-1)`
//!   are `n * N` elements apart (`n` = J-span, `N` = column length), so the
//!   cache must hold `n` columns — even a 16KB L1 covers columns up to 1024
//!   doubles;
//! * in **3D**, the leading `B(I,J,K+1)` and trailing `B(I,J,K-1)` are
//!   `(ATD-1) * N^2` elements apart, so the cache must hold `ATD-1` *planes*
//!   — a 16KB L1 covers only `32 x 32` planes and a 2MB L2 only `362 x 362`.

use crate::shape::StencilShape;

/// Reuse distance (in elements) across the `K` loop: the storage distance
/// between the leading and trailing references of the stencil, for an array
/// with allocated plane size `di * dj`.
///
/// For 3D Jacobi on an `N x N x M` array this is `2 * N^2`, the paper's
/// "distance of 2N^2 between the leading A(I,J,K+1) and trailing
/// A(I,J,K-1)". `None` when the distance overflows `usize`: no array with
/// such planes is addressable.
pub fn k_reuse_distance(shape: &StencilShape, di: usize, dj: usize) -> Option<usize> {
    (shape.atd() - 1).checked_mul(di)?.checked_mul(dj)
}

/// Reuse distance (in elements) across the `J` loop for a 2D stencil with
/// allocated column length `di`. For 2D Jacobi this is `2N`. `None` when
/// the distance overflows `usize`.
pub fn j_reuse_distance(shape: &StencilShape, di: usize) -> Option<usize> {
    shape.n().checked_mul(di)
}

/// Largest square plane extent `N` such that a cache of `cache_elements`
/// doubles still preserves group reuse across the `K` loop of a 3D stencil:
/// `(ATD - 1) * N^2 <= C`.
///
/// Reproduces the paper's 32 (16K L1) and 362 (2M L2) boundaries for 3D
/// Jacobi.
pub fn max_plane_extent(cache_elements: usize, shape: &StencilShape) -> usize {
    let planes = shape.atd().saturating_sub(1).max(1);
    ((cache_elements / planes) as f64).sqrt().floor() as usize
}

/// Largest column extent `N` such that a cache of `cache_elements` doubles
/// preserves group reuse across the `J` loop of a **2D** stencil:
/// `n * N <= C`.
///
/// Reproduces the paper's "up to a 1024 x M array of doubles" bound for 2D
/// Jacobi in a 16K L1.
pub fn max_column_extent_2d(cache_elements: usize, shape: &StencilShape) -> usize {
    cache_elements / shape.n().max(1)
}

/// Verdict of the capacity analysis for one stencil/problem-size/cache
/// combination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TilingAdvice {
    /// Reuse already survives; tiling would only add loop overhead
    /// (the 2D situation, or small 3D problems).
    NotNeeded,
    /// Reuse across the outer loop is lost; tile the inner two loops.
    TileInnerTwo,
}

/// Decides whether the paper's tiling transformation is profitable for a 3D
/// stencil sweeping `n x n x M` planes against a cache of `cache_elements`.
pub fn advise_3d(cache_elements: usize, shape: &StencilShape, n: usize) -> TilingAdvice {
    if n <= max_plane_extent(cache_elements, shape) {
        TilingAdvice::NotNeeded
    } else {
        TilingAdvice::TileInnerTwo
    }
}

/// Decides whether tiling is needed for a **2D** stencil with column length
/// `n`. For every realistic `n` this returns `NotNeeded`, which is the
/// paper's first contribution ("showing why tiling is not needed for 2D
/// stencil codes").
pub fn advise_2d(cache_elements: usize, shape: &StencilShape, n: usize) -> TilingAdvice {
    if n <= max_column_extent_2d(cache_elements, shape) {
        TilingAdvice::NotNeeded
    } else {
        TilingAdvice::TileInnerTwo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobi3d_reuse_distance_is_2n2() {
        let s = StencilShape::jacobi3d();
        assert_eq!(k_reuse_distance(&s, 200, 200), Some(2 * 200 * 200));
        // Padding the plane increases the distance — padding is never free.
        assert_eq!(k_reuse_distance(&s, 224, 208), Some(2 * 224 * 208));
        // A plane of 2^64 elements used to wrap to a distance of 0.
        assert_eq!(k_reuse_distance(&s, 1 << 32, 1 << 32), None);
        assert_eq!(k_reuse_distance(&s, usize::MAX / 2 + 1, 1), None);
    }

    #[test]
    fn jacobi2d_reuse_distance_is_2n() {
        let s = StencilShape::jacobi2d();
        assert_eq!(j_reuse_distance(&s, 1000), Some(2000));
        assert_eq!(j_reuse_distance(&s, usize::MAX), None);
    }

    #[test]
    fn paper_capacity_boundaries() {
        let j3 = StencilShape::jacobi3d();
        assert_eq!(max_plane_extent(2048, &j3), 32);
        assert_eq!(max_plane_extent(262_144, &j3), 362);
        let j2 = StencilShape::jacobi2d();
        assert_eq!(max_column_extent_2d(2048, &j2), 1024);
    }

    #[test]
    fn advice_flips_at_the_boundary() {
        let j3 = StencilShape::jacobi3d();
        assert_eq!(advise_3d(2048, &j3, 32), TilingAdvice::NotNeeded);
        assert_eq!(advise_3d(2048, &j3, 33), TilingAdvice::TileInnerTwo);
        // The paper's evaluation range (200-400) always needs L1 tiling...
        for n in [200, 300, 400] {
            assert_eq!(advise_3d(2048, &j3, n), TilingAdvice::TileInnerTwo);
        }
        // ...and loses L2 reuse starting at N=362 ("the size boundary is
        // reached beginning at problem size 362").
        assert_eq!(advise_3d(262_144, &j3, 362), TilingAdvice::NotNeeded);
        assert_eq!(advise_3d(262_144, &j3, 363), TilingAdvice::TileInnerTwo);
    }

    #[test]
    fn two_d_rarely_needs_tiling() {
        let j2 = StencilShape::jacobi2d();
        for n in [100, 500, 1024] {
            assert_eq!(advise_2d(2048, &j2, n), TilingAdvice::NotNeeded);
        }
        assert_eq!(advise_2d(2048, &j2, 1025), TilingAdvice::TileInnerTwo);
    }

    #[test]
    fn fused_redblack_needs_three_resident_planes() {
        let s = StencilShape::redblack3d_fused();
        // ATD = 4 -> 3 planes of *distance*: N^2*3 <= C.
        assert_eq!(max_plane_extent(2048, &s), 26); // floor(sqrt(2048/3))
    }
}
