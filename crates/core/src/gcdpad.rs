//! The GcdPad transformation (Fig 10): fixed tile + GCD-driven padding.

use crate::cost::CostModel;
use crate::nonconflict::ArrayTile;
use crate::plan::CacheSpec;
use tiling3d_loopnest::StencilShape;

/// Result of `GcdPad`: a fixed power-of-two tile and the padded array
/// dimensions that make it conflict-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcdPadPlan {
    /// Iteration-tile dimensions `(TI', TJ')` after trimming.
    pub iter_tile: (usize, usize),
    /// The underlying power-of-two array tile (`TI * TJ * TK = C`).
    pub array_tile: ArrayTile,
    /// Padded leading dimension: `gcd(di_p, C) = TI`.
    pub di_p: usize,
    /// Padded middle dimension: `gcd(dj_p, C) = TJ`.
    pub dj_p: usize,
}

/// Why `GcdPad` (and so `Pad`, which starts from it) cannot plan a
/// request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcdPadError {
    /// The cache size in elements is not a power of two, so no
    /// power-of-two tile tessellates it.
    CacheNotPowerOfTwo(usize),
    /// The cache (in elements) cannot hold a tile that stays positive
    /// after trimming by the stencil spans.
    CacheTooSmall(usize),
    /// Padding this array dimension overflows `usize`.
    PaddedDimOverflow(usize),
}

impl std::fmt::Display for GcdPadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GcdPadError::CacheNotPowerOfTwo(c) => write!(
                f,
                "GcdPad and Pad require a power-of-two cache size, got {c} elements"
            ),
            GcdPadError::CacheTooSmall(c) => write!(
                f,
                "a cache of {c} elements cannot hold a GcdPad tile for this stencil"
            ),
            GcdPadError::PaddedDimOverflow(d) => {
                write!(f, "padding array dimension {d} overflows")
            }
        }
    }
}

impl std::error::Error for GcdPadError {}

/// `GcdPad` (Fig 10).
///
/// Chooses `TK` (4 by default — "3-4 tile planes must exist in cache
/// depending on the target tiled nest"), sets `TI` to the smallest power of
/// two `>= sqrt(C/TK)` and `TJ = C/(TK*TI)`, trims to the iteration tile,
/// then pads each lower array dimension to the next value congruent to the
/// tile dimension modulo twice the tile dimension:
///
/// ```text
/// DI_p = 2*TI*floor((DI + 3*TI - 1) / (2*TI)) - TI
/// ```
///
/// which guarantees `gcd(DI_p, C) = TI` (both are powers of two times an
/// odd factor) and pads by at most `2*TI - 1` elements. With
/// `gcd(DI_p, C) = TI`, `gcd(DJ_p, C) = TJ` and `TI*TJ*TK = C`, the array
/// tile provably tessellates the direct-mapped cache with no
/// self-interference.
///
/// # Panics
/// Panics where [`try_gcd_pad`] returns an error: a cache (in elements)
/// that is not a power of two or is too small to produce a positive
/// trimmed tile for this stencil, or a dimension too large to pad.
///
/// # Example
///
/// ```
/// use tiling3d_core::{gcd_pad, CacheSpec};
/// use tiling3d_loopnest::StencilShape;
///
/// let g = gcd_pad(CacheSpec::ELEMENTS_16K_DOUBLES, 200, 200, &StencilShape::jacobi3d());
/// assert_eq!((g.array_tile.ti, g.array_tile.tj, g.array_tile.tk), (32, 16, 4));
/// assert_eq!(g.iter_tile, (30, 14));
/// assert!(g.di_p >= 200 && g.dj_p >= 200);
/// ```
pub fn gcd_pad(cache: CacheSpec, di: usize, dj: usize, shape: &StencilShape) -> GcdPadPlan {
    try_gcd_pad(cache, di, dj, shape).unwrap_or_else(|e| panic!("{e}"))
}

/// [`gcd_pad`] with its preconditions as a typed error: the checks the
/// planning API runs before any GcdPad or Pad plan.
pub fn try_gcd_pad(
    cache: CacheSpec,
    di: usize,
    dj: usize,
    shape: &StencilShape,
) -> Result<GcdPadPlan, GcdPadError> {
    let c = cache.elements;
    if !c.is_power_of_two() {
        return Err(GcdPadError::CacheNotPowerOfTwo(c));
    }
    let cost = CostModel::from_shape(shape);

    // TK: at least the stencil's plane working set, at least the paper's
    // default of 4, rounded to a power of two so it divides C.
    let tk = shape.atd().max(4).next_power_of_two();
    if tk >= c {
        return Err(GcdPadError::CacheTooSmall(c));
    }

    // TI = smallest power of two >= sqrt(C/TK); TJ = C/(TK*TI).
    let ti = smallest_pow2_at_least_sqrt(c / tk);
    let tj = c / (tk * ti);
    if ti <= cost.m || tj <= cost.n {
        return Err(GcdPadError::CacheTooSmall(c));
    }

    Ok(GcdPadPlan {
        iter_tile: (ti - cost.m, tj - cost.n),
        array_tile: ArrayTile { ti, tj, tk },
        di_p: pad_dim(di, ti).ok_or(GcdPadError::PaddedDimOverflow(di))?,
        dj_p: pad_dim(dj, tj).ok_or(GcdPadError::PaddedDimOverflow(dj))?,
    })
}

/// `DI_p = 2*T*floor((DI + 3T - 1)/(2T)) - T`: the smallest value `>= DI`
/// congruent to `T (mod 2T)`... except when `DI` is within `T-1` above a
/// multiple of `2T`, where it lands one period later (the paper's worked
/// intervals: for `T = 32`, `224 < DI <= 288` maps to 288, the next
/// 64-interval to 352). `None` when the arithmetic overflows `usize`.
fn pad_dim(d: usize, t: usize) -> Option<usize> {
    let period = t.checked_mul(2)?;
    let periods = d.checked_add(t.checked_mul(3)? - 1)? / period;
    periods.checked_mul(period)?.checked_sub(t)
}

fn smallest_pow2_at_least_sqrt(x: usize) -> usize {
    let mut p = 1usize;
    while p * p < x {
        p *= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_loopnest::StencilShape;

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    #[test]
    fn paper_tile_for_2048_elements() {
        // "if C_s = 2048 (array elements), GcdPad chooses
        // (TI,TJ,TK) = (32,16,4)".
        let p = gcd_pad(
            CacheSpec { elements: 2048 },
            200,
            200,
            &StencilShape::jacobi3d(),
        );
        assert_eq!(
            (p.array_tile.ti, p.array_tile.tj, p.array_tile.tk),
            (32, 16, 4)
        );
        assert_eq!(p.iter_tile, (30, 14));
    }

    #[test]
    fn paper_padding_intervals() {
        // "when 224 < DI <= 288, DI_p is set to 288 ... in the next
        // 64-interval, DI_p is set to 352."
        for di in 225..=288 {
            assert_eq!(pad_dim(di, 32), Some(288), "di={di}");
        }
        for di in 289..=352 {
            assert_eq!(pad_dim(di, 32), Some(352), "di={di}");
        }
        assert_eq!(pad_dim(224, 32), Some(224)); // already congruent: no pad
    }

    #[test]
    fn pad_is_bounded_by_2t_minus_1() {
        // "this requires padding DI at most 2*TI - 1 = 63 and DJ by at
        // most 2*TJ - 1 = 31".
        for d in 1..2000 {
            let p32 = pad_dim(d, 32).unwrap();
            assert!(p32 >= d && p32 - d <= 63, "d={d} p={p32}");
            let p16 = pad_dim(d, 16).unwrap();
            assert!(p16 >= d && p16 - d <= 31, "d={d} p={p16}");
        }
    }

    #[test]
    fn gcd_conditions_hold() {
        for &(di, dj) in &[(200usize, 200usize), (341, 341), (255, 257), (130, 130)] {
            let p = gcd_pad(
                CacheSpec { elements: 2048 },
                di,
                dj,
                &StencilShape::jacobi3d(),
            );
            assert_eq!(gcd(p.di_p, 2048), p.array_tile.ti, "di={di}");
            assert_eq!(gcd(p.dj_p, 2048), p.array_tile.tj, "dj={dj}");
            assert_eq!(
                p.array_tile.ti * p.array_tile.tj * p.array_tile.tk,
                2048,
                "tile must fill the cache"
            );
        }
    }

    #[test]
    fn padded_tile_is_nonconflicting_by_construction() {
        use crate::nonconflict::verify_nonconflicting;
        for &(di, dj) in &[(200usize, 200usize), (341, 341), (300, 219), (512, 512)] {
            let p = gcd_pad(
                CacheSpec { elements: 2048 },
                di,
                dj,
                &StencilShape::jacobi3d(),
            );
            assert!(
                verify_nonconflicting(2048, p.di_p, p.dj_p, &p.array_tile),
                "GcdPad produced a conflicting tile for {di}x{dj}: {p:?}"
            );
        }
    }

    #[test]
    fn smaller_caches_scale_the_tile() {
        // 512-element cache (4KB of doubles): TK=4 -> TI*TJ = 128,
        // TI = 2^ceil(log2 sqrt(128)) = 16, TJ = 8.
        let p = gcd_pad(
            CacheSpec { elements: 512 },
            100,
            100,
            &StencilShape::jacobi3d(),
        );
        assert_eq!(
            (p.array_tile.ti, p.array_tile.tj, p.array_tile.tk),
            (16, 8, 4)
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two cache")]
    fn non_power_of_two_cache_is_rejected() {
        let _ = gcd_pad(
            CacheSpec { elements: 1000 },
            100,
            100,
            &StencilShape::jacobi3d(),
        );
    }

    #[test]
    fn bad_caches_are_typed_errors() {
        let shape = StencilShape::jacobi3d();
        let at = |elements| try_gcd_pad(CacheSpec { elements }, 100, 100, &shape);
        assert_eq!(at(3072), Err(GcdPadError::CacheNotPowerOfTwo(3072)));
        assert_eq!(at(0), Err(GcdPadError::CacheNotPowerOfTwo(0)));
        for tiny in [1, 2, 4, 8, 16] {
            assert_eq!(at(tiny), Err(GcdPadError::CacheTooSmall(tiny)), "{tiny}");
        }
        // 1 KB of doubles is the smallest cache the API accepts.
        assert!(at(128).is_ok());
    }

    #[test]
    fn padding_never_shrinks_a_dimension() {
        // Near usize::MAX the padded dimension would wrap below the
        // logical one; it is a typed error instead.
        for t in [8usize, 16, 32, 64] {
            for d in [
                usize::MAX,
                usize::MAX - 1,
                usize::MAX - 3 * t,
                usize::MAX / 2,
            ] {
                match pad_dim(d, t) {
                    Some(p) => assert!(p >= d && p - d < 2 * t, "d={d} t={t} p={p}"),
                    None => assert!(d > usize::MAX - 3 * t, "d={d} t={t}"),
                }
            }
        }
        let shape = StencilShape::jacobi3d();
        let cache = CacheSpec::ELEMENTS_16K_DOUBLES;
        assert_eq!(
            try_gcd_pad(cache, usize::MAX, 2, &shape),
            Err(GcdPadError::PaddedDimOverflow(usize::MAX))
        );
        assert_eq!(
            try_gcd_pad(cache, 2, usize::MAX - 1, &shape),
            Err(GcdPadError::PaddedDimOverflow(usize::MAX - 1))
        );
        let g = try_gcd_pad(cache, usize::MAX / 2, 2, &shape).unwrap();
        assert!(g.di_p >= usize::MAX / 2);
    }
}
