//! Golden gate for the floored Pad search: `pad` stops each candidate's
//! Euc3D enumeration at the array-tile `TI` below which no tile can meet
//! GcdPad's `Cost*` (DESIGN.md §5). The floor must change nothing, so
//! `pad` is compared bit for bit against the full-enumeration search kept
//! here as the reference: same pad, same tile, same cost bits.
//!
//! The grid covers every power-of-two cache from 1 KB to 64 KB and the
//! dims `2^p ± 3` (p = 3..10), square and non-square, for the three paper
//! stencils. A release build (the CI gate) adds the dims `3..700 step 7`:
//!
//! ```text
//! cargo test -p tiling3d-core --test pad_floor --release
//! ```

use tiling3d_core::{euc3d_select, gcd_pad, pad, CacheSpec, CostModel, Euc3dOptions};
use tiling3d_loopnest::StencilShape;

/// `(iter_tile, array_tile (ti, tj, tk), di_p, dj_p, cost bits)`.
type PadKey = ((usize, usize), (usize, usize, usize), usize, usize, u64);

/// Fig 11 as first written: every pad candidate runs the full Euc3D
/// enumeration; the first whose best tile costs `<= Cost*` wins.
fn full_enumeration_pad(cache: CacheSpec, di: usize, dj: usize, shape: &StencilShape) -> PadKey {
    let g = gcd_pad(cache, di, dj, shape);
    let cost = CostModel::from_shape(shape);
    let cost_star = cost.eval(g.iter_tile.0 as i64, g.iter_tile.1 as i64);
    let full = Euc3dOptions::default();
    let key = |di_p, dj_p| {
        euc3d_select(cache, di_p, dj_p, shape, &full).best.map(|s| {
            let at = s.array_tile;
            (
                s.iter_tile,
                (at.ti, at.tj, at.tk),
                di_p,
                dj_p,
                s.cost.to_bits(),
            )
        })
    };
    for di_p in di..=g.di_p {
        for dj_p in dj..=g.dj_p {
            if let Some(k) = key(di_p, dj_p) {
                if f64::from_bits(k.4) <= cost_star + 1e-12 {
                    return k;
                }
            }
        }
    }
    key(g.di_p, g.dj_p).expect("Euc3D finds a tile at GcdPad's own dimensions")
}

fn floored_pad(cache: CacheSpec, di: usize, dj: usize, shape: &StencilShape) -> PadKey {
    let p = pad(cache, di, dj, shape);
    let at = p.selection.array_tile;
    (
        p.selection.iter_tile,
        (at.ti, at.tj, at.tk),
        p.di_p,
        p.dj_p,
        p.selection.cost.to_bits(),
    )
}

/// Every `2^p ± 3` for p = 3..10, plus `3..700 step 7` in release builds.
fn grid_dims() -> Vec<usize> {
    let mut dims: Vec<usize> = (3..=10)
        .flat_map(|p| [(1 << p) - 3, (1 << p) + 3])
        .collect();
    if !cfg!(debug_assertions) {
        dims.extend((3..700).step_by(7));
    }
    dims.sort_unstable();
    dims.dedup();
    dims
}

/// Square pairs plus each dim paired with its mirror in the sorted list
/// (small x large, large x small, and everything between).
fn grid_pairs() -> Vec<(usize, usize)> {
    let dims = grid_dims();
    let mirrored = dims.iter().rev();
    dims.iter()
        .map(|&d| (d, d))
        .chain(dims.iter().copied().zip(mirrored.copied()))
        .collect()
}

fn check_grid(shape: &StencilShape) {
    let pairs = grid_pairs();
    for kb in [1usize, 2, 4, 8, 16, 32, 64] {
        let cache = CacheSpec::from_bytes(kb * 1024);
        for &(di, dj) in &pairs {
            assert_eq!(
                floored_pad(cache, di, dj, shape),
                full_enumeration_pad(cache, di, dj, shape),
                "{} {di}x{dj} at {kb} KB",
                shape.name()
            );
        }
    }
}

#[test]
fn floored_pad_equals_full_enumeration_pad_jacobi3d() {
    check_grid(&StencilShape::jacobi3d());
}

#[test]
fn floored_pad_equals_full_enumeration_pad_redblack_fused() {
    check_grid(&StencilShape::redblack3d_fused());
}

#[test]
fn floored_pad_equals_full_enumeration_pad_resid27() {
    check_grid(&StencilShape::resid27());
}
