//! The Pad transformation (Fig 11): pad search with tile selection.

use crate::cost::CostModel;
use crate::euc::{euc3d_select, Euc3dOptions, TileSelection};
use crate::gcdpad::gcd_pad;
use crate::plan::CacheSpec;
use tiling3d_loopnest::StencilShape;

/// Result of `Pad`: the selected tile plus the (usually small) pads that
/// enabled it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PadPlan {
    /// The Euc3D selection for the padded dimensions.
    pub selection: TileSelection,
    /// Padded leading dimension (`di <= di_p <= GcdPad's di_p`).
    pub di_p: usize,
    /// Padded middle dimension (`dj <= dj_p <= GcdPad's dj_p`).
    pub dj_p: usize,
}

/// `Pad` (Fig 11): run `GcdPad` to obtain a cost threshold `Cost*` and an
/// upper bound on pads, then scan pad candidates `DI..=DI_g x DJ..=DJ_g`
/// running `Euc3D` on each, returning the **first** padded dimensions whose
/// best tile costs no more than `Cost*`.
///
/// Because the search space includes `GcdPad`'s own dimensions (for which
/// `Euc3D` can always recover a tile at least as good as `GcdPad`'s), the
/// search always terminates with a plan whose cost `<= Cost*` and whose
/// padding overhead is `<=` `GcdPad`'s — usually far less (Fig 22: 4.7% vs
/// 14.7% average memory increase for JACOBI).
///
/// Each candidate's `Euc3D` enumeration stops at the array-tile `TI`
/// below which no tile can cost `<= Cost*`, so the floor changes neither
/// the chosen pad nor its tile (DESIGN.md §5).
pub fn pad(cache: CacheSpec, di: usize, dj: usize, shape: &StencilShape) -> PadPlan {
    let g = gcd_pad(cache, di, dj, shape);
    let cost = CostModel::from_shape(shape);
    let cost_star = cost.eval(g.iter_tile.0 as i64, g.iter_tile.1 as i64);
    let limit = cost_star + 1e-12;
    let floored = Euc3dOptions {
        min_ti: ti_floor(cost.m, cache.elements, limit),
        ..Euc3dOptions::default()
    };
    let mut pads_tried: u64 = 0;

    let mut result = None;
    'search: for di_p in di..=g.di_p {
        for dj_p in dj..=g.dj_p {
            pads_tried += 1;
            if let Some(sel) = euc3d_select(cache, di_p, dj_p, shape, &floored).best {
                if sel.cost <= limit {
                    result = Some(PadPlan {
                        selection: sel,
                        di_p,
                        dj_p,
                    });
                    break 'search;
                }
            }
        }
    }
    if tiling3d_obs::collecting() {
        tiling3d_obs::counter_add("plan.pads_tried", pads_tried);
    }
    if let Some(p) = result {
        return p;
    }

    // Unreachable when GcdPad's invariants hold; keep a deterministic
    // fallback to the GcdPad dimensions for robustness.
    let sel = euc3d_select(cache, g.di_p, g.dj_p, shape, &Euc3dOptions::default())
        .best
        .expect("Euc3D must find a tile at GcdPad's own dimensions");
    PadPlan {
        selection: sel,
        di_p: g.di_p,
        dj_p: g.dj_p,
    }
}

/// The smallest array-tile `TI` (of at most `c + 1`) whose trimming factor
/// `TI / (TI - m)` is within `limit`.
///
/// An array tile costs `TI/(TI-m) * TJ/(TJ-n) >= TI/(TI-m)`, and the factor
/// falls as `TI` grows, so every tile with a shorter `TI` costs more than
/// `limit`. That also holds for the computed costs: the factor here and
/// [`CostModel::eval`] each round an exact quotient once, rounding is
/// monotone, and the few ulps of slack cover caches so large that the
/// cost model's products round too.
fn ti_floor(m: usize, c: usize, limit: f64) -> usize {
    let slack = limit * (1.0 + 8.0 * f64::EPSILON);
    let meets = |ti: usize| ti as f64 / (ti - m) as f64 <= slack;
    // Binary search on the monotone predicate over `m+1 ..= c`; `c + 1`
    // stands for "no tile meets it".
    let (mut lo, mut hi) = (m + 1, c.max(m) + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if meets(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_loopnest::StencilShape;

    fn spec() -> CacheSpec {
        CacheSpec { elements: 2048 }
    }

    #[test]
    fn ti_floor_is_the_first_ti_whose_trim_factor_meets_the_limit() {
        let factor = |ti: usize, m: usize| ti as f64 / (ti - m) as f64;
        for m in [0usize, 1, 2, 4] {
            for c in [64usize, 2048, 8192] {
                for limit in [1.0, 1.0 + 1e-12, 1.05, 1.2189, 1.5, 3.0, 1e9] {
                    let f = ti_floor(m, c, limit);
                    assert!(f > m && f <= c + 1, "m={m} c={c} limit={limit}: {f}");
                    if f <= c {
                        assert!(factor(f, m) <= limit * (1.0 + 1e-12));
                    }
                    if f > m + 1 {
                        assert!(factor(f - 1, m) > limit, "m={m} c={c} limit={limit}: {f}");
                    }
                }
            }
        }
        // JACOBI at 16 KB: Cost* = cost(30, 14) = 32*16/(30*14); the floor
        // is the first TI with TI/(TI-2) <= 1.219..., i.e. TI >= 12.
        let limit = (32.0 * 16.0) / (30.0 * 14.0) + 1e-12;
        assert_eq!(ti_floor(2, 2048, limit), 12);
    }

    #[test]
    fn pad_overhead_never_exceeds_gcdpad() {
        let shape = StencilShape::jacobi3d();
        for d in (200..=400).step_by(7) {
            let g = gcd_pad(spec(), d, d, &shape);
            let p = pad(spec(), d, d, &shape);
            assert!(p.di_p >= d && p.di_p <= g.di_p, "d={d}");
            assert!(p.dj_p >= d && p.dj_p <= g.dj_p, "d={d}");
        }
    }

    #[test]
    fn pad_cost_beats_or_matches_gcdpad() {
        let shape = StencilShape::jacobi3d();
        let cost = CostModel::from_shape(&shape);
        for d in (200..=400).step_by(13) {
            let g = gcd_pad(spec(), d, d, &shape);
            let cost_star = cost.eval(g.iter_tile.0 as i64, g.iter_tile.1 as i64);
            let p = pad(spec(), d, d, &shape);
            assert!(
                p.selection.cost <= cost_star + 1e-12,
                "d={d}: pad cost {} > Cost* {}",
                p.selection.cost,
                cost_star
            );
        }
    }

    #[test]
    fn pad_rescues_the_pathological_341_case() {
        // Unpadded Euc3D gets the degenerate (110, 4) tile for 341; Pad
        // must find a small pad enabling a much squarer tile.
        let shape = StencilShape::jacobi3d();
        let p = pad(spec(), 341, 341, &shape);
        let unpadded = crate::euc::euc3d(spec(), 341, 341, &shape);
        assert!(p.selection.cost < unpadded.cost);
        let (ti, tj) = p.selection.iter_tile;
        assert!(tj >= 8, "expected a non-degenerate TJ, got ({ti}, {tj})");
    }

    #[test]
    fn already_good_dimensions_need_no_padding() {
        // 200x200 already admits the good (22,13) tile whose cost beats
        // GcdPad's (30,14) threshold? cost(22,13)=1.2587 vs
        // cost(30,14)=(32*16)/(30*14)=1.219 — GcdPad is better here, so
        // *some* padding may be selected; but the pads must stay small and
        // the result non-degenerate.
        let shape = StencilShape::jacobi3d();
        let p = pad(spec(), 200, 200, &shape);
        assert!(p.di_p - 200 <= 63 && p.dj_p - 200 <= 31);
        assert!(p.selection.cost.is_finite());
    }

    #[test]
    fn selected_tile_is_nonconflicting_for_padded_dims() {
        use crate::nonconflict::verify_nonconflicting;
        let shape = StencilShape::jacobi3d();
        for d in [207usize, 256, 300, 341, 384] {
            let p = pad(spec(), d, d, &shape);
            assert!(
                verify_nonconflicting(2048, p.di_p, p.dj_p, &p.selection.array_tile),
                "d={d}: {p:?}"
            );
        }
    }
}
