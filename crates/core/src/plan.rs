//! The transformation taxonomy (Table 2) and the planning driver.

use crate::cost::CostModel;
use crate::gcdpad::{gcd_pad, try_gcd_pad, GcdPadError};
use crate::padsearch::pad;
use tiling3d_loopnest::StencilShape;

/// Target cache capacity for tile selection, expressed in array elements
/// (`f64` words), the unit the paper's algorithms work in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheSpec {
    /// Capacity in `f64` elements.
    pub elements: usize,
}

impl CacheSpec {
    /// The paper's 16KB L1: "a 16K cache which holds 2048 array elements".
    pub const ELEMENTS_16K_DOUBLES: CacheSpec = CacheSpec { elements: 2048 };

    /// Builds a spec from a byte capacity.
    pub fn from_bytes(bytes: usize) -> Self {
        CacheSpec {
            elements: bytes / std::mem::size_of::<f64>(),
        }
    }

    /// Builds a spec from a capacity in KB — the `cache_kb` wire field and
    /// the CLI's `--cache-kb` — rejecting zero and sizes whose byte count
    /// overflows. (Power-of-two-ness is checked per query: only GcdPad and
    /// Pad need it.)
    pub fn from_kb(kb: usize) -> Result<Self, String> {
        if kb == 0 {
            return Err("cache_kb must be at least 1".into());
        }
        kb.checked_mul(1024)
            .map(CacheSpec::from_bytes)
            .ok_or_else(|| format!("cache_kb {kb} overflows the byte count"))
    }
}

/// The transformation variants evaluated in the paper (Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Transform {
    /// No tiling, no padding — the baseline.
    Orig,
    /// Fixed square array tile filling the cache, optimal under the cost
    /// model assuming a *fully associative* cache; no padding. Conflict
    /// misses are whatever they are — this row isolates their impact.
    Tile,
    /// Non-conflicting tile via `Euc3D` for the unpadded dimensions.
    Euc3D,
    /// Fixed power-of-two non-conflicting tile with GCD padding.
    GcdPad,
    /// Variable non-conflicting tile with `< GCD` padding (`Pad`).
    Pad,
    /// GCD padding *without* tiling — isolates the effect of padding.
    GcdPadNT,
}

impl Transform {
    /// All variants in the paper's Table 2/3 column order.
    pub const ALL: [Transform; 6] = [
        Transform::Orig,
        Transform::Tile,
        Transform::Euc3D,
        Transform::GcdPad,
        Transform::Pad,
        Transform::GcdPadNT,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Transform::Orig => "Orig",
            Transform::Tile => "Tile",
            Transform::Euc3D => "Euc3D",
            Transform::GcdPad => "GcdPad",
            Transform::Pad => "Pad",
            Transform::GcdPadNT => "GcdPadNT",
        }
    }
}

impl std::str::FromStr for Transform {
    type Err = String;

    /// Parses a transform name, case-insensitively — the one spelling shared
    /// by the CLI subcommands and every bench driver. Round-trips with
    /// [`Transform::name`] for every variant.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "orig" => Ok(Transform::Orig),
            "tile" => Ok(Transform::Tile),
            "euc3d" => Ok(Transform::Euc3D),
            "gcdpad" => Ok(Transform::GcdPad),
            "pad" => Ok(Transform::Pad),
            "gcdpadnt" => Ok(Transform::GcdPadNT),
            other => Err(format!(
                "unknown transform '{other}' (expected one of: orig, tile, euc3d, \
                 gcdpad, pad, gcdpadnt)"
            )),
        }
    }
}

/// A fully resolved plan: which tile to run (if any) and which padded
/// dimensions to allocate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransformPlan {
    /// The transformation this plan realises.
    pub transform: Transform,
    /// Iteration tile `(TI', TJ')`, or `None` for untiled variants.
    pub tile: Option<(usize, usize)>,
    /// Leading dimension to allocate (`>= di`).
    pub padded_di: usize,
    /// Middle dimension to allocate (`>= dj`).
    pub padded_dj: usize,
    /// Modelled cost of the tile (`INFINITY` when untiled).
    pub cost: f64,
}

/// Checks that [`plan`] can resolve every transform in `ts` for this cache
/// and these dims: GcdPad, Pad and GcdPadNT need a cache GcdPad can tile
/// and dims it can pad ([`try_gcd_pad`]); the other transforms take any
/// cache.
pub fn check_plan(
    ts: &[Transform],
    cache: CacheSpec,
    di: usize,
    dj: usize,
    shape: &StencilShape,
) -> Result<(), GcdPadError> {
    let pads = ts
        .iter()
        .any(|t| matches!(t, Transform::GcdPad | Transform::Pad | Transform::GcdPadNT));
    if pads {
        try_gcd_pad(cache, di, dj, shape)?;
    }
    Ok(())
}

/// Resolves a [`Transform`] into a concrete [`TransformPlan`] for a
/// `di x dj x M` array, a target cache and a stencil shape.
///
/// Degenerate situations (cache too small for any non-conflicting tile)
/// degrade gracefully to the untiled original rather than panicking, since
/// a compiler must always be able to emit *something*.
pub fn plan(
    t: Transform,
    cache: CacheSpec,
    di: usize,
    dj: usize,
    shape: &StencilShape,
) -> TransformPlan {
    let _span = if tiling3d_obs::collecting() {
        let s = tiling3d_obs::span(&format!("plan:{}", t.name()));
        tiling3d_obs::counter_add("plan.calls", 1);
        Some(s)
    } else {
        None
    };
    let cost = CostModel::from_shape(shape);
    match t {
        Transform::Orig => TransformPlan {
            transform: t,
            tile: None,
            padded_di: di,
            padded_dj: dj,
            cost: f64::INFINITY,
        },
        Transform::Tile => {
            // Square array tile of volume C at depth ATD, trimmed.
            let atd = shape.atd();
            let side = ((cache.elements / atd) as f64).sqrt().floor() as usize;
            let (ti, tj) = (side.saturating_sub(cost.m), side.saturating_sub(cost.n));
            if ti == 0 || tj == 0 {
                return plan(Transform::Orig, cache, di, dj, shape);
            }
            TransformPlan {
                transform: t,
                tile: Some((ti, tj)),
                padded_di: di,
                padded_dj: dj,
                cost: cost.eval(ti as i64, tj as i64),
            }
        }
        Transform::Euc3D => {
            // Fig 9 semantics: always returns a tile, degenerating to
            // (1,1) for pathological dimensions (the miss-rate spikes the
            // paper attributes to "pathologically irregular tile sizes").
            let sel = crate::euc::euc3d(cache, di, dj, shape);
            TransformPlan {
                transform: t,
                tile: Some(sel.iter_tile),
                padded_di: di,
                padded_dj: dj,
                cost: sel.cost,
            }
        }
        Transform::GcdPad => {
            let g = gcd_pad(cache, di, dj, shape);
            TransformPlan {
                transform: t,
                tile: Some(g.iter_tile),
                padded_di: g.di_p,
                padded_dj: g.dj_p,
                cost: cost.eval(g.iter_tile.0 as i64, g.iter_tile.1 as i64),
            }
        }
        Transform::Pad => {
            let p = pad(cache, di, dj, shape);
            TransformPlan {
                transform: t,
                tile: Some(p.selection.iter_tile),
                padded_di: p.di_p,
                padded_dj: p.dj_p,
                cost: p.selection.cost,
            }
        }
        Transform::GcdPadNT => {
            let g = gcd_pad(cache, di, dj, shape);
            TransformPlan {
                transform: t,
                tile: None,
                padded_di: g.di_p,
                padded_dj: g.dj_p,
                cost: f64::INFINITY,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_loopnest::StencilShape;

    fn spec() -> CacheSpec {
        CacheSpec::ELEMENTS_16K_DOUBLES
    }

    #[test]
    fn transform_from_str_round_trips_every_variant() {
        for t in Transform::ALL {
            assert_eq!(t.name().parse::<Transform>().unwrap(), t);
            // Case-insensitive: the lowercase CLI spelling works too.
            assert_eq!(
                t.name().to_ascii_lowercase().parse::<Transform>().unwrap(),
                t
            );
        }
        assert!("euclid".parse::<Transform>().is_err());
    }

    #[test]
    fn orig_is_identity() {
        let p = plan(Transform::Orig, spec(), 200, 200, &StencilShape::jacobi3d());
        assert_eq!(p.tile, None);
        assert_eq!((p.padded_di, p.padded_dj), (200, 200));
    }

    #[test]
    fn tile_is_square_and_cache_sized() {
        let p = plan(Transform::Tile, spec(), 200, 200, &StencilShape::jacobi3d());
        // floor(sqrt(2048/3)) = 26, trimmed to (24, 24).
        assert_eq!(p.tile, Some((24, 24)));
        assert_eq!((p.padded_di, p.padded_dj), (200, 200));
    }

    #[test]
    fn table2_taxonomy() {
        // Tiling column of Table 2.
        let tiles: Vec<bool> = Transform::ALL
            .iter()
            .map(|&t| {
                plan(t, spec(), 300, 300, &StencilShape::jacobi3d())
                    .tile
                    .is_some()
            })
            .collect();
        assert_eq!(tiles, vec![false, true, true, true, true, false]);
        // Padding column of Table 2.
        let pads: Vec<bool> = Transform::ALL
            .iter()
            .map(|&t| {
                let p = plan(t, spec(), 300, 300, &StencilShape::jacobi3d());
                p.padded_di > 300 || p.padded_dj > 300
            })
            .collect();
        assert_eq!(pads, vec![false, false, false, true, true, true]);
    }

    #[test]
    fn gcdpadnt_pads_like_gcdpad() {
        let a = plan(
            Transform::GcdPad,
            spec(),
            341,
            341,
            &StencilShape::jacobi3d(),
        );
        let b = plan(
            Transform::GcdPadNT,
            spec(),
            341,
            341,
            &StencilShape::jacobi3d(),
        );
        assert_eq!((a.padded_di, a.padded_dj), (b.padded_di, b.padded_dj));
        assert!(b.tile.is_none());
    }

    #[test]
    fn degenerate_cache_degrades_gracefully() {
        let tiny = CacheSpec { elements: 8 };
        // Euc3D keeps its Fig 9 (1,1) initialisation...
        let p = plan(Transform::Euc3D, tiny, 100, 100, &StencilShape::jacobi3d());
        assert_eq!(p.tile, Some((1, 1)));
        // ...while Tile (square root of nothing) falls back to untiled.
        let p = plan(Transform::Tile, tiny, 100, 100, &StencilShape::jacobi3d());
        assert_eq!(p.tile, None);
    }

    #[test]
    fn from_kb_rejects_zero_and_overflow() {
        assert_eq!(CacheSpec::from_kb(16), Ok(CacheSpec::ELEMENTS_16K_DOUBLES));
        assert!(CacheSpec::from_kb(0).unwrap_err().contains("at least 1"));
        assert!(CacheSpec::from_kb(usize::MAX / 1024 + 1)
            .unwrap_err()
            .contains("overflows"));
        assert!(CacheSpec::from_kb(usize::MAX / 1024).is_ok());
    }

    #[test]
    fn from_bytes_matches_elements() {
        assert_eq!(
            CacheSpec::from_bytes(16 * 1024),
            CacheSpec::ELEMENTS_16K_DOUBLES
        );
    }

    #[test]
    fn all_tiled_plans_have_positive_tiles_across_the_sweep() {
        let shape = StencilShape::jacobi3d();
        for n in (200..=400).step_by(9) {
            for t in [
                Transform::Tile,
                Transform::Euc3D,
                Transform::GcdPad,
                Transform::Pad,
            ] {
                let p = plan(t, spec(), n, n, &shape);
                let (ti, tj) = p.tile.expect("tiled transform must tile");
                assert!(ti > 0 && tj > 0, "{t:?} n={n}");
                assert!(p.padded_di >= n && p.padded_dj >= n);
            }
        }
    }
}
