//! Cross-crate equivalence: every transformation of every kernel computes
//! bitwise-identical results to the untransformed original — the safety
//! property a compiler transformation must guarantee.

use tiling3d::core::{plan, CacheSpec, ExecBackend, Transform};
use tiling3d::grid::Array3;
use tiling3d::stencil::kernels::{Kernel, KernelState};

fn output(s: &KernelState) -> Array3<f64> {
    match s {
        KernelState::Jacobi { a, .. } => a.clone(),
        KernelState::RedBlack { a } => a.clone(),
        KernelState::Resid { r, .. } => r.clone(),
    }
}

#[test]
fn every_transform_of_every_kernel_is_result_preserving() {
    let cache = CacheSpec::ELEMENTS_16K_DOUBLES;
    for kernel in Kernel::ALL {
        for &(n, nk) in &[(24usize, 10usize), (37, 9), (50, 16)] {
            let reference = {
                let p = plan(Transform::Orig, cache, n, n, &kernel.shape());
                let mut st = kernel.make_state(n, nk, &p, 0xFEED);
                kernel.run(&mut st, p.tile);
                output(&st)
            };
            for t in Transform::ALL {
                let p = plan(t, cache, n, n, &kernel.shape());
                let mut st = kernel.make_state(n, nk, &p, 0xFEED);
                kernel.run(&mut st, p.tile);
                assert!(
                    reference.logical_eq(&output(&st)),
                    "{} under {:?} at {n}x{n}x{nk} diverged",
                    kernel.name(),
                    t
                );
            }
        }
    }
}

#[test]
fn repeated_runs_are_deterministic() {
    let cache = CacheSpec::ELEMENTS_16K_DOUBLES;
    for kernel in Kernel::ALL {
        let p = plan(Transform::Pad, cache, 40, 40, &kernel.shape());
        let mut s1 = kernel.make_state(40, 12, &p, 3);
        let mut s2 = kernel.make_state(40, 12, &p, 3);
        kernel.run(&mut s1, p.tile);
        kernel.run(&mut s2, p.tile);
        assert!(output(&s1).logical_eq(&output(&s2)), "{}", kernel.name());
    }
}

#[test]
fn extreme_tiles_are_safe() {
    // Degenerate (1,1) tiles (the Euc3D fallback) and tiles larger than
    // the whole iteration space must both work on every kernel.
    for kernel in Kernel::ALL {
        let cache = CacheSpec::ELEMENTS_16K_DOUBLES;
        let orig = plan(Transform::Orig, cache, 20, 20, &kernel.shape());
        let reference = {
            let mut st = kernel.make_state(20, 8, &orig, 11);
            kernel.run(&mut st, None);
            output(&st)
        };
        for tile in [(1usize, 1usize), (1, 19), (19, 1), (1000, 1000)] {
            let mut st = kernel.make_state(20, 8, &orig, 11);
            kernel.run(&mut st, Some(tile));
            assert!(
                reference.logical_eq(&output(&st)),
                "{} with tile {tile:?} diverged",
                kernel.name()
            );
        }
    }
}

#[test]
fn lane_engine_is_a_bitwise_oracle_for_the_row_engine() {
    // The explicit-lane engine shares no row code with the row engine, so
    // its bitwise agreement is an independent check of every production
    // sweep (the benchmark's DRAM-size verdict relies on it). 37 leaves
    // lane remainders; the parallel arm splits K across two slabs.
    let cache = CacheSpec::ELEMENTS_16K_DOUBLES;
    for kernel in Kernel::ALL {
        for t in [Transform::Orig, Transform::GcdPad] {
            for &(n, nk) in &[(24usize, 10usize), (37, 9)] {
                let p = plan(t, cache, n, n, &kernel.shape());
                let fresh = || kernel.make_state(n, nk, &p, 0x0DD5);
                let mut row = fresh();
                kernel.run(&mut row, p.tile);
                let mut lane = fresh();
                kernel.run_with(&mut lane, p.tile, ExecBackend::Lane);
                let mut lane2 = fresh();
                kernel.run_parallel_with(&mut lane2, p.tile, 2, ExecBackend::Lane);
                let ctx = format!("{} under {t:?} at {n}x{n}x{nk}", kernel.name());
                assert!(output(&row).logical_eq(&output(&lane)), "lane: {ctx}");
                assert!(output(&row).logical_eq(&output(&lane2)), "lane x2: {ctx}");
            }
        }
    }
}

#[test]
fn multigrid_transformed_solver_matches_baseline_exactly() {
    use tiling3d::loopnest::TileDims;
    use tiling3d::multigrid::{MgConfig, MgSolver};
    let mk = |pad: Option<(usize, usize)>, tile: Option<TileDims>| {
        let cfg = MgConfig {
            pad_finest: pad,
            tile_finest: tile,
            ..MgConfig::mgrid(4)
        };
        let mut s = MgSolver::new(cfg);
        s.set_rhs(|i, j, k| ((i * 31 + j * 17 + k * 7) % 13) as f64 - 6.0);
        s.solve(3);
        s
    };
    let base = mk(None, None);
    let transformed = mk(Some((25, 21)), Some(TileDims::new(6, 5)));
    let (a, b) = (base.solution(), transformed.solution());
    for k in 1..=16 {
        for j in 1..=16 {
            for i in 1..=16 {
                assert_eq!(
                    a.get(i, j, k).to_bits(),
                    b.get(i, j, k).to_bits(),
                    "solution diverged at ({i},{j},{k})"
                );
            }
        }
    }
}

/// The simulation counterpart of result preservation: the run-level cache
/// replay (`Hierarchy::row`) reports exactly the L1 and L2 counters of a
/// reference that expands every row access by access, at the paper's
/// conflict size N = 256 and at an odd size.
#[test]
fn run_level_cache_replay_matches_per_access_replay() {
    use tiling3d::cachesim::{AccessSink, Cache, CacheConfig, Hierarchy};

    struct PerAccess {
        l1: Cache,
        l2: Cache,
    }
    impl AccessSink for PerAccess {
        fn read(&mut self, addr: u64) {
            if self.l1.access_reference(addr, false) {
                self.l2.access_reference(addr, false);
            }
        }
        fn write(&mut self, addr: u64) {
            self.l1.access_reference(addr, true);
            self.l2.access_reference(addr, true);
        }
    }

    let cache = CacheSpec::ELEMENTS_16K_DOUBLES;
    for kernel in [Kernel::Jacobi, Kernel::Resid] {
        for t in [Transform::Orig, Transform::Pad] {
            for n in [256usize, 201] {
                let p = plan(t, cache, n, n, &kernel.shape());
                let mut fast = Hierarchy::ultrasparc2();
                kernel.trace(n, 6, p.padded_di, p.padded_dj, p.tile, &mut fast);
                let mut reference = PerAccess {
                    l1: Cache::new(CacheConfig::ULTRASPARC2_L1),
                    l2: Cache::new(CacheConfig::ULTRASPARC2_L2),
                };
                kernel.trace(n, 6, p.padded_di, p.padded_dj, p.tile, &mut reference);
                let what = format!("{} {} N={n}", kernel.name(), t.name());
                assert_eq!(fast.l1_stats(), reference.l1.stats(), "L1: {what}");
                assert_eq!(fast.l2_stats(), reference.l2.stats(), "L2: {what}");
                assert!(fast.l1_stats().accesses > 1_000_000, "{what}");
            }
        }
    }
}

/// The planning counterpart of result preservation: `Pad` stops each
/// candidate's Euc3D enumeration at the tile height below which nothing
/// can meet GcdPad's `Cost*`, and must still return exactly what the full
/// enumeration returns — same pad, same tile, same cost bits. (The full
/// grid is `crates/core/tests/pad_floor.rs`.)
#[test]
fn floored_pad_search_matches_full_enumeration() {
    use tiling3d::core::{euc3d_select, gcd_pad, pad, CostModel, Euc3dOptions};

    for kernel in Kernel::ALL {
        let shape = kernel.shape();
        for (kb, di, dj) in [(16usize, 341usize, 341usize), (16, 200, 261), (1, 61, 67)] {
            let cache = CacheSpec::from_bytes(kb * 1024);
            let g = gcd_pad(cache, di, dj, &shape);
            let cost = CostModel::from_shape(&shape);
            let cost_star = cost.eval(g.iter_tile.0 as i64, g.iter_tile.1 as i64);
            let full = (di..=g.di_p)
                .flat_map(|a| (dj..=g.dj_p).map(move |b| (a, b)))
                .find_map(|(a, b)| {
                    euc3d_select(cache, a, b, &shape, &Euc3dOptions::default())
                        .best
                        .filter(|s| s.cost <= cost_star + 1e-12)
                        .map(|s| (s, a, b))
                })
                .expect("GcdPad's own dims always qualify");
            let p = pad(cache, di, dj, &shape);
            assert_eq!(
                (p.selection, p.di_p, p.dj_p),
                full,
                "{} {di}x{dj}",
                kernel.name()
            );
            assert_eq!(p.selection.cost.to_bits(), full.0.cost.to_bits());
        }
    }
}
