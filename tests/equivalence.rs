//! Cross-crate equivalence: every transformation of every kernel computes
//! bitwise-identical results to the untransformed original — the safety
//! property a compiler transformation must guarantee.

use tiling3d::core::{plan, CacheSpec, Transform};
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
