//! Row-segment traces on degenerate shapes.
//!
//! Every kernel trace hands one row segment at a time to
//! `AccessSink::row`. The cache hierarchy overrides that entry with a
//! run-level replay; this suite holds it to a reference sink without the
//! override (so every row expands access by access) on the shapes where
//! row walkers usually break: grids with no interior, tiles at least as
//! wide as the grid, 1x1 tiles, and rows of a single point.

use tiling3d_cachesim::{
    AccessSink, Cache, CacheConfig, CountingSink, Hierarchy, ReplacementPolicy, WritePolicy,
};
use tiling3d_stencil::kernels::Kernel;

/// Per-access reference hierarchy with no `row` override.
struct Reference {
    l1: Cache,
    l2: Cache,
}

impl AccessSink for Reference {
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

/// Records the access stream the default `row` expansion produces.
#[derive(Default, PartialEq, Debug)]
struct Record(Vec<(u64, bool)>);

impl AccessSink for Record {
    fn read(&mut self, addr: u64) {
        self.0.push((addr, false));
    }

    fn write(&mut self, addr: u64) {
        self.0.push((addr, true));
    }
}

/// The paper's UltraSparc2 L1, and a 512-byte direct-mapped L1 small
/// enough that the stencil's neighbour rows collide in it.
fn l1_geometries() -> [CacheConfig; 2] {
    [
        CacheConfig::ULTRASPARC2_L1,
        CacheConfig {
            size_bytes: 512,
            line_bytes: 32,
            ways: 1,
            write_policy: WritePolicy::WriteAround,
            replacement: ReplacementPolicy::Lru,
        },
    ]
}

/// Traces `kernel` into the hierarchy and the reference under every L1
/// geometry and requires identical statistics and L1 contents.
fn assert_row_replay_exact(
    kernel: Kernel,
    n: usize,
    nk: usize,
    di: usize,
    tile: Option<(usize, usize)>,
) {
    for l1 in l1_geometries() {
        let l2 = CacheConfig::ULTRASPARC2_L2;
        let mut h = Hierarchy::new(l1, l2);
        let mut r = Reference {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
        };
        kernel.trace(n, nk, di, di, tile, &mut h);
        kernel.trace(n, nk, di, di, tile, &mut r);
        let what = format!(
            "{} n={n} nk={nk} di={di} tile={tile:?} L1={}B",
            kernel.name(),
            l1.size_bytes
        );
        assert_eq!(h.l1_stats(), r.l1.stats(), "{what}: L1");
        assert_eq!(h.l2_stats(), r.l2.stats(), "{what}: L2");
        let span = (3 * di * di * nk.max(1) * 8) as u64;
        for a in (0..span).step_by(32) {
            assert_eq!(h.l1().probe(a), r.l1.probe(a), "{what}: L1 line at {a}");
        }
        assert_eq!(
            h.row_points().0 * accesses_per_point(kernel),
            h.l1_stats().accesses
        );
    }
}

fn accesses_per_point(kernel: Kernel) -> u64 {
    match kernel {
        Kernel::Jacobi => 7,
        Kernel::RedBlack => 8,
        Kernel::Resid => 29,
    }
}

#[test]
fn grids_without_an_interior_trace_nothing() {
    for kernel in Kernel::ALL {
        for (n, nk) in [(1usize, 8usize), (2, 8), (8, 1), (8, 2), (2, 2)] {
            for tile in [None, Some((2, 2))] {
                let mut c = CountingSink::default();
                kernel.trace(n, nk, n, n, tile, &mut c);
                assert_eq!(
                    (c.reads, c.writes),
                    (0, 0),
                    "{} {n}x{n}x{nk}",
                    kernel.name()
                );
                assert_row_replay_exact(kernel, n, nk, n, tile);
            }
        }
    }
}

#[test]
fn tiles_at_least_as_wide_as_the_grid_match_the_untiled_trace() {
    // JACOBI and RESID tile only I and J, so one tile covering the whole
    // plane walks the original order exactly.
    for kernel in [Kernel::Jacobi, Kernel::Resid] {
        for n in [5usize, 12] {
            let mut untiled = Record::default();
            kernel.trace(n, 6, n + 3, n + 3, None, &mut untiled);
            for tile in [(n - 2, n - 2), (n, n), (n + 7, 4 * n)] {
                let mut tiled = Record::default();
                kernel.trace(n, 6, n + 3, n + 3, Some(tile), &mut tiled);
                assert_eq!(tiled, untiled, "{} n={n} tile={tile:?}", kernel.name());
            }
        }
    }
    for kernel in Kernel::ALL {
        for tile in [(10, 3), (10, 10), (64, 64)] {
            assert_row_replay_exact(kernel, 10, 7, 13, Some(tile));
        }
    }
}

#[test]
fn one_by_one_tiles_replay_exactly() {
    // Euc3D picks 1x1 tiles at the paper's conflict sizes N = 256, 384.
    for kernel in Kernel::ALL {
        for (n, di) in [(9usize, 9usize), (16, 16), (11, 16)] {
            assert_row_replay_exact(kernel, n, 6, di, Some((1, 1)));
        }
    }
}

#[test]
fn rows_of_one_point_replay_exactly() {
    for kernel in Kernel::ALL {
        // N = 3: a single interior point per row.
        assert_row_replay_exact(kernel, 3, 3, 3, None);
        assert_row_replay_exact(kernel, 3, 5, 8, Some((1, 1)));
        // Tiles one point wide in I.
        assert_row_replay_exact(kernel, 12, 5, 16, Some((1, 4)));
        // Red-black: a two-wide tile holds one point of each color's row.
        assert_row_replay_exact(kernel, 12, 5, 12, Some((2, 3)));
    }
}
