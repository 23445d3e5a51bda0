//! Cross-backend golden gate: every execution backend must be **bitwise
//! identical** to the per-point reference for every kernel, schedule,
//! transform plan, size, padding and thread count.
//!
//! This is the contract that makes the engine a pure speed detail and the
//! lane engine an independent oracle for the row engine: the lane kernels
//! vectorize across `i` but keep the reference accumulation order within
//! each point, so no geometry may ever perturb a bit. The
//! matrix deliberately hits the lane engine's remainder paths — with
//! `LaneEngine = LaneStrategy<8, 4>`, interior row lengths `1..=18`
//! (from `n in 3..=20`) cover `len < LANES`, `len % LANES != 0` and
//! `len % (LANES * UNROLL) != 0`; `n = 34` lands exactly on a
//! `LANES * UNROLL` multiple and `n = 37` leaves a 3-element tail.

use tiling3d_core::{plan, CacheSpec, Transform};
use tiling3d_grid::{fill_random, fill_random2, Array2, Array3};
use tiling3d_loopnest::TileDims;
use tiling3d_stencil::backend::{Backend, ExecBackend, LaneEngine, LaneStrategy, RowEngine};
use tiling3d_stencil::kernels::{Kernel, KernelState};
use tiling3d_stencil::redblack::Schedule;
use tiling3d_stencil::redblack2d::Schedule2D;
use tiling3d_stencil::resid::Coeffs;
use tiling3d_stencil::timetile::{self, TimeTile};
use tiling3d_stencil::{
    copyopt, jacobi2d, jacobi3d, parallel, redblack, redblack2d, reference, resid,
};

/// Deterministic seed per configuration, so failures reproduce exactly.
fn seed(n: usize, a: usize, b: usize) -> u64 {
    0xC0FF_EE00_5EED_0001u64 ^ ((n as u64) << 32) ^ ((a as u64) << 16) ^ b as u64
}

/// One per-point reference sweep on dispatch-level kernel state.
fn run_reference(kernel: Kernel, state: &mut KernelState, tile: Option<(usize, usize)>) {
    let t = tile.map(|(ti, tj)| TileDims::new(ti, tj));
    match (kernel, state) {
        (Kernel::Jacobi, KernelState::Jacobi { a, b }) => {
            reference::jacobi3d(a, b, 1.0 / 6.0, t);
        }
        (Kernel::RedBlack, KernelState::RedBlack { a }) => {
            let sched = match t {
                None => Schedule::Naive,
                Some(t) => Schedule::Tiled(t),
            };
            reference::redblack(a, 0.4, 0.1, sched);
        }
        (Kernel::Resid, KernelState::Resid { r, u, v }) => {
            reference::resid(r, u, v, &Coeffs::MGRID_A, t);
        }
        _ => panic!("kernel/state mismatch"),
    }
}

fn out_of(state: &KernelState) -> &Array3<f64> {
    match state {
        KernelState::Jacobi { a, .. } | KernelState::RedBlack { a } => a,
        KernelState::Resid { r, .. } => r,
    }
}

/// The planner-facing gate: for every kernel x transform x size, the
/// plan's exact padded geometry and tile run bitwise identically on the
/// row engine, the lane engine, and the per-point reference.
#[test]
fn all_backends_match_reference_across_transform_plans() {
    let cache = CacheSpec::from_bytes(16 * 1024);
    let sizes: Vec<usize> = (3..=20).chain([34, 37]).collect();
    for kernel in Kernel::ALL {
        for t in [
            Transform::Orig,
            Transform::Tile,
            Transform::Pad,
            Transform::GcdPad,
        ] {
            for &n in &sizes {
                let p = plan(t, cache, n, n, &kernel.shape());
                let mut row = kernel.make_state(n, n, &p, seed(n, p.padded_di, p.padded_dj));
                let mut lane = row.clone();
                let mut want = row.clone();
                kernel.run_with(&mut row, p.tile, ExecBackend::Row);
                kernel.run_with(&mut lane, p.tile, ExecBackend::Lane);
                run_reference(kernel, &mut want, p.tile);
                let ctx = format!("{}/{} n={n} tile={:?}", kernel.name(), t.name(), p.tile);
                assert!(out_of(&row).logical_eq(out_of(&want)), "row != ref: {ctx}");
                assert!(
                    out_of(&lane).logical_eq(out_of(&want)),
                    "lane != ref: {ctx}"
                );
            }
        }
    }
}

/// The K-slab parallel paths: every backend x thread count reproduces the
/// sequential row-engine sweep bit for bit.
#[test]
fn parallel_backends_match_row_for_every_thread_count() {
    let cache = CacheSpec::from_bytes(16 * 1024);
    for kernel in Kernel::ALL {
        for n in [5usize, 12, 20, 37] {
            let p = plan(Transform::GcdPad, cache, n, n, &kernel.shape());
            let mut want = kernel.make_state(n, n, &p, seed(n, 1, 2));
            kernel.run(&mut want, p.tile);
            for threads in [1usize, 2, 7] {
                for backend in [ExecBackend::Row, ExecBackend::Lane] {
                    let mut got = kernel.make_state(n, n, &p, seed(n, 1, 2));
                    kernel.run_parallel_with(&mut got, p.tile, threads, backend);
                    assert!(
                        out_of(&got).logical_eq(out_of(&want)),
                        "{} n={n} threads={threads} backend={}",
                        kernel.name(),
                        backend.name()
                    );
                }
            }
        }
    }
}

/// Drives every sweep family in the crate through one concrete backend
/// and asserts bitwise identity with the per-point reference. Covers the
/// contiguous rows (Jacobi, RESID), the stride-2 parity rows (red-black,
/// both colours and both 2D/3D variants) and the copy-optimized schedule.
fn check_strategy<B: Backend>(label: &str) {
    for n in (3..=20usize).chain([34, 37]) {
        for (di, dj) in [(n, n), (n + 1, n + 5), (n + 5, n + 1)] {
            let s = seed(n, di, dj);

            // jacobi3d: untiled, tiled (degenerate corners), copy-opt.
            let mut b = Array3::with_padding(n, n, n, di, dj);
            fill_random(&mut b, s);
            let mut want = Array3::with_padding(n, n, n, di, dj);
            reference::jacobi3d(&mut want, &b, 1.0 / 6.0, None);
            let mut got = Array3::with_padding(n, n, n, di, dj);
            jacobi3d::sweep_with::<B>(&mut got, &b, 1.0 / 6.0, None);
            assert!(want.logical_eq(&got), "{label}: jacobi3d n={n} di={di}");
            for (ti, tj) in [(64usize, 64usize), (1, 1), (3, 2)] {
                let t = TileDims::new(ti, tj);
                let mut want = Array3::with_padding(n, n, n, di, dj);
                reference::jacobi3d(&mut want, &b, 1.0 / 6.0, Some(t));
                let mut got = Array3::with_padding(n, n, n, di, dj);
                jacobi3d::sweep_with::<B>(&mut got, &b, 1.0 / 6.0, Some(t));
                assert!(
                    want.logical_eq(&got),
                    "{label}: jacobi3d tiled ({ti},{tj}) n={n} di={di}"
                );
                let mut want = Array3::with_padding(n, n, n, di, dj);
                reference::jacobi3d(&mut want, &b, 1.0 / 6.0, None);
                let mut got = Array3::with_padding(n, n, n, di, dj);
                copyopt::sweep_tiled_copying_with::<B>(&mut got, &b, 1.0 / 6.0, t);
                assert!(
                    want.logical_eq(&got),
                    "{label}: copyopt ({ti},{tj}) n={n} di={di}"
                );
            }

            // resid: the 27-point rows.
            let mut v = Array3::with_padding(n, n, n, di, dj);
            fill_random(&mut v, s ^ 0xABCD);
            for tile in [None, Some(TileDims::new(3, 2))] {
                let mut want = Array3::with_padding(n, n, n, di, dj);
                reference::resid(&mut want, &b, &v, &Coeffs::MGRID_A, tile);
                let mut got = Array3::with_padding(n, n, n, di, dj);
                resid::sweep_with::<B>(&mut got, &b, &v, &Coeffs::MGRID_A, tile);
                assert!(
                    want.logical_eq(&got),
                    "{label}: resid {tile:?} n={n} di={di}"
                );
            }

            // redblack: stride-2 parity rows under every schedule family.
            let mut schedules = vec![Schedule::Naive, Schedule::Fused];
            schedules.push(Schedule::Tiled(TileDims::new(3, 2)));
            for sched in schedules {
                let mut want = b.clone();
                reference::redblack(&mut want, 0.4, 0.1, sched);
                let mut got = b.clone();
                redblack::sweep_with::<B>(&mut got, 0.4, 0.1, sched);
                assert!(
                    want.logical_eq(&got),
                    "{label}: redblack {sched:?} n={n} di={di}"
                );
            }
        }

        // The 2D variants (one pad axis).
        for di in [n, n + 1, n + 5] {
            let mut b2 = Array2::with_padding(n, n, di);
            fill_random2(&mut b2, seed(n, di, 9));
            let mut want = Array2::with_padding(n, n, di);
            reference::jacobi2d(&mut want, &b2, 0.25);
            let mut got = Array2::with_padding(n, n, di);
            jacobi2d::sweep_with::<B>(&mut got, &b2, 0.25);
            assert!(want.logical_eq(&got), "{label}: jacobi2d n={n} di={di}");
            for sched in [Schedule2D::Naive, Schedule2D::Fused] {
                let mut want = b2.clone();
                reference::redblack2d(&mut want, 0.4, 0.1, sched);
                let mut got = b2.clone();
                redblack2d::sweep_with::<B>(&mut got, 0.4, 0.1, sched);
                assert!(
                    want.logical_eq(&got),
                    "{label}: redblack2d {sched:?} n={n} di={di}"
                );
            }
        }
    }
}

#[test]
fn row_engine_matches_reference_bitwise() {
    check_strategy::<RowEngine>("row");
}

#[test]
fn default_lane_engine_matches_reference_bitwise() {
    check_strategy::<LaneEngine>("lane<8,4>");
}

/// Off-default lane/unroll shapes: a scalar-wide strategy, a narrow SSE
/// pair, and an unroll that does not divide the lane count evenly.
#[test]
fn alternate_lane_strategies_match_reference_bitwise() {
    check_strategy::<LaneStrategy<2, 1>>("lane<2,1>");
    check_strategy::<LaneStrategy<4, 2>>("lane<4,2>");
    check_strategy::<LaneStrategy<8, 3>>("lane<8,3>");
}

/// Degenerate grids (`nk < 3`): no interior, so the parallel paths must
/// leave the output untouched without panicking on every backend (the
/// sequential sweeps keep their documented `IterSpace::interior`
/// contract, as in `row_engine_golden.rs`).
#[test]
fn degenerate_grids_no_op_on_every_engine() {
    fn check<B: Backend>() {
        for nk in [1usize, 2] {
            let mut b = Array3::new(6, 6, nk);
            fill_random(&mut b, 11);
            let zero = Array3::new(6, 6, nk);
            let mut a = zero.clone();
            parallel::jacobi3d_sweep_with::<B>(&mut a, &b, 0.5, None, 4);
            assert!(a.logical_eq(&zero), "{} nk={nk}", B::NAME);
            let mut rb = b.clone();
            parallel::redblack_sweep_with::<B>(&mut rb, 0.4, 0.1, None, 7);
            assert!(rb.logical_eq(&b), "{} nk={nk}", B::NAME);
            let mut r = zero.clone();
            parallel::resid_sweep_with::<B>(&mut r, &b, &b, &Coeffs::MGRID_A, None, 4);
            assert!(r.logical_eq(&zero), "{} nk={nk}", B::NAME);
        }
    }
    check::<RowEngine>();
    check::<LaneEngine>();
}

/// The time-tiled engines: the lane backend's skewed (T, K') schedule
/// must reproduce `steps` reference sweeps bitwise, sequential and
/// wavefront-parallel alike.
#[test]
fn time_tiled_backends_match_iterated_reference() {
    let (n, nk, steps) = (10usize, 16usize, 4usize);
    let tile = TimeTile { st: 2, sk: 5 };
    let mut seed_buf = Array3::with_padding(n, n, nk, n + 1, n + 3);
    fill_random(&mut seed_buf, 0x7A11);

    let mut jac_want = [seed_buf.clone(), seed_buf.clone()];
    timetile::jacobi_steps_reference(&mut jac_want, 1.0 / 6.0, steps);
    let mut rb_want = seed_buf.clone();
    timetile::redblack_steps_reference(&mut rb_want, 0.4, 0.1, steps);

    for threads in [1usize, 2, 7] {
        let mut bufs = [seed_buf.clone(), seed_buf.clone()];
        timetile::jacobi_time_tiled_with::<LaneEngine>(&mut bufs, 1.0 / 6.0, steps, tile, threads);
        assert!(
            jac_want[steps % 2].logical_eq(&bufs[steps % 2]),
            "jacobi lane timetile threads={threads}"
        );
        let mut a = seed_buf.clone();
        timetile::redblack_time_tiled_with::<LaneEngine>(&mut a, 0.4, 0.1, steps, tile, threads);
        assert!(
            rb_want.logical_eq(&a),
            "redblack lane timetile threads={threads}"
        );
    }
}
