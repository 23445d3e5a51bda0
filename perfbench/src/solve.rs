//! `solve-l3` and `solve-dram`: wall-clock stencil execution — spatial
//! sweeps under the Orig and GcdPad plans at one and two threads,
//! time-tiled JACOBI and REDBLACK, and (at L3 size) multigrid V-cycles.
//!
//! Work runs in phases of one kernel and one array layout each, so at
//! DRAM size at most one kernel's arrays are resident at a time.

use std::time::Instant;

use tiling3d_bench::{plan_for, SweepConfig};
use tiling3d_core::{gcd_pad, plan_temporal, CacheSpec, ExecBackend, TemporalKernel, Transform};
use tiling3d_grid::{fill_random, Array3};
use tiling3d_loopnest::{StencilShape, TileDims};
use tiling3d_multigrid::{MgConfig, MgSolver, RoutineStats};
use tiling3d_stencil::kernels::{Kernel, KernelState};
use tiling3d_stencil::redblack::Schedule;
use tiling3d_stencil::resid::Coeffs;
use tiling3d_stencil::{reference, timetile};

use crate::host;
use crate::inputs::{Rng, SolveInputs};
use crate::report::Outcome;
use crate::stats::median;

/// Worker threads of the parallel arms: fixed, so figures do not drift
/// with the host's core count.
pub const JOBS: usize = 2;

const JACOBI_C: f64 = 1.0 / 6.0;
const RB_C1: f64 = 0.4;
const RB_C2: f64 = 0.1;

/// Timed calls every configuration gets at least.
const MIN_REPS: usize = 3;

/// Multigrid's share of an L3 run, in units of one stencil
/// configuration's time: V-cycles take ~100 ms, so they need a larger
/// share than a sweep to collect a steady median.
const MG_SHARE: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layout {
    Orig,
    GcdPad,
}

impl Layout {
    fn name(self) -> &'static str {
        match self {
            Layout::Orig => "orig",
            Layout::GcdPad => "gcdpad",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// One sweep: `Kernel::run` at one thread, `Kernel::run_parallel`
    /// (K slabs) at more.
    Spatial(usize),
    /// `steps` sweeps through the time-skewed schedule.
    Temporal(usize),
}

/// One timed configuration and its samples.
struct Cfg {
    kernel: Kernel,
    layout: Layout,
    op: Op,
    flops: u64,
    /// Bytes a sweep-by-sweep schedule would move: every array read or
    /// written once per sweep (computed, not measured).
    bytes: u64,
    times: Vec<f64>,
}

impl Cfg {
    fn label(&self) -> String {
        let k = self.kernel.name().to_ascii_lowercase();
        match self.op {
            Op::Spatial(t) => format!("stencil.gflops.{k}.{}.t{t}", self.layout.name()),
            Op::Temporal(t) => format!("timetile.gflops.{k}.t{t}"),
        }
    }

    fn seconds(&self) -> f64 {
        median(&self.times).unwrap_or(f64::NAN)
    }

    fn gflops(&self) -> f64 {
        self.flops as f64 / self.seconds() / 1e9
    }
}

fn alloc(kernel: Kernel, n: usize, nk: usize, di: usize, dj: usize) -> KernelState {
    let arr = || Array3::with_padding(n, n, nk, di, dj);
    match kernel {
        Kernel::Jacobi => KernelState::Jacobi { a: arr(), b: arr() },
        Kernel::RedBlack => KernelState::RedBlack { a: arr() },
        Kernel::Resid => KernelState::Resid {
            r: arr(),
            u: arr(),
            v: arr(),
        },
    }
}

/// Deterministic contents from `seed`, by logical coordinate, so every
/// layout holds the same values. Both Jacobi buffers get the same data,
/// as a time-tiled ping-pong pair requires.
fn fill(state: &mut KernelState, seed: u64) {
    match state {
        KernelState::Jacobi { a, b } => {
            fill_random(a, seed);
            fill_random(b, seed);
        }
        KernelState::RedBlack { a } => fill_random(a, seed),
        KernelState::Resid { r, u, v } => {
            r.fill(0.0);
            fill_random(u, seed);
            fill_random(v, seed ^ 0xABCD);
        }
    }
}

/// Copies `pristine` — the array [`fill`] produced — over every array of
/// a Jacobi or red-black state, restoring the filled state at memory
/// speed for the verdicts that need a fresh start.
fn restore(state: &mut KernelState, pristine: &Array3<f64>) {
    let src = pristine.as_slice();
    match state {
        KernelState::Jacobi { a, b } => {
            a.as_mut_slice().copy_from_slice(src);
            b.as_mut_slice().copy_from_slice(src);
        }
        KernelState::RedBlack { a } => a.as_mut_slice().copy_from_slice(src),
        KernelState::Resid { .. } => unreachable!("RESID verdicts never restart from the fill"),
    }
}

/// FNV-1a over the bit patterns of the interior points — the points a
/// sweep writes — so equal hashes mean bitwise-equal results across
/// layouts.
fn interior_hash(a: &Array3<f64>) -> u64 {
    let s = a.as_slice();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for k in 1..a.nk() - 1 {
        for j in 1..a.nj() - 1 {
            let row = a.offset_of(1, j, k);
            for v in &s[row..row + a.ni() - 2] {
                h ^= v.to_bits();
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn tile_dims(tile: Option<(usize, usize)>) -> Option<TileDims> {
    tile.map(|(ti, tj)| TileDims::new(ti, tj))
}

/// The per-point reference sweep (`stencil::reference`) of `state`'s kernel.
fn reference_sweep(state: &mut KernelState, tile: Option<(usize, usize)>) {
    let t = tile_dims(tile);
    match state {
        KernelState::Jacobi { a, b } => reference::jacobi3d(a, b, JACOBI_C, t),
        KernelState::RedBlack { a } => {
            let sched = t.map_or(Schedule::Naive, Schedule::Tiled);
            reference::redblack(a, RB_C1, RB_C2, sched);
        }
        KernelState::Resid { r, u, v } => reference::resid(r, u, v, &Coeffs::MGRID_A, t),
    }
}

/// Runs `f` on the Jacobi buffers as the time-tiled ping-pong pair
/// `[input, output]`.
fn with_pair(state: &mut Option<KernelState>, f: impl FnOnce(&mut [Array3<f64>; 2])) {
    let Some(KernelState::Jacobi { a, b }) = state.take() else {
        unreachable!("time-tiled Jacobi runs on Jacobi state");
    };
    let mut bufs = [b, a];
    f(&mut bufs);
    let [b, a] = bufs;
    *state = Some(KernelState::Jacobi { a, b });
}

/// Output grid of a time-tiled run of `steps` steps.
fn temporal_output(state: &KernelState, steps: usize) -> &Array3<f64> {
    match state {
        // Pair order is [b, a]: step t reads pair[t % 2].
        KernelState::Jacobi { a, b } => {
            if steps.is_multiple_of(2) {
                b
            } else {
                a
            }
        }
        other => other.output(),
    }
}

/// Everything one phase (kernel x layout) needs.
struct Phase {
    kernel: Kernel,
    layout: Layout,
    tile: Option<(usize, usize)>,
    di: usize,
    dj: usize,
}

struct Solve<'a> {
    inp: &'a SolveInputs,
    time_tile: [timetile::TimeTile; 2],
    out: &'a mut Outcome,
    alloc_fill_s: f64,
    golden: Vec<(Kernel, u64)>,
}

impl Solve<'_> {
    fn check(&mut self, what: &str, ok: bool) {
        self.out.attempted += 1;
        self.out.verdict(what, 1, u64::from(!ok));
    }

    fn temporal_tile(&self, kernel: Kernel) -> timetile::TimeTile {
        self.time_tile[usize::from(kernel == Kernel::RedBlack)]
    }

    fn run_op(
        &self,
        kernel: Kernel,
        op: Op,
        tile: Option<(usize, usize)>,
        st: &mut Option<KernelState>,
    ) {
        let steps = self.inp.steps;
        match op {
            Op::Spatial(1) => kernel.run(st.as_mut().expect("state present"), tile),
            Op::Spatial(t) => kernel.run_parallel(st.as_mut().expect("state present"), tile, t),
            Op::Temporal(t) => {
                let tt = self.temporal_tile(kernel);
                match kernel {
                    Kernel::Jacobi => with_pair(st, |bufs| {
                        timetile::jacobi_time_tiled(bufs, JACOBI_C, steps, tt, t);
                    }),
                    _ => {
                        let Some(KernelState::RedBlack { a }) = st.as_mut() else {
                            unreachable!("time-tiled red-black runs on red-black state");
                        };
                        timetile::redblack_time_tiled(a, RB_C1, RB_C2, steps, tt, t);
                    }
                }
            }
        }
    }

    /// One timed call of `c`.
    fn timed(&mut self, c: &mut Cfg, tile: Option<(usize, usize)>, st: &mut Option<KernelState>) {
        let t0 = Instant::now();
        self.run_op(c.kernel, c.op, tile, st);
        c.times.push(t0.elapsed().as_secs_f64());
        self.out.attempted += 1;
    }

    /// Allocates, fills and verifies one phase's state, then times its
    /// configurations for `budget` seconds in alternating rounds.
    fn phase(&mut self, ph: &Phase, cfgs: &mut [Cfg], budget: f64) {
        let (n, nk, seed) = (self.inp.n, self.inp.nk, self.inp.fill_seed);
        let t0 = Instant::now();
        let mut st = Some(alloc(ph.kernel, n, nk, ph.di, ph.dj));
        fill(st.as_mut().expect("state present"), seed);
        let dt = t0.elapsed().as_secs_f64();
        self.alloc_fill_s += dt;
        self.out.setup_s += dt;

        // Red-black sweeps in place and time-tiled runs advance their
        // buffers, so their verdicts restart from a copy of the fill.
        let in_place = ph.kernel == Kernel::RedBlack;
        let temporal = cfgs.iter().any(|c| matches!(c.op, Op::Temporal(_)));
        let pristine = match st.as_ref() {
            Some(KernelState::Jacobi { b, .. }) if temporal => Some(b.clone()),
            Some(KernelState::RedBlack { a }) => Some(a.clone()),
            _ => None,
        };
        let refill = |st: &mut Option<KernelState>| {
            let p = pristine
                .as_ref()
                .expect("phases that restart keep their fill");
            restore(st.as_mut().expect("state present"), p);
        };

        let dram = self.dram();
        if ph.kernel == Kernel::Resid && ph.layout == Layout::Orig && dram {
            let Some(KernelState::Resid { r, u, v }) = st.as_mut() else {
                unreachable!("RESID phase holds RESID state");
            };
            let gbps = stream_triad(r.as_mut_slice(), u.as_slice(), v.as_slice());
            self.out.layer("mem.stream_gbps", gbps, "GB/s");
            r.fill(0.0);
        }

        // Verdicts, outside the timed region. Spatial: every arm against
        // the per-point reference — at DRAM size, where that costs seconds
        // per sweep, against the golden-gated explicit-lane engine, whose
        // row kernels are independent of the row engine the timed arms
        // run — and that golden result against the other layout's.
        // Temporal: every arm against T per-point reference sweeps.
        let name = ph.kernel.name();
        if dram {
            ph.kernel.run_with(
                st.as_mut().expect("state present"),
                ph.tile,
                ExecBackend::Lane,
            );
        } else {
            reference_sweep(st.as_mut().expect("state present"), ph.tile);
        }
        let golden = interior_hash(st.as_ref().expect("state present").output());
        if let Some(&(_, other)) = self.golden.iter().find(|(k, _)| *k == ph.kernel) {
            self.check(&format!("{name} golden orig == gcdpad"), golden == other);
        }
        self.golden.push((ph.kernel, golden));
        for c in cfgs.iter_mut().filter(|c| matches!(c.op, Op::Spatial(_))) {
            if in_place {
                refill(&mut st);
            }
            self.timed(c, ph.tile, &mut st);
            let h = interior_hash(st.as_ref().expect("state present").output());
            let source = if dram { "lane-engine" } else { "reference" };
            self.check(&format!("{} == {source} golden", c.label()), h == golden);
        }
        if temporal {
            let steps = self.inp.steps;
            refill(&mut st);
            match ph.kernel {
                Kernel::Jacobi => with_pair(&mut st, |bufs| {
                    timetile::jacobi_steps_reference(bufs, JACOBI_C, steps);
                }),
                _ => {
                    let Some(KernelState::RedBlack { a }) = st.as_mut() else {
                        unreachable!("red-black phase holds red-black state");
                    };
                    timetile::redblack_steps_reference(a, RB_C1, RB_C2, steps);
                }
            }
            let golden_t =
                interior_hash(temporal_output(st.as_ref().expect("state present"), steps));
            for c in cfgs.iter_mut().filter(|c| matches!(c.op, Op::Temporal(_))) {
                refill(&mut st);
                self.timed(c, ph.tile, &mut st);
                let h = interior_hash(temporal_output(st.as_ref().expect("state present"), steps));
                self.check(
                    &format!("{} == {steps} reference steps", c.label()),
                    h == golden_t,
                );
            }
        }

        // Timed rounds: one call per configuration per round, so slow
        // drift hits every arm alike. The verdict calls above were timed
        // too and count as the first round.
        let start = Instant::now();
        while cfgs.iter().any(|c| c.times.len() < MIN_REPS)
            || start.elapsed().as_secs_f64() < budget
        {
            for c in cfgs.iter_mut() {
                self.timed(c, ph.tile, &mut st);
            }
        }
        let health = st.as_ref().expect("state present").output();
        let finite = health.as_slice().iter().all(|v| v.is_finite());
        self.check(
            &format!("{name}/{} outputs finite after timing", ph.layout.name()),
            finite,
        );
    }

    /// Whether every array holds at least four times the last-level
    /// cache, read from the host rather than assumed.
    fn dram(&self) -> bool {
        host::last_level_cache_bytes().is_ok_and(|llc| self.inp.array_bytes() >= 4 * llc)
    }
}

/// Median bandwidth of `dst = x + s * y` over `JOBS` threads, counting
/// the three arrays once each (a STREAM-style triad).
fn stream_triad(dst: &mut [f64], x: &[f64], y: &[f64]) -> f64 {
    let bytes = 3.0 * std::mem::size_of_val(dst) as f64;
    let chunk = dst.len().div_ceil(JOBS);
    let mut times = Vec::new();
    for rep in 0..5 {
        let s = 1.0 + rep as f64 * 1e-3;
        let t0 = Instant::now();
        std::thread::scope(|sc| {
            for ((d, a), b) in dst
                .chunks_mut(chunk)
                .zip(x.chunks(chunk))
                .zip(y.chunks(chunk))
            {
                sc.spawn(move || {
                    for ((d, a), b) in d.iter_mut().zip(a).zip(b) {
                        *d = a + s * b;
                    }
                });
            }
        });
        times.push(t0.elapsed().as_secs_f64());
    }
    bytes / median(&times).expect("five samples") / 1e9
}

/// Runs the solve workload on `inp` for about `seconds`.
///
/// # Errors
/// When the last-level cache size cannot be read.
pub fn run(inp: &SolveInputs, seconds: f64, traced: bool, out: &mut Outcome) -> Result<(), String> {
    let llc = host::last_level_cache_bytes()?;
    let (n, nk) = (inp.n, inp.nk);
    let cfg = SweepConfig {
        nk,
        ..SweepConfig::default()
    };
    // Time tiles sized for half the last-level cache shared by JOBS
    // workers; the tile is the same at one and two threads.
    let tcache = CacheSpec::from_bytes(usize::try_from(llc / 2).map_err(|e| e.to_string())?);
    let tt = |k| {
        let p = plan_temporal(k, tcache, n * n, inp.steps, JOBS);
        timetile::TimeTile { st: p.st, sk: p.sk }
    };
    let time_tile = [tt(TemporalKernel::Jacobi), tt(TemporalKernel::RedBlack)];

    let mut phases = Vec::new();
    let mut cfgs: Vec<Vec<Cfg>> = Vec::new();
    for kernel in Kernel::ALL {
        for layout in [Layout::Orig, Layout::GcdPad] {
            let t = match layout {
                Layout::Orig => Transform::Orig,
                Layout::GcdPad => Transform::GcdPad,
            };
            let plan = plan_for(&cfg, kernel, t, n);
            let flops = kernel.sweep_flops(n, nk);
            let moved = if kernel == Kernel::Resid { 3 } else { 2 };
            let bytes = moved * inp.array_bytes();
            let mut ops = vec![Op::Spatial(1), Op::Spatial(JOBS)];
            if layout == Layout::GcdPad && kernel != Kernel::Resid {
                ops.extend([Op::Temporal(1), Op::Temporal(JOBS)]);
            }
            cfgs.push(
                ops.into_iter()
                    .map(|op| {
                        let steps = if matches!(op, Op::Temporal(_)) {
                            inp.steps as u64
                        } else {
                            1
                        };
                        Cfg {
                            kernel,
                            layout,
                            op,
                            flops: flops * steps,
                            bytes: bytes * steps,
                            times: Vec::new(),
                        }
                    })
                    .collect(),
            );
            phases.push(Phase {
                kernel,
                layout,
                tile: plan.tile,
                di: plan.padded_di,
                dj: plan.padded_dj,
            });
        }
    }
    let mg_cfgs = if inp.mg_levels > 0 { MG_SHARE } else { 0 };
    let per_cfg = seconds / (cfgs.iter().map(Vec::len).sum::<usize>() + mg_cfgs) as f64;

    let mut mg = (inp.mg_levels > 0).then(|| {
        let t0 = Instant::now();
        let mg = Multigrid::new(inp);
        out.setup_s += t0.elapsed().as_secs_f64();
        mg
    });
    let mut s = Solve {
        inp,
        time_tile,
        out,
        alloc_fill_s: 0.0,
        golden: Vec::new(),
    };
    for (ph, c) in phases.iter().zip(cfgs.iter_mut()) {
        let budget = per_cfg * c.len() as f64;
        s.phase(ph, c, budget);
        if let Some(mg) = &mut mg {
            mg.round(per_cfg * mg_cfgs as f64 / phases.len() as f64, s.out);
        }
    }
    let alloc_fill_s = s.alloc_fill_s;
    let all: Vec<Cfg> = cfgs.into_iter().flatten().collect();
    let sum = |spatial: bool, f: &dyn Fn(&Cfg) -> f64| -> f64 {
        all.iter()
            .filter(|c| matches!(c.op, Op::Spatial(_)) == spatial)
            .map(f)
            .sum()
    };
    let (sp_flops, sp_s) = (sum(true, &|c| c.flops as f64), sum(true, &Cfg::seconds));
    let (tt_flops, tt_s) = (sum(false, &|c| c.flops as f64), sum(false, &Cfg::seconds));
    out.work_rate = (sp_flops + tt_flops) / (sp_s + tt_s);
    out.named("spatial_gflops", sp_flops / sp_s / 1e9, "GFLOP/s");
    out.named("temporal_gflops", tt_flops / tt_s / 1e9, "GFLOP/s");

    match mg {
        Some(mg) => mg.finish(out),
        // A typical call: the median of the per-configuration medians.
        None => out.op_ms = all.iter().map(|c| c.seconds() * 1e3).collect(),
    }

    if traced {
        let gf = |label: &str| {
            all.iter()
                .find(|c| c.label() == label)
                .map_or(f64::NAN, Cfg::gflops)
        };
        for c in &all {
            out.layer(&c.label(), c.gflops(), "GFLOP/s");
        }
        let mut speedups = Vec::new();
        for k in ["jacobi", "redblack", "resid"] {
            let sp = gf(&format!("stencil.gflops.{k}.gcdpad.t2"))
                / gf(&format!("stencil.gflops.{k}.gcdpad.t1"));
            out.layer(&format!("parallel.speedup_t2.{k}"), sp, "x");
            speedups.push(format!("{k} {sp:.2}x"));
            if k != "resid" {
                let vs = gf(&format!("timetile.gflops.{k}.t1"))
                    / gf(&format!("stencil.gflops.{k}.gcdpad.t1"));
                out.layer(&format!("timetile.vs_spatial.{k}"), vs, "x");
            }
        }
        out.notes.push(format!(
            "attribution parallel t2/t1 (GcdPad, K-slab, {JOBS} threads) at {n}x{n}x{nk}: {}",
            speedups.join(", ")
        ));
        let spatial_gbps = sum(true, &|c| c.bytes as f64) / sp_s / 1e9;
        out.layer("mem.computed_gbps.spatial", spatial_gbps, "GB/s");
        out.layer(
            "mem.computed_gbps.temporal",
            sum(false, &|c| c.bytes as f64) / tt_s / 1e9,
            "GB/s",
        );
        if let Some(stream) = out
            .layer
            .iter()
            .find(|m| m.name == "mem.stream_gbps")
            .map(|m| m.value)
        {
            out.layer("mem.bw_frac", spatial_gbps / stream, "frac");
        }
        out.layer("grid.alloc_fill_s", alloc_fill_s, "s");
    }
    Ok(())
}

/// Untiled and GcdPad-tiled MGRID solvers. V-cycles alternate between
/// them in short rounds spread across the run, so a noisy moment of the
/// host lands on a few cycles rather than on all of them; each operation
/// is one V-cycle of each solver.
struct Multigrid {
    solvers: [MgSolver; 2],
    norms: [Vec<f64>; 2],
    cycles_ms: [Vec<f64>; 2],
}

impl Multigrid {
    fn new(inp: &SolveInputs) -> Self {
        let levels = inp.mg_levels;
        let m = 1usize << levels;
        let g = gcd_pad(
            CacheSpec::ELEMENTS_16K_DOUBLES,
            m + 2,
            m + 2,
            &StencilShape::resid27(),
        );
        let base = MgConfig::mgrid(levels);
        let tiled = MgConfig {
            pad_finest: Some((g.di_p, g.dj_p)),
            tile_finest: Some(TileDims::new(g.iter_tile.0, g.iter_tile.1)),
            ..base
        };
        let mut solvers = [MgSolver::new(base), MgSolver::new(tiled)];
        for s in &mut solvers {
            let mut rng = Rng::new(inp.fill_seed, 5);
            s.set_rhs(|_, _, _| rng.unit() - 0.5);
        }
        Multigrid {
            solvers,
            norms: [Vec::new(), Vec::new()],
            cycles_ms: [Vec::new(), Vec::new()],
        }
    }

    /// V-cycle pairs for `budget` seconds (at least one pair).
    fn round(&mut self, budget: f64, out: &mut Outcome) {
        let start = Instant::now();
        loop {
            for (i, s) in self.solvers.iter_mut().enumerate() {
                let t0 = Instant::now();
                self.norms[i].push(s.iterate());
                self.cycles_ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
            }
            out.attempted += 2;
            if start.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
    }

    fn finish(mut self, out: &mut Outcome) {
        let c = &self.cycles_ms;
        out.op_ms = c[0].iter().zip(&c[1]).map(|(a, b)| (a + b) / 2.0).collect();
        let [m0, m1] = [median(&c[0]), median(&c[1])].map(|m| m.unwrap_or(f64::NAN));
        out.named("mg_vcycle_ms", (m0 + m1) / 2.0, "ms");
        out.named("mg_vcycle_ms.untiled", m0, "ms");
        out.named("mg_vcycle_ms.gcdpad", m1, "ms");

        let [n0, n1] = &self.norms;
        let same = n0.iter().zip(n1).all(|(a, b)| a.to_bits() == b.to_bits());
        let [f0, f1] = [0, 1].map(|i| self.solvers[i].residual_norm());
        out.attempted += 1;
        out.verdict(
            "MGRID residual norms, untiled == GcdPad-tiled, every cycle",
            1,
            u64::from(!(same && f0.to_bits() == f1.to_bits())),
        );

        let cycles_run = (c[0].len() + c[1].len()) as f64;
        let mut st = RoutineStats::default();
        for s in &self.solvers {
            st.resid += s.stats.resid;
            st.psinv += s.stats.psinv;
            st.rprj3 += s.stats.rprj3;
            st.interp += s.stats.interp;
        }
        let per_cycle = |d: std::time::Duration| d.as_secs_f64() * 1e3 / cycles_run;
        out.layer("mg.resid_ms", per_cycle(st.resid), "ms");
        out.layer("mg.psinv_ms", per_cycle(st.psinv), "ms");
        out.layer("mg.rprj3_ms", per_cycle(st.rprj3), "ms");
        out.layer("mg.interp_ms", per_cycle(st.interp), "ms");
        out.layer("mg.resid_frac", st.resid_fraction(), "frac");
    }
}
