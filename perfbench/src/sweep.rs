//! `paper-sweep`: the `fig_miss`/`table3` simulation path at the paper's
//! geometry — every kernel under all six transforms, simulated on the
//! sharded worker pool.

use std::time::Instant;

use tiling3d_bench::{plan_for, simulate_grid_supervised, SimPoint, SweepConfig, SweepOptions};
use tiling3d_cachesim::{AccessSink, Cache, CacheConfig, CountingSink, Hierarchy};
use tiling3d_core::Transform;
use tiling3d_stencil::kernels::Kernel;

use crate::inputs::{Rng, SweepInputs, CONFLICT_SIZES};
use crate::report::Outcome;
use crate::stats::median;

/// Simulation workers: fixed, so results do not drift with core count.
pub const JOBS: usize = 2;

/// Points replayed through the per-access reference path per run.
const VERIFY_POINTS: usize = 2;

/// Points whose trace walk and cache replay are timed apart.
const PROBE_POINTS: usize = 6;

fn config(n: usize, nk: usize) -> SweepConfig {
    SweepConfig {
        n_min: n,
        n_max: n,
        step: 1,
        nk,
        jobs: JOBS,
        ..SweepConfig::default()
    }
}

/// One simulated point and the miss rates the sweep reported for it.
#[derive(Clone, Copy, Debug)]
struct Point {
    kernel: Kernel,
    t: Transform,
    n: usize,
    l1_pct: f64,
    l2_pct: f64,
    accesses: u64,
}

/// Per-access reference replay: the same two-level write-through
/// hierarchy as [`Hierarchy`], but every access — batched runs included —
/// goes through [`Cache::access_reference`].
struct ReferenceHierarchy {
    l1: Cache,
    l2: Cache,
}

impl AccessSink for ReferenceHierarchy {
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

/// Replays `p` per access and reports whether accesses and both miss
/// rates match the sweep's bit for bit.
fn replay_matches(p: &Point, nk: usize) -> bool {
    let cfg = config(p.n, nk);
    let plan = plan_for(&cfg, p.kernel, p.t, p.n);
    let mut h = ReferenceHierarchy {
        l1: Cache::new(CacheConfig::ULTRASPARC2_L1),
        l2: Cache::new(CacheConfig::ULTRASPARC2_L2),
    };
    p.kernel
        .trace(p.n, nk, plan.padded_di, plan.padded_dj, plan.tile, &mut h);
    let (l1, l2) = (h.l1.stats(), h.l2.stats());
    let l2_pct = if l1.accesses == 0 {
        0.0
    } else {
        100.0 * l2.misses as f64 / l1.accesses as f64
    };
    l1.accesses == p.accesses
        && l1.miss_rate_pct().to_bits() == p.l1_pct.to_bits()
        && l2_pct.to_bits() == p.l2_pct.to_bits()
}

/// Seeded choice of `k` distinct indices below `len`.
fn pick(rng: &mut Rng, len: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..len).collect();
    for i in 0..k.min(len) {
        let j = rng.range(i, len - 1);
        idx.swap(i, j);
    }
    idx.truncate(k.min(len));
    idx
}

/// Pool occupancy: each simulated point's own trace time, as the library
/// reports it, and the wall time of the calls.
#[derive(Default)]
struct PoolTrace {
    tasks_s: Vec<f64>,
    wall_s: f64,
}

/// Simulates one kernel's six transforms at one size through the
/// library's supervised sweep on the [`JOBS`]-worker pool.
fn grid(cfg: &SweepConfig, kernel: Kernel) -> Vec<Result<SimPoint, ()>> {
    match simulate_grid_supervised(cfg, kernel, &Transform::ALL, &SweepOptions::default()) {
        Ok(grid) => grid
            .rows
            .into_iter()
            .flat_map(|(_, r)| r)
            .map(|r| r.map_err(|_| ()))
            .collect(),
        Err(_) => vec![Err(()); Transform::ALL.len()],
    }
}

/// Runs the sweep for at least `seconds` and fills `out`. The work is
/// whole cycles over sizes x kernels, as many as start within `seconds`,
/// so every run measures the same mix of calls whatever the speed of the
/// code; the rate is taken over all of them. A traced run reads pool
/// occupancy from the points' own trace times and, after the timed
/// region, times the trace walk and the cache replay of a seeded subset
/// of points apart.
pub fn run(inputs: &SweepInputs, seconds: f64, traced: bool, out: &mut Outcome) {
    let configs: Vec<SweepConfig> = inputs.sizes.iter().map(|&n| config(n, inputs.nk)).collect();

    // Certify the schedule of every point before simulating any, so an
    // illegal one fails before simulation time is spent (the simulation
    // then plans each point again, as `table3` does). This is a verdict,
    // not set-up: its Pad searches cost from under a millisecond to over
    // 100 ms depending on the seeded sizes.
    let illegal = configs
        .iter()
        .flat_map(|cfg| Kernel::ALL.map(|k| (cfg, k)))
        .flat_map(|(cfg, k)| Transform::ALL.map(|t| (cfg, k, t)))
        .filter(|&(cfg, k, t)| {
            k.plan_certified(t, cfg.cache_spec(), cfg.n_min, cfg.n_min)
                .is_err()
        })
        .count();
    let planned = configs.len() * Kernel::ALL.len() * Transform::ALL.len();
    out.attempted += planned as u64;
    out.verdict(
        "paper-sweep schedules certified",
        planned as u64,
        illegal as u64,
    );

    let mut points: Vec<Point> = Vec::new();
    let mut pool = PoolTrace::default();
    let (mut accesses, mut cycles) = (0u64, 0usize);
    // Accesses and wall time per size, for the per-size rate lines.
    let mut per_size = vec![(0u64, 0.0f64); configs.len()];
    let start = Instant::now();
    loop {
        for (cfg, size) in configs.iter().zip(&mut per_size) {
            for kernel in Kernel::ALL {
                let t0 = Instant::now();
                let results = grid(cfg, kernel);
                let dt = t0.elapsed().as_secs_f64();
                pool.wall_s += dt;
                size.1 += dt;
                // The operation latency is read at the conflict sizes,
                // which every seed draws.
                if CONFLICT_SIZES.contains(&cfg.n_min) {
                    out.op_ms.push(dt * 1e3);
                }
                for (t, r) in Transform::ALL.into_iter().zip(results) {
                    out.attempted += 1;
                    match r {
                        Ok(p) if p.l1_pct.is_finite() && p.l2_pct.is_finite() => {
                            accesses += p.sim.accesses;
                            size.0 += p.sim.accesses;
                            pool.tasks_s.push(p.sim.wall.as_secs_f64());
                            // Later cycles repeat the first one's points.
                            if cycles == 0 {
                                points.push(Point {
                                    kernel,
                                    t,
                                    n: cfg.n_min,
                                    l1_pct: p.l1_pct,
                                    l2_pct: p.l2_pct,
                                    accesses: p.sim.accesses,
                                });
                            }
                        }
                        _ => out.failed += 1,
                    }
                }
            }
        }
        cycles += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let calls = cycles * configs.len() * Kernel::ALL.len();
    out.work_rate = accesses as f64 / pool.wall_s;
    out.named("sim_maccess_per_s", out.work_rate / 1e6, "Maccess/s");
    out.named("sim_cycles", cycles as f64, "count");
    out.named("sim_calls", calls as f64, "count");
    out.notes.push(format!(
        "paper-sweep work: {cycles} whole cycle(s) of {} sizes x {} kernels = {calls} simulate_grid_supervised calls, \
         {} points, {accesses} simulated accesses",
        configs.len(),
        Kernel::ALL.len(),
        calls * Transform::ALL.len(),
    ));
    for (cfg, &(acc, wall)) in configs.iter().zip(&per_size) {
        out.notes.push(format!(
            "paper-sweep N={}: {:.1} Maccess/s",
            cfg.n_min,
            acc as f64 / wall / 1e6
        ));
    }

    let mut rng = Rng::new(inputs.verify_seed, 0);
    let picks = pick(&mut rng, points.len(), VERIFY_POINTS);
    let bad = picks
        .iter()
        .filter(|&&i| !replay_matches(&points[i], inputs.nk))
        .count();
    out.verdict(
        "paper-sweep per-access replay of seeded points",
        picks.len() as u64,
        bad as u64,
    );

    if traced {
        layers(inputs, &points, &pool, &mut rng, out);
    }
}

/// Per-layer figures of a traced sweep: pool occupancy from the points'
/// trace times (the planning each task does first counts as idle), then walk-only and walk-plus-replay timings of seeded points on
/// one thread, so the replay cost is their difference.
fn layers(
    inputs: &SweepInputs,
    points: &[Point],
    pool: &PoolTrace,
    rng: &mut Rng,
    out: &mut Outcome,
) {
    let busy: f64 = pool.tasks_s.iter().sum();
    let idle = 1.0 - busy / (JOBS as f64 * pool.wall_s);
    out.layer("pool.busy_s", busy, "s");
    out.layer("pool.idle_frac", idle, "frac");
    out.layer("pool.task_p50_s", median(&pool.tasks_s).unwrap_or(0.0), "s");
    out.layer(
        "pool.task_max_s",
        pool.tasks_s.iter().copied().fold(0.0, f64::max),
        "s",
    );

    let (mut walk_s, mut sim_s, mut plan_s) = (0.0, 0.0, 0.0);
    let (mut acc, mut l1_miss, mut l2_miss) = (0u64, 0u64, 0u64);
    for i in pick(rng, points.len(), PROBE_POINTS) {
        let p = &points[i];
        let cfg = config(p.n, inputs.nk);
        let t0 = Instant::now();
        let plan = plan_for(&cfg, p.kernel, p.t, p.n);
        plan_s += t0.elapsed().as_secs_f64();
        let (di, dj) = (plan.padded_di, plan.padded_dj);

        let mut count = CountingSink::default();
        let t0 = Instant::now();
        p.kernel
            .trace(p.n, inputs.nk, di, dj, plan.tile, &mut count);
        walk_s += t0.elapsed().as_secs_f64();

        let mut h = Hierarchy::new(cfg.l1, cfg.l2);
        let t0 = Instant::now();
        p.kernel.trace(p.n, inputs.nk, di, dj, plan.tile, &mut h);
        sim_s += t0.elapsed().as_secs_f64();
        acc += count.reads + count.writes;
        l1_miss += h.l1_stats().misses;
        l2_miss += h.l2_stats().misses;
    }
    let replay_s = (sim_s - walk_s).max(0.0);
    out.layer("trace.walk_s", walk_s, "s");
    out.layer(
        "trace.maccess_per_s",
        acc as f64 / walk_s / 1e6,
        "Maccess/s",
    );
    out.layer("cachesim.replay_s", replay_s, "s");
    out.layer(
        "cachesim.maccess_per_s",
        acc as f64 / replay_s / 1e6,
        "Maccess/s",
    );
    out.layer("cachesim.l1_miss_frac", l1_miss as f64 / acc as f64, "frac");
    out.layer("cachesim.l2_miss_frac", l2_miss as f64 / acc as f64, "frac");
    out.notes.push(format!(
        "attribution sim-rate gap: end-to-end {:.1} Maccess/s on {JOBS} workers; one thread walks at {:.1} and \
         walks+replays at {:.1} Maccess/s (walk {:.0}% of simulate time, replay {:.0}%); pool idle {:.1}%; \
         planning {:.3}% of simulate time",
        out.work_rate / 1e6,
        acc as f64 / walk_s / 1e6,
        acc as f64 / sim_s / 1e6,
        100.0 * walk_s / sim_s,
        100.0 * replay_s / sim_s,
        100.0 * idle,
        100.0 * plan_s / sim_s,
    ));
}
