//! Seeded input generation for every workload.
//!
//! The benchmark's seed enters here and nowhere else: each workload
//! receives only the inputs generated from it. The same seed yields
//! byte-identical inputs ([`to_bytes`]), so two commits measured
//! with one seed run exactly the same work.

/// SplitMix64: a small, fixed generator, so inputs never depend on a
/// library's choice of algorithm.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so each
    /// workload's draw is independent of the others'.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Third-dimension extent of the paper's sweeps (Section 4).
pub const PAPER_NK: usize = 30;

/// Sizes whose power-of-two factors make the original layout thrash the
/// direct-mapped L1; every paper-sweep draw contains them.
pub const CONFLICT_SIZES: [usize; 2] = [256, 384];

/// Inputs of the `paper-sweep` workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepInputs {
    /// Plane extents `N`, in the order they are simulated.
    pub sizes: Vec<usize>,
    /// Third-dimension extent.
    pub nk: usize,
    /// Seed choosing which simulated points are replayed per access.
    pub verify_seed: u64,
}

/// Seeded sizes drawn beside the conflict sizes, one per equal stratum
/// of 200..=400; one cycle of the eight sizes x three kernels is about
/// 6G simulated accesses.
pub const SWEEP_STRATA: usize = 6;

/// The conflict sizes plus one size from each of [`SWEEP_STRATA`] equal
/// strata of 200..=400, so every draw spans the paper's range.
pub fn paper_sweep(seed: u64) -> SweepInputs {
    let mut rng = Rng::new(seed, 1);
    let mut sizes = CONFLICT_SIZES.to_vec();
    for s in 0..SWEEP_STRATA {
        let lo = 200 + s * 200 / SWEEP_STRATA;
        let hi = 200 + (s + 1) * 200 / SWEEP_STRATA;
        sizes.push(rng.range(lo, hi));
    }
    SweepInputs {
        sizes,
        nk: PAPER_NK,
        verify_seed: rng.next_u64(),
    }
}

/// Inputs of the two `solve-*` workloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveInputs {
    /// Plane extent `N` (arrays are `N x N x nk`, plus padding).
    pub n: usize,
    /// Third-dimension extent.
    pub nk: usize,
    /// Time steps of each time-tiled call.
    pub steps: usize,
    /// Multigrid levels (`0` = no multigrid solves).
    pub mg_levels: usize,
    /// Seed of the array contents.
    pub fill_seed: u64,
}

impl SolveInputs {
    /// Bytes of one unpadded array.
    pub fn array_bytes(&self) -> u64 {
        (self.n * self.n * self.nk * std::mem::size_of::<f64>()) as u64
    }
}

/// The paper's geometry: arrays of 19-25 MB, so every kernel's working
/// set bursts a 2 MB L2 but stays inside a ~100 MB L3.
pub fn solve_l3(seed: u64) -> SolveInputs {
    let mut rng = Rng::new(seed, 2);
    SolveInputs {
        n: rng.range(288, 320),
        nk: PAPER_NK,
        steps: 8,
        mg_levels: 7,
        fill_seed: rng.next_u64(),
    }
}

/// One DRAM-resident shape, `640 x 640 x nk` with `nk` the fewest planes
/// for which every array holds at least four times the last-level cache
/// `llc_bytes`. The shape is fixed, so seeds differ only in the array
/// contents: at this size the kernels are bandwidth-bound and a seeded
/// shape would only add variance.
pub fn solve_dram(seed: u64, llc_bytes: u64) -> SolveInputs {
    let mut rng = Rng::new(seed, 3);
    let n = 640;
    let plane = (n * n * std::mem::size_of::<f64>()) as u64;
    SolveInputs {
        n,
        nk: (4 * llc_bytes).div_ceil(plane) as usize,
        steps: 4,
        mg_levels: 0,
        fill_seed: rng.next_u64(),
    }
}

/// The plan-serve request population: distinct request lines (keys) and
/// a Zipf-popular stream over them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeInputs {
    /// Distinct request lines, most popular first.
    pub keys: Vec<String>,
    /// Whether each key asks for a temporal (`steps > 0`) plan.
    pub temporal: Vec<bool>,
    /// Key index of every request, in arrival order.
    pub stream: Vec<usize>,
}

/// Distinct keys the stream draws from.
pub const SERVE_UNIVERSE: usize = 4096;

/// Zipf exponent of key popularity.
pub const ZIPF_S: f64 = 1.0;

/// Request classes `(stencil, steps)`: RESID has no iterated form, so
/// its requests are spatial only.
const SERVE_CLASSES: [(&str, usize); 7] = [
    ("jacobi3d", 0),
    ("redblack", 0),
    ("resid", 0),
    ("jacobi3d", 4),
    ("redblack", 8),
    ("jacobi3d", 8),
    ("redblack", 4),
];

/// Size strata of the request dims: 64..=1024 in equal parts for
/// random sizes, and the powers of two 2^6..=2^10 for near-power-of-two
/// ones (where the Pad search is slowest).
const SERVE_STRATA: usize = 5;

/// `count` requests over [`SERVE_UNIVERSE`] keys. Key kinds cycle with
/// popularity rank — every [`SERVE_CLASSES`] entry, with dims either
/// square and random or each within 2 of a power of two, in every one
/// of [`SERVE_STRATA`] size strata (pairs of strata for the powers of
/// two) — so every seed draws the same mix of request kinds and planning
/// costs, and only the sizes within a stratum and the arrival order
/// change.
pub fn plan_serve(seed: u64, count: usize) -> ServeInputs {
    let mut rng = Rng::new(seed, 4);
    let mut keys = Vec::with_capacity(SERVE_UNIVERSE);
    let mut temporal = Vec::with_capacity(SERVE_UNIVERSE);
    let mut seen = std::collections::HashSet::new();
    let mut slot = 0usize;
    while keys.len() < SERVE_UNIVERSE {
        let (stencil, steps) = SERVE_CLASSES[slot % SERVE_CLASSES.len()];
        let group = slot / SERVE_CLASSES.len();
        let stratum = (group / 2) % SERVE_STRATA;
        let (di, dj) = if group.is_multiple_of(2) {
            let lo = 64 + stratum * (1024 - 64) / SERVE_STRATA;
            let hi = 64 + (stratum + 1) * (1024 - 64) / SERVE_STRATA;
            let n = rng.range(lo, hi);
            (n, n)
        } else {
            // The second dim's stratum turns over once per cycle of the
            // first's, so every pair of powers comes up in turn.
            let second = (stratum + group / (2 * SERVE_STRATA)) % SERVE_STRATA;
            let near = |rng: &mut Rng, s: usize| (1usize << (6 + s)) + rng.range(0, 4) - 2;
            (near(&mut rng, stratum), near(&mut rng, second))
        };
        let dims = format!(r#""stencil":"{stencil}","di":{di},"dj":{dj}"#);
        let line = if steps == 0 {
            format!(r#"{{"query":"plan",{dims}}}"#)
        } else {
            format!(r#"{{"query":"plan",{dims},"steps":{steps},"jobs":2}}"#)
        };
        if seen.insert(line.clone()) {
            keys.push(line);
            temporal.push(steps > 0);
            slot += 1;
        }
    }
    let cdf: Vec<f64> = (1..=SERVE_UNIVERSE)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / (r as f64).powf(ZIPF_S);
            Some(*acc)
        })
        .collect();
    let total = cdf[SERVE_UNIVERSE - 1];
    let stream = (0..count)
        .map(|_| {
            let u = rng.unit() * total;
            cdf.partition_point(|&c| c <= u).min(SERVE_UNIVERSE - 1)
        })
        .collect();
    ServeInputs {
        keys,
        temporal,
        stream,
    }
}

/// Canonical byte form of an input set (its fields rendered in order),
/// for identity checks.
pub fn to_bytes(inputs: &impl std::fmt::Debug) -> Vec<u8> {
    format!("{inputs:?}").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LLC_105M: u64 = 107_520 * 1024;

    #[test]
    fn same_seed_gives_identical_inputs() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(to_bytes(&paper_sweep(seed)), to_bytes(&paper_sweep(seed)));
            assert_eq!(to_bytes(&solve_l3(seed)), to_bytes(&solve_l3(seed)));
            assert_eq!(
                to_bytes(&solve_dram(seed, LLC_105M)),
                to_bytes(&solve_dram(seed, LLC_105M))
            );
            assert_eq!(
                to_bytes(&plan_serve(seed, 500)),
                to_bytes(&plan_serve(seed, 500))
            );
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(to_bytes(&paper_sweep(1)), to_bytes(&paper_sweep(2)));
        assert_ne!(to_bytes(&solve_l3(1)), to_bytes(&solve_l3(2)));
        assert_ne!(
            to_bytes(&solve_dram(1, LLC_105M)),
            to_bytes(&solve_dram(2, LLC_105M))
        );
        assert_ne!(to_bytes(&plan_serve(1, 500)), to_bytes(&plan_serve(2, 500)));
    }

    #[test]
    fn paper_sweep_draws_conflict_sizes_within_the_paper_range() {
        for seed in 0..50 {
            let s = paper_sweep(seed);
            for n in CONFLICT_SIZES {
                assert!(s.sizes.contains(&n), "seed {seed}: {:?}", s.sizes);
            }
            assert!(s.sizes.iter().all(|n| (200..=400).contains(n)));
            assert_eq!(s.sizes.len(), CONFLICT_SIZES.len() + SWEEP_STRATA);
            assert_eq!(s.nk, 30);
        }
    }

    #[test]
    fn dram_arrays_hold_four_times_the_last_level_cache() {
        let detected = crate::host::last_level_cache_bytes().unwrap_or(LLC_105M);
        for llc in [LLC_105M, detected, 32 << 20, 256 << 20] {
            for seed in 0..20 {
                let s = solve_dram(seed, llc);
                assert!(s.array_bytes() >= 4 * llc, "{s:?} vs llc {llc}");
            }
        }
    }

    #[test]
    fn l3_arrays_bust_l2_and_fit_l3() {
        for seed in 0..50 {
            let s = solve_l3(seed);
            assert!(s.array_bytes() > 2 << 20);
            assert!(3 * s.array_bytes() < LLC_105M);
        }
    }

    #[test]
    fn popular_serve_requests_plan_without_error() {
        use tiling3d_core::api::{respond_enveloped, PlanRequest};
        let s = plan_serve(3, 0);
        for line in &s.keys[..2 * SERVE_CLASSES.len()] {
            let v = tiling3d_obs::json::parse(line).unwrap();
            let req = PlanRequest::from_json(&v).unwrap();
            assert!(respond_enveloped(&req).is_ok(), "{line}");
        }
    }

    #[test]
    fn serve_stream_is_zipf_popular_and_valid() {
        let s = plan_serve(9, 20_000);
        assert_eq!(s.keys.len(), SERVE_UNIVERSE);
        let top = s.stream.iter().filter(|&&k| k == 0).count();
        let tenth = s.stream.iter().filter(|&&k| k == 9).count();
        assert!(top > 5 * tenth, "rank 1: {top}, rank 10: {tenth}");
        assert!(s
            .keys
            .iter()
            .zip(&s.temporal)
            .all(|(k, &t)| !(t && k.contains("resid"))));
    }
}
