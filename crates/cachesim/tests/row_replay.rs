//! Run-level replay: `Hierarchy::row` must equal the per-access expansion.
//!
//! The reference below is the same two-level write-through hierarchy,
//! probed one access at a time through `Cache::access_reference` and with
//! no `row` override, so every row expands through the trait's default
//! loop. A seeded sweep over slot sets, strides, geometries and row
//! lengths compares statistics after every row and cache contents at the
//! end; the hand-traced cases pin the corner cases of the exactness
//! argument (DESIGN.md §19) to worked-out counts.

use tiling3d_cachesim::{
    AccessSink, AccessStats, Cache, CacheConfig, Hierarchy, ReplacementPolicy, RowPlan, Slot,
    WritePolicy,
};

/// Per-access reference: L2 sees L1 read misses and every store.
struct Reference {
    l1: Cache,
    l2: Cache,
}

impl Reference {
    fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        Reference {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
        }
    }
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

/// Deterministic xorshift (no external deps).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn config(size_bytes: usize, line_bytes: usize, ways: usize, policy: WritePolicy) -> CacheConfig {
    CacheConfig {
        size_bytes,
        line_bytes,
        ways,
        write_policy: policy,
        replacement: ReplacementPolicy::Lru,
    }
}

/// A random slot set at `stride`: loads and stores at element offsets in
/// a window a few cache spans wide, plus loads exactly one L1 span apart
/// (distinct lines of one set at every point: a permanently conflicting
/// pair in a direct-mapped L1).
fn random_plan(rng: &mut Rng, stride: i64, l1_bytes: i64) -> RowPlan {
    let mut slots = Vec::new();
    for _ in 0..1 + rng.below(8) {
        let offset = (rng.below(96) as i64 - 48) * 8 + 4096;
        slots.push(if rng.below(5) == 0 {
            Slot::write(offset)
        } else {
            Slot::read(offset)
        });
    }
    if rng.below(2) == 0 {
        let offset = (rng.below(16) as i64) * 8 + 4096;
        slots.push(Slot::read(offset));
        slots.push(Slot::read(offset + l1_bytes * (1 + rng.below(2) as i64)));
    }
    // Shuffle so stores and conflicting loads land anywhere in the point.
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i as u64 + 1) as usize);
    }
    RowPlan::new(stride, slots)
}

fn assert_same_contents(h: &Hierarchy, r: &Reference, lo: u64, hi: u64, what: &str) {
    for a in (lo..hi).step_by(8) {
        assert_eq!(h.l1().probe(a), r.l1.probe(a), "{what}: L1 contents at {a}");
        assert_eq!(h.l2().probe(a), r.l2.probe(a), "{what}: L2 contents at {a}");
    }
}

#[test]
fn row_equals_the_per_access_expansion_on_random_plans() {
    let mut rng = Rng(0x5eed_1234_abcd_0042);
    let mut fast_cases = 0;
    for case in 0..600 {
        let ways = [1usize, 2, 4][case % 3];
        let policy = [WritePolicy::WriteAround, WritePolicy::WriteAllocate][case / 3 % 2];
        let l1_bytes = [256usize, 512, 1024][rng.below(3) as usize];
        let l1 = config(
            l1_bytes,
            [16usize, 32, 64][rng.below(3) as usize],
            ways,
            policy,
        );
        // L2's geometry is free: it sees the same ordered stream of L1
        // read misses and stores on either path.
        let l2 = config(
            8 * l1_bytes,
            [16usize, 32, 64][rng.below(3) as usize],
            [1usize, 2][rng.below(2) as usize],
            WritePolicy::WriteAllocate,
        );
        // Strides 8 and 16 take the run-level path on a direct-mapped L1;
        // 24 and -8 always replay per access.
        let stride = [8i64, 16, 8, 16, 24, -8][rng.below(6) as usize];
        let plan = random_plan(&mut rng, stride, l1_bytes as i64);
        fast_cases += usize::from(ways == 1 && stride > 0 && stride != 24);

        let mut h = Hierarchy::new(l1, l2);
        let mut r = Reference::new(l1, l2);
        let mut points = 0;
        for _ in 0..6 {
            let n = [0usize, 1, 2, 3, 7, 64][rng.below(6) as usize];
            let base = 8192 + rng.below(512) * 8;
            h.row(&plan, base, n);
            r.row(&plan, base, n);
            points += n as u64;
            let what = format!(
                "case {case}: ways={ways} {policy:?} stride={stride} n={n} base={base} {:?}",
                plan.slots()
            );
            assert_eq!(h.l1_stats(), r.l1.stats(), "{what}: L1 stats");
            assert_eq!(h.l2_stats(), r.l2.stats(), "{what}: L2 stats");
        }
        assert_same_contents(&h, &r, 0, 32 * 1024, &format!("case {case}"));
        let (total, exact) = h.row_points();
        assert_eq!(total, points, "case {case}: every row point is counted");
        assert!(exact <= total);
    }
    assert!(
        fast_cases > 100,
        "only {fast_cases} cases took the run-level path"
    );
}

#[test]
fn row_replays_at_paper_geometry() {
    // The UltraSparc2 hierarchy under a Jacobi-like plan whose plane
    // offsets are a multiple of the 16K L1: every point conflicts.
    let ps = 16 * 1024;
    for (di, stride) in [(280i64, 8i64), (256, 8), (280, 16)] {
        let plan = RowPlan::new(
            stride,
            [
                Slot::read(1 << 22),
                Slot::read(-8 + (1 << 22)),
                Slot::read(-di * 8 + (1 << 22)),
                Slot::read(8 + (1 << 22)),
                Slot::read(di * 8 + (1 << 22)),
                Slot::read(-ps + (1 << 22)),
                Slot::read(ps + (1 << 22)),
                Slot::write(0),
            ],
        );
        let mut h = Hierarchy::ultrasparc2();
        let mut r = Reference::new(CacheConfig::ULTRASPARC2_L1, CacheConfig::ULTRASPARC2_L2);
        for row in 0..40u64 {
            let base = ps as u64 + row * 8 * di as u64;
            h.row(&plan, base, 200);
            r.row(&plan, base, 200);
        }
        assert_eq!(h.l1_stats(), r.l1.stats(), "di={di} stride={stride}");
        assert_eq!(h.l2_stats(), r.l2.stats(), "di={di} stride={stride}");
    }
}

/// Runs `plan` over one row on both engines and checks they agree.
fn both(plan: &RowPlan, base: u64, n: usize) -> (Hierarchy, AccessStats, AccessStats) {
    let mut h = Hierarchy::ultrasparc2();
    let mut r = Reference::new(CacheConfig::ULTRASPARC2_L1, CacheConfig::ULTRASPARC2_L2);
    h.row(plan, base, n);
    r.row(plan, base, n);
    assert_eq!(h.l1_stats(), r.l1.stats());
    assert_eq!(h.l2_stats(), r.l2.stats());
    assert_same_contents(&h, &r, 0, 64 * 1024, "hand-traced");
    let (l1, l2) = (h.l1_stats(), h.l2_stats());
    (h, l1, l2)
}

#[test]
fn ping_pong_pair_misses_every_access() {
    // Loads 16K apart share the one L1 set of their line and evict each
    // other at every point: 8 L1 misses, but only the 2 cold L2 misses.
    let plan = RowPlan::new(8, [Slot::read(0), Slot::read(16 * 1024)]);
    let (h, l1, l2) = both(&plan, 0, 4);
    assert_eq!((l1.accesses, l1.misses), (8, 8));
    assert_eq!((l2.accesses, l2.misses), (8, 2));
    // Every point is replayed access by access.
    assert_eq!(h.row_points(), (4, 4));
}

#[test]
fn write_slot_later_allocated_by_a_read_slot() {
    // Store then load of one address. Point 0: the store misses L1 and
    // does not allocate (write-around) but allocates in L2; the load then
    // misses L1 and hits L2. Points 1..3 stay in that L1 line: the store
    // now hits, and the load is a bulk-counted hit that never reaches L2.
    let plan = RowPlan::new(8, [Slot::write(0), Slot::read(0)]);
    let (h, l1, l2) = both(&plan, 0, 4);
    assert_eq!((l1.accesses, l1.misses), (8, 2));
    assert_eq!((l1.write_misses, l1.read_misses), (1, 1));
    assert_eq!((l2.accesses, l2.reads, l2.writes), (5, 1, 4));
    assert_eq!(l2.misses, 1);
    assert_eq!(h.row_points(), (4, 1));
}

#[test]
fn write_slot_whose_l2_line_changes_mid_row() {
    // Load at 4096+32+8p, store at 32+8p, p = 0..8. The loads cross an L1
    // line (and an L2 line) at p = 4: 2 L1 read misses, both cold in L2.
    // The stores never allocate in L1 (8 write misses) and enter L2 lines
    // 0 (p = 0..3) and 1 (p = 4..7): 2 L2 write misses, 6 write hits.
    let plan = RowPlan::new(8, [Slot::read(4096), Slot::write(0)]);
    let (_, l1, l2) = both(&plan, 32, 8);
    assert_eq!((l1.accesses, l1.reads, l1.writes), (16, 8, 8));
    assert_eq!((l1.read_misses, l1.write_misses), (2, 8));
    assert_eq!((l2.accesses, l2.reads, l2.writes), (10, 2, 8));
    assert_eq!((l2.read_misses, l2.write_misses), (2, 2));
}

#[test]
fn row_counters_are_observe_only() {
    // Two loads 16K + 24 bytes apart sit on distinct lines of one L1 set
    // only when the row is at line phase 0, so about half of the points
    // (phase 0 and the point after it) replay exactly.
    let plan = RowPlan::new(
        8,
        [
            Slot::read(0),
            Slot::read(16 * 1024 + 24),
            Slot::write(1 << 20),
        ],
    );
    let run = || {
        let mut h = Hierarchy::ultrasparc2();
        for row in 1..40u64 {
            h.row(&plan, row * 4096 + 8, 254);
        }
        h.fold_obs_metrics();
        h
    };
    let off = run();
    tiling3d_obs::init(tiling3d_obs::ObsConfig::collect_only()).unwrap();
    let on = run();
    let trace = tiling3d_obs::shutdown().expect("recorder was active");
    assert_eq!(on.l1_stats(), off.l1_stats());
    assert_eq!(on.l2_stats(), off.l2_stats());
    assert_eq!(on.row_points(), off.row_points());
    let counter = |name: &str| {
        trace
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_f64() as u64)
    };
    let (points, exact) = on.row_points();
    assert_eq!(points, 39 * 254);
    assert!(exact > 39 && exact < points, "exact={exact} of {points}");
    assert_eq!(counter("cachesim.row.points"), Some(points));
    assert_eq!(counter("cachesim.row.points_exact"), Some(exact));
}
