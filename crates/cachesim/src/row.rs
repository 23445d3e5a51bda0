//! Row-level traces: one stencil row segment per [`AccessSink::row`] call.
//!
//! A stencil point issues the same accesses at the same byte offsets from
//! its own address at every point of a sweep, so a sweep's trace is fully
//! described by one [`RowPlan`] (the per-point accesses in source order
//! plus the byte stride between consecutive points of a row) and the
//! `(base, n)` of each row segment the schedule visits.
//!
//! [`crate::Hierarchy`] uses the plan to replay a row by cache-line
//! crossings instead of one access at a time; the [`LineTable`] here is
//! the per-plan precomputation that makes that exact (see DESIGN.md §19).

use std::cell::OnceCell;

use crate::config::{CacheConfig, WritePolicy};

/// One access of a stencil point: a byte offset from the point's base
/// address and whether it is a store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Byte offset from the point's base address.
    pub offset: i64,
    /// `true` for a store, `false` for a load.
    pub write: bool,
}

impl Slot {
    /// A load at `offset` bytes from the point.
    pub fn read(offset: i64) -> Self {
        Slot {
            offset,
            write: false,
        }
    }

    /// A store at `offset` bytes from the point.
    pub fn write(offset: i64) -> Self {
        Slot {
            offset,
            write: true,
        }
    }
}

/// The accesses one stencil point issues, in source order, and the byte
/// stride between consecutive points of a row. Built once per sweep and
/// passed to every [`AccessSink::row`](crate::AccessSink::row) call.
///
/// Point `p` of a row at `base` issues, for each slot in order, an access
/// at `base + p * stride + slot.offset`.
#[derive(Debug)]
pub struct RowPlan {
    slots: Vec<Slot>,
    stride: i64,
    /// Line-crossing table for the first L1 geometry that replays this
    /// plan; `None` inside when the plan cannot take the run-level path.
    table: OnceCell<Option<LineTable>>,
}

impl RowPlan {
    /// A plan of `slots` (source order) at `stride` bytes per point.
    pub fn new(stride: i64, slots: impl IntoIterator<Item = Slot>) -> Self {
        RowPlan {
            slots: slots.into_iter().collect(),
            stride,
            table: OnceCell::new(),
        }
    }

    /// The per-point accesses in source order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Byte stride between consecutive points of a row.
    pub fn stride(&self) -> i64 {
        self.stride
    }

    /// The line-crossing table for a direct-mapped `l1`, or `None` when the
    /// row must be replayed per access: a stride that is not a positive
    /// power of two no larger than a line, or an `l1` geometry other than
    /// the one the table was first built for.
    pub(crate) fn line_table(&self, l1: &CacheConfig) -> Option<&LineTable> {
        debug_assert_eq!(l1.ways, 1, "line tables model a direct-mapped L1");
        self.table
            .get_or_init(|| LineTable::build(self, *l1))
            .as_ref()
            .filter(|t| t.l1 == *l1)
    }
}

/// What the run-level replay does at one line phase (a point's base
/// address modulo the L1 line size).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Phase {
    /// Every slot is probed: some pair of allocating slots sits on
    /// distinct lines of one L1 set at this point or the previous one.
    pub(crate) exact: bool,
    /// Loads not probed at this phase, each a guaranteed L1 hit.
    pub(crate) hits: u32,
    /// `probes[start..end]` are the slots probed at this phase.
    start: u32,
    end: u32,
}

/// Per-plan, per-geometry precomputation of the run-level replay.
///
/// Every slot address of a point is its base plus a constant offset, so
/// which slots enter a new L1 line, and which slot pairs collide in one
/// set, depend only on the base's phase within a line. The table holds
/// the answer for each of the `line_bytes` phases.
#[derive(Debug)]
pub(crate) struct LineTable {
    /// The direct-mapped L1 the table was built for.
    l1: CacheConfig,
    phases: Vec<Phase>,
    /// Per phase, in source order: every slot at an exact phase, else the
    /// loads entering a new line there and every store.
    probes: Vec<Slot>,
}

impl LineTable {
    fn build(plan: &RowPlan, l1: CacheConfig) -> Option<LineTable> {
        let line = l1.line_bytes as i64;
        let stride = plan.stride;
        if stride <= 0 || !(stride as u64).is_power_of_two() || stride > line {
            return None;
        }
        let shift = line.trailing_zeros();
        let set_mask = l1.num_sets() as i64 - 1;
        // Loads always allocate; stores only under write-allocate.
        let writes_allocate = l1.write_policy == WritePolicy::WriteAllocate;
        let allocating: Vec<i64> = plan
            .slots
            .iter()
            .filter(|s| !s.write || writes_allocate)
            .map(|s| s.offset)
            .collect();
        // A pair conflicts when its lines differ but share a set; the line
        // delta of two offsets depends only on the phase.
        let conflict: Vec<bool> = (0..line)
            .map(|phase| {
                let lines: Vec<i64> = allocating.iter().map(|o| (phase + o) >> shift).collect();
                lines.iter().enumerate().any(|(i, a)| {
                    lines[i + 1..]
                        .iter()
                        .any(|b| b != a && (b - a) & set_mask == 0)
                })
            })
            .collect();
        let reads = plan.slots.iter().filter(|s| !s.write).count() as u32;
        let mut probes: Vec<Slot> = Vec::new();
        let mut phases = Vec::with_capacity(line as usize);
        for phase in 0..line {
            let prev = (phase - stride).rem_euclid(line) as usize;
            let exact = conflict[phase as usize] || conflict[prev];
            let start = probes.len() as u32;
            // A load enters a new line at a point whose address lies in the
            // first `stride` bytes of a line.
            probes.extend(
                plan.slots
                    .iter()
                    .filter(|s| exact || s.write || (phase + s.offset).rem_euclid(line) < stride),
            );
            let end = probes.len() as u32;
            let probed = probes[start as usize..].iter().filter(|s| !s.write).count() as u32;
            phases.push(Phase {
                exact,
                hits: reads - probed,
                start,
                end,
            });
        }
        Some(LineTable { l1, phases, probes })
    }

    /// The phase entry of a point at byte address `base`.
    #[inline]
    pub(crate) fn phase(&self, base: u64) -> Phase {
        self.phases[(base & (self.l1.line_bytes as u64 - 1)) as usize]
    }

    /// The slots a point at `phase` probes, in source order.
    #[inline]
    pub(crate) fn probes(&self, phase: Phase) -> &[Slot] {
        &self.probes[phase.start as usize..phase.end as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> CacheConfig {
        CacheConfig::ULTRASPARC2_L1
    }

    #[test]
    fn each_load_crosses_once_per_line() {
        let plan = RowPlan::new(8, [Slot::read(0), Slot::read(8), Slot::write(4096)]);
        let t = plan
            .line_table(&l1())
            .expect("stride 8 takes the run-level path");
        let mut crossings = [0usize; 2];
        for base in (0..32u64).step_by(8) {
            let p = t.phase(base);
            assert!(!p.exact);
            for s in t.probes(p) {
                if !s.write {
                    crossings[(s.offset / 8) as usize] += 1;
                }
            }
            // The store is probed at every phase, after the loads.
            assert!(t.probes(p).last().unwrap().write);
            assert_eq!(p.hits as usize + t.probes(p).len() - 1, 2);
        }
        assert_eq!(crossings, [1, 1]);
    }

    #[test]
    fn a_same_set_pair_forces_exact_points() {
        // 16K apart: always distinct lines of one set of the 16K L1.
        let plan = RowPlan::new(8, [Slot::read(0), Slot::read(16 * 1024)]);
        let t = plan.line_table(&l1()).unwrap();
        assert!((0..32u64).all(|b| t.phase(b).exact));
        // 8K apart: never one set.
        let plan = RowPlan::new(8, [Slot::read(0), Slot::read(8 * 1024)]);
        let t = plan.line_table(&l1()).unwrap();
        assert!((0..32u64).all(|b| !t.phase(b).exact));
    }

    #[test]
    fn stores_conflict_only_when_they_allocate() {
        let slots = [Slot::read(0), Slot::write(16 * 1024)];
        let around = RowPlan::new(8, slots);
        assert!(!around.line_table(&l1()).unwrap().phase(0).exact);
        let mut alloc = l1();
        alloc.write_policy = WritePolicy::WriteAllocate;
        let plan = RowPlan::new(8, slots);
        assert!(plan.line_table(&alloc).unwrap().phase(0).exact);
    }

    #[test]
    fn unsupported_strides_and_other_geometries_replay_per_access() {
        for stride in [0, -8, 24, 64] {
            assert!(RowPlan::new(stride, [Slot::read(0)])
                .line_table(&l1())
                .is_none());
        }
        let plan = RowPlan::new(8, [Slot::read(0)]);
        assert!(plan.line_table(&l1()).is_some());
        let other = CacheConfig::direct_mapped(8 * 1024, 32);
        assert!(plan.line_table(&other).is_none());
    }
}
