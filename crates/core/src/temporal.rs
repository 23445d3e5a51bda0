//! Temporal tile selection: pick `(ST, SK)` blocks of the time-skewed
//! `(T, K')` band from cache geometry, the way Euc3D picks spatial tiles
//! — and pair the choice with the legality certificate for the skewed
//! schedule, the way [`plan_certified`](crate::plan_certified) does.
//!
//! The model is the working set of one time block at a fixed time step:
//! carrying a band of `SK` skewed planes through a time block touches
//! `buffers * (SK + halo)` planes of `plane_elements` doubles each
//! (`halo = 3`: the plane itself plus a down/up neighbour per step, plus
//! the skew shift). `SK` is the largest band whose working set fits the
//! target cache; `ST` then matches the band depth — a deeper time block
//! cannot reuse more than the band holds — but is capped at
//! `ceil(steps / jobs)` so the tile grid keeps at least `jobs` time
//! blocks and the wavefronts stay wide enough to feed every thread.

use crate::plan::CacheSpec;
use std::fmt;
use tiling3d_loopnest::{certify, DepSet, LegalityCertificate, Schedule, StencilShape};

/// Which iterated kernel a temporal plan schedules — fixes the
/// time-stepped dependence set and the buffer count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TemporalKernel {
    /// Ping-pong 3D Jacobi (two buffers, out-of-place per step).
    Jacobi,
    /// In-place red-black at colour-pass granularity (one buffer).
    RedBlack,
}

impl TemporalKernel {
    /// Display name matching the CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            TemporalKernel::Jacobi => "jacobi",
            TemporalKernel::RedBlack => "redblack",
        }
    }

    /// Grid buffers the iterated kernel keeps live.
    pub fn buffers(self) -> usize {
        match self {
            TemporalKernel::Jacobi => 2,
            TemporalKernel::RedBlack => 1,
        }
    }

    /// The time-stepped dependence set of the iterated kernel.
    pub fn deps(self) -> DepSet {
        match self {
            TemporalKernel::Jacobi => DepSet::time_stepped_3d(&StencilShape::jacobi3d()),
            TemporalKernel::RedBlack => DepSet::time_stepped_redblack(),
        }
    }
}

impl std::str::FromStr for TemporalKernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "jacobi" | "jacobi3d" => Ok(TemporalKernel::Jacobi),
            "redblack" | "rb" => Ok(TemporalKernel::RedBlack),
            other => Err(format!(
                "unknown temporal kernel '{other}' (expected jacobi or redblack)"
            )),
        }
    }
}

/// A resolved temporal tile: `st` time steps by `sk` skewed K planes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemporalPlan {
    /// Time-block extent in steps.
    pub st: usize,
    /// Skewed K-band extent in planes.
    pub sk: usize,
    /// Planes of one buffer the tile's working set holds (band + halo).
    pub working_planes: usize,
}

impl TemporalPlan {
    /// Working-set of the tile in elements, all buffers included; `None`
    /// when the count overflows `usize`.
    pub fn working_elements(&self, kernel: TemporalKernel, plane_elements: usize) -> Option<usize> {
        kernel
            .buffers()
            .checked_mul(self.working_planes)?
            .checked_mul(plane_elements)
    }
}

/// Halo planes a time block drags alongside its band: the current plane
/// plus one down/up neighbour, plus the skew shift per step.
const HALO_PLANES: usize = 3;

/// Picks `(ST, SK)` for `steps` iterated sweeps of `kernel` over planes
/// of `plane_elements` doubles, targeting `cache` and `jobs` worker
/// threads. Always returns a valid (possibly degenerate `1x1`) tile.
pub fn plan_temporal(
    kernel: TemporalKernel,
    cache: CacheSpec,
    plane_elements: usize,
    steps: usize,
    jobs: usize,
) -> TemporalPlan {
    let steps = steps.max(1);
    let jobs = jobs.max(1);
    // Saturates: a plane set too large to count does not fit any cache.
    let per_plane = kernel.buffers().saturating_mul(plane_elements.max(1));
    let sk = (cache.elements / per_plane)
        .saturating_sub(HALO_PLANES)
        .max(1);
    // A deeper time block than the band is wide leaks its reuse out of
    // cache (the skew shifts the band one plane per step); more time
    // blocks than `jobs` keeps every wavefront at least `jobs` wide once
    // the pipeline fills.
    let st = sk.min(steps.div_ceil(jobs)).clamp(1, steps);
    TemporalPlan {
        st,
        sk,
        working_planes: sk + HALO_PLANES,
    }
}

/// A temporal plan paired with the proof that the skewed `(T, K')` band
/// tiling is legal for the kernel's time-stepped dependences. Private
/// fields: [`plan_temporal_certified`] is the only constructor.
#[derive(Clone, Debug, PartialEq)]
pub struct CertifiedTemporalPlan {
    plan: TemporalPlan,
    certificate: LegalityCertificate,
}

impl CertifiedTemporalPlan {
    /// The resolved tile.
    pub fn plan(&self) -> &TemporalPlan {
        &self.plan
    }

    /// The legality proof (always a `Legal` verdict).
    pub fn certificate(&self) -> &LegalityCertificate {
        &self.certificate
    }
}

/// The typed error for an illegal temporal schedule request: carries the
/// certificate whose verdict names every broken dependence.
#[derive(Clone, Debug, PartialEq)]
pub struct IllegalTemporalPlan {
    /// The kernel whose schedule failed.
    pub kernel: TemporalKernel,
    /// The failed certificate (verdict is `Illegal` with witnesses).
    pub certificate: Box<LegalityCertificate>,
}

impl fmt::Display for IllegalTemporalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "temporal schedule '{}' is illegal for kernel {}",
            self.certificate.schedule.name,
            self.kernel.name()
        )?;
        for v in self.certificate.violations() {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for IllegalTemporalPlan {}

/// Certifies the (skewed or rectangular) `(T, K)` band tiling for the
/// kernel's time-stepped dependences. `skewed = false` models the
/// rectangular tiling the analyzer must reject.
pub fn temporal_certificate(kernel: TemporalKernel, skewed: bool) -> LegalityCertificate {
    certify(&kernel.deps(), &Schedule::time_skewed_3d(skewed))
}

/// Plans a temporal tile and certifies the skewed schedule the
/// `stencil::timetile` executors run. The error path is only reachable
/// through a rectangular (unskewed) request — kept so the CLI can gate
/// the known-illegal combination with a typed witness.
pub fn plan_temporal_certified(
    kernel: TemporalKernel,
    cache: CacheSpec,
    plane_elements: usize,
    steps: usize,
    jobs: usize,
    skewed: bool,
) -> Result<CertifiedTemporalPlan, IllegalTemporalPlan> {
    let _span = if tiling3d_obs::collecting() {
        Some(tiling3d_obs::span(&format!(
            "plan_temporal:{}",
            kernel.name()
        )))
    } else {
        None
    };
    let certificate = temporal_certificate(kernel, skewed);
    if certificate.is_legal() {
        Ok(CertifiedTemporalPlan {
            plan: plan_temporal(kernel, cache, plane_elements, steps, jobs),
            certificate,
        })
    } else {
        Err(IllegalTemporalPlan {
            kernel,
            certificate: Box::new(certificate),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CacheSpec {
        CacheSpec::ELEMENTS_16K_DOUBLES
    }

    #[test]
    fn worked_example_band_fits_the_cache() {
        // 2048-element cache, 2 buffers of 64-element planes: 16 planes
        // total, minus the 3-plane halo = a 13-plane band.
        let p = plan_temporal(TemporalKernel::Jacobi, spec(), 64, 32, 1);
        assert_eq!(p.sk, 13);
        assert_eq!(p.st, 13); // capped by sk, not steps
        let ws = p.working_elements(TemporalKernel::Jacobi, 64).unwrap();
        assert!(ws <= spec().elements + 2 * 64);
    }

    #[test]
    fn oversized_planes_get_a_unit_band_and_no_wrapped_working_set() {
        // Two buffers of a `usize::MAX / 2 + 1`-element plane used to wrap
        // to a tiny per-plane footprint and an enormous band.
        let p = plan_temporal(TemporalKernel::Jacobi, spec(), usize::MAX / 2 + 1, 4, 1);
        assert_eq!((p.st, p.sk), (1, 1));
        assert_eq!(
            p.working_elements(TemporalKernel::Jacobi, usize::MAX / 2 + 1),
            None
        );
    }

    #[test]
    fn redblack_bands_are_twice_as_deep() {
        // One buffer instead of two: the band doubles (+ halo shift).
        let j = plan_temporal(TemporalKernel::Jacobi, spec(), 64, 32, 1);
        let r = plan_temporal(TemporalKernel::RedBlack, spec(), 64, 32, 1);
        assert!(r.sk > j.sk, "{} vs {}", r.sk, j.sk);
    }

    #[test]
    fn jobs_cap_keeps_wavefronts_wide() {
        // 16 steps on 4 threads: at most ceil(16/4) = 4 steps per time
        // block, so the tile grid has >= 4 time blocks to overlap.
        let p = plan_temporal(TemporalKernel::Jacobi, spec(), 64, 16, 4);
        assert_eq!(p.st, 4);
        let solo = plan_temporal(TemporalKernel::Jacobi, spec(), 64, 16, 1);
        assert!(solo.st >= p.st);
    }

    #[test]
    fn degenerate_inputs_never_produce_zero_tiles() {
        for (plane, steps, jobs) in [(0usize, 0usize, 0usize), (1 << 30, 1, 1), (2048, 1, 64)] {
            let p = plan_temporal(TemporalKernel::Jacobi, spec(), plane, steps, jobs);
            assert!(p.st >= 1 && p.sk >= 1, "plane={plane}");
        }
    }

    #[test]
    fn skewed_schedule_certifies_for_both_kernels() {
        for kernel in [TemporalKernel::Jacobi, TemporalKernel::RedBlack] {
            let cp = plan_temporal_certified(kernel, spec(), 4096, 8, 2, true)
                .unwrap_or_else(|e| panic!("{kernel:?}: {e}"));
            assert!(cp.certificate().is_legal());
            assert!(cp.certificate().revalidate().is_ok());
        }
    }

    #[test]
    fn rectangular_band_tiling_is_a_typed_error_with_witness() {
        let err =
            plan_temporal_certified(TemporalKernel::Jacobi, spec(), 4096, 8, 2, false).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("illegal"), "{msg}");
        // The witness: flow distance (1, -1, ...) reversed by the
        // rectangular tile controllers.
        assert!(msg.contains("[1, -1"), "witness in message: {msg}");
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in [TemporalKernel::Jacobi, TemporalKernel::RedBlack] {
            assert_eq!(k.name().parse::<TemporalKernel>().unwrap(), k);
        }
        assert!("sor".parse::<TemporalKernel>().is_err());
    }
}
