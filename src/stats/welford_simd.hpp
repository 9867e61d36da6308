// Lane-parallel Welford accumulation with an AVX2 fast path.
//
// Four independent Welford accumulators ("lanes") each consume every fourth
// sample element, then merge in a fixed order through MomentAccumulator's
// exact pairwise-merge formulas (Chan et al.). The per-element update is
// fully elementwise across lanes, so the AVX2 variant (per-lane vector
// arithmetic, no FMA, no horizontal reductions) performs the same
// floating-point operations as the scalar 4-lane loop — the two are
// bit-identical, and dispatch can never change a result.
//
// The lane split does reorder the summation relative to a single serial
// Welford pass, so accumulate_moments() is NOT bitwise-equal to
// MomentAccumulator::add over the same span — it is the deterministic
// 4-lane grouping, the same on every machine and worker count. The parallel
// moments path (stats/moments.cpp) uses it per chunk.
//
// Dispatch (common/simd.hpp): AVX2 when supported and VARPRED_NO_AVX2 is
// unset/zero, scalar otherwise (and always on non-x86 builds).
#pragma once

#include <span>

#include "stats/moments.hpp"

namespace varpred::stats {

/// 4-lane Welford accumulation of `sample` (dispatched, see file comment).
MomentAccumulator accumulate_moments(std::span<const double> sample);

/// The scalar 4-lane baseline, always available.
MomentAccumulator accumulate_moments_scalar(std::span<const double> sample);

/// The AVX2 4-lane variant; falls back to scalar when the CPU cannot run it.
MomentAccumulator accumulate_moments_avx2(std::span<const double> sample);

/// True when the dispatched path runs AVX2 on this machine/process.
bool welford_avx2_active();

}  // namespace varpred::stats
