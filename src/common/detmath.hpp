// exp and log with fixed bits on every CPU.
//
// glibc picks its exp and log variant by CPU at load time, and the FMA and
// the non-FMA variant round differently in the last bit for some inputs,
// so results built on libm move with the machine. detmath runs one
// algorithm everywhere: the one glibc's FMA variants run (ARM
// optimized-routines, glibc >= 2.28, 128-entry tables). Every fused step
// is an explicit fma, exactly rounded on any CPU, and every other
// operation rounds on its own under the library's -ffp-contract=off, so
// each function returns the bits of glibc's __exp_fma / __log_fma for
// every input, including the special cases (zeros, subnormals, infinities,
// NaN, overflow and underflow; errno is not set).
//
// exp_block dispatches through avx2_enabled() (common/simd.hpp) to a
// 4-lane AVX2+FMA arm that does the same operations lane by lane; lanes
// outside the fast path (|x| >= 512, |x| < 2^-54, inf, NaN) go through the
// scalar twin, so both arms agree bit for bit. log_block is the scalar
// twin only: a 4-lane log arm gained about 3% of a corpus build, within
// the run-to-run spread, and was taken out.
#pragma once

#include <cstddef>
#include <span>

#include "common/simd.hpp"

namespace varpred::detmath {

/// The natural logarithm, with the bits of glibc's FMA log.
double log(double x);

/// out[i] = e^x[i], with the bits of glibc's FMA exp. The spans have the
/// same size; `out` may be `x` itself (but not partly overlap it).
void exp_block(std::span<const double> x, std::span<double> out);

/// out[i] = log(x[i]), with exp_block's contract.
void log_block(std::span<const double> x, std::span<double> out);

namespace detail {

// The two arms of exp_block, for tests; exp_block picks one. The AVX2 arm
// needs cpu_has_avx2().
void exp_block_scalar(const double* x, double* out, std::size_t n);
#ifdef VARPRED_SIMD_AVX2
void exp_block_avx2(const double* x, double* out, std::size_t n);
#endif

}  // namespace detail

}  // namespace varpred::detmath
