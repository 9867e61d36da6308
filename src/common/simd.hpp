// Runtime AVX2 dispatch shared by the vector kernels (stats/welford_simd,
// the GBT split search in ml/gbt).
//
// A kernel compiles its AVX2 variant with __attribute__((target("avx2")))
// under VARPRED_SIMD_AVX2, so the library itself keeps the baseline
// instruction set, and picks the variant at run time through
// avx2_enabled(). Every AVX2 variant does exactly its scalar twin's
// floating-point operations lane by lane, so the choice never changes a
// result; VARPRED_NO_AVX2=1 pins every kernel to its scalar variant.
#pragma once

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VARPRED_SIMD_AVX2 1
#endif

namespace varpred {

/// True when this CPU can run AVX2 code; always false on builds without
/// VARPRED_SIMD_AVX2.
bool cpu_has_avx2();

/// True when dispatched kernels take their AVX2 variant: the CPU supports
/// it and VARPRED_NO_AVX2 is unset, empty or starts with '0'. Reads the
/// environment on every call; kernels cache the answer.
bool avx2_enabled();

}  // namespace varpred
