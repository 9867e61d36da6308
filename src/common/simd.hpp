// Runtime AVX2 dispatch shared by the vector kernels:
//   - the Welford moments pass (stats/welford_simd);
//   - the profile's Welford pass, four metrics per vector
//     (welford_pass_avx2, core/profile);
//   - the GBT split search, four features per step (scan_four, ml/gbt);
//   - the RF split search, four outputs per add and four candidates per
//     score (scan_feature_avx2, ml/tree);
//   - the column partition both learners share, eight row ids per step
//     (partition_columns_avx2, ml/sorted_columns).
//
// A kernel compiles its AVX2 variant with __attribute__((target("avx2")))
// under VARPRED_SIMD_AVX2, so the library itself keeps the baseline
// instruction set, and picks the variant at run time through
// avx2_enabled(). Every AVX2 variant does exactly its scalar twin's
// floating-point operations lane by lane (the partition only moves row
// ids), so the choice never changes a result; VARPRED_NO_AVX2=1 pins every
// kernel to its scalar variant.
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
