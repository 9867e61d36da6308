#include "common/simd.hpp"

#include <cstdlib>

namespace varpred {

bool cpu_has_avx2() {
#ifdef VARPRED_SIMD_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool avx2_enabled() {
  const char* env = std::getenv("VARPRED_NO_AVX2");
  const bool disabled = env != nullptr && env[0] != '\0' && env[0] != '0';
  return !disabled && cpu_has_avx2();
}

}  // namespace varpred
