#include "stats/welford_simd.hpp"

#include "common/simd.hpp"

#ifdef VARPRED_SIMD_AVX2
#include <immintrin.h>
#endif

namespace varpred::stats {
namespace {

// Four independent Welford states, structure-of-arrays so one 256-bit vector
// holds one field across all lanes.
struct Lanes {
  double n[4] = {0.0, 0.0, 0.0, 0.0};
  double mean[4] = {0.0, 0.0, 0.0, 0.0};
  double m2[4] = {0.0, 0.0, 0.0, 0.0};
  double m3[4] = {0.0, 0.0, 0.0, 0.0};
  double m4[4] = {0.0, 0.0, 0.0, 0.0};
};

// One-lane update: the same expressions as MomentAccumulator::add, written
// with explicit temporaries so the scalar and AVX2 block loops compile to
// the same operation sequence per lane.
inline void lane_add(Lanes& lanes, std::size_t j, double x) {
  const double n1 = lanes.n[j];
  const double n = n1 + 1.0;
  const double delta = x - lanes.mean[j];
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  lanes.mean[j] += delta_n;
  lanes.m4[j] += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) +
                 6.0 * delta_n2 * lanes.m2[j] - 4.0 * delta_n * lanes.m3[j];
  lanes.m3[j] += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * lanes.m2[j];
  lanes.m2[j] += term1;
  lanes.n[j] = n;
}

void blocks_scalar(Lanes& lanes, const double* x, std::size_t n_blocks) {
  for (std::size_t k = 0; k < n_blocks; ++k) {
    for (std::size_t j = 0; j < 4; ++j) lane_add(lanes, j, x[k * 4 + j]);
  }
}

#ifdef VARPRED_SIMD_AVX2

// Per-lane vector arithmetic mirroring lane_add term by term. AVX2 alone
// does not enable FMA contraction, so every multiply/add below rounds
// exactly like its scalar counterpart — bit-identical lanes.
__attribute__((target("avx2"))) void blocks_avx2(Lanes& lanes,
                                                 const double* x,
                                                 std::size_t n_blocks) {
  __m256d n = _mm256_loadu_pd(lanes.n);
  __m256d mean = _mm256_loadu_pd(lanes.mean);
  __m256d m2 = _mm256_loadu_pd(lanes.m2);
  __m256d m3 = _mm256_loadu_pd(lanes.m3);
  __m256d m4 = _mm256_loadu_pd(lanes.m4);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d three = _mm256_set1_pd(3.0);
  const __m256d four = _mm256_set1_pd(4.0);
  const __m256d six = _mm256_set1_pd(6.0);
  for (std::size_t k = 0; k < n_blocks; ++k) {
    const __m256d v = _mm256_loadu_pd(x + k * 4);
    const __m256d n1 = n;
    n = _mm256_add_pd(n1, one);
    const __m256d delta = _mm256_sub_pd(v, mean);
    const __m256d delta_n = _mm256_div_pd(delta, n);
    const __m256d delta_n2 = _mm256_mul_pd(delta_n, delta_n);
    const __m256d term1 = _mm256_mul_pd(_mm256_mul_pd(delta, delta_n), n1);
    mean = _mm256_add_pd(mean, delta_n);
    const __m256d poly = _mm256_add_pd(
        _mm256_sub_pd(_mm256_mul_pd(n, n), _mm256_mul_pd(three, n)), three);
    const __m256d m4_inc = _mm256_sub_pd(
        _mm256_add_pd(_mm256_mul_pd(_mm256_mul_pd(term1, delta_n2), poly),
                      _mm256_mul_pd(_mm256_mul_pd(six, delta_n2), m2)),
        _mm256_mul_pd(_mm256_mul_pd(four, delta_n), m3));
    m4 = _mm256_add_pd(m4, m4_inc);
    const __m256d m3_inc = _mm256_sub_pd(
        _mm256_mul_pd(_mm256_mul_pd(term1, delta_n), _mm256_sub_pd(n, two)),
        _mm256_mul_pd(_mm256_mul_pd(three, delta_n), m2));
    m3 = _mm256_add_pd(m3, m3_inc);
    m2 = _mm256_add_pd(m2, term1);
  }
  _mm256_storeu_pd(lanes.n, n);
  _mm256_storeu_pd(lanes.mean, mean);
  _mm256_storeu_pd(lanes.m2, m2);
  _mm256_storeu_pd(lanes.m3, m3);
  _mm256_storeu_pd(lanes.m4, m4);
}

#endif  // VARPRED_SIMD_AVX2

using BlockFn = void (*)(Lanes&, const double*, std::size_t);

// Shared epilogue: tail elements (fewer than one block) go to lanes
// 0..tail-1 through the scalar one-lane update — identical for both block
// variants — then the lanes merge in fixed order via the exact pairwise
// formulas.
MomentAccumulator run(BlockFn blocks, std::span<const double> sample) {
  Lanes lanes;
  const std::size_t n_blocks = sample.size() / 4;
  blocks(lanes, sample.data(), n_blocks);
  for (std::size_t j = 0; j < sample.size() % 4; ++j) {
    lane_add(lanes, j, sample[n_blocks * 4 + j]);
  }
  MomentAccumulator acc;
  for (std::size_t j = 0; j < 4; ++j) {
    acc.merge(MomentAccumulator::from_raw(static_cast<std::size_t>(lanes.n[j]),
                                          lanes.mean[j], lanes.m2[j],
                                          lanes.m3[j], lanes.m4[j]));
  }
  return acc;
}

BlockFn dispatched_blocks() {
  static const BlockFn chosen = [] {
#ifdef VARPRED_SIMD_AVX2
    if (avx2_enabled()) return static_cast<BlockFn>(blocks_avx2);
#endif
    return static_cast<BlockFn>(blocks_scalar);
  }();
  return chosen;
}

}  // namespace

MomentAccumulator accumulate_moments(std::span<const double> sample) {
  return run(dispatched_blocks(), sample);
}

MomentAccumulator accumulate_moments_scalar(std::span<const double> sample) {
  return run(blocks_scalar, sample);
}

MomentAccumulator accumulate_moments_avx2(std::span<const double> sample) {
#ifdef VARPRED_SIMD_AVX2
  if (cpu_has_avx2()) return run(blocks_avx2, sample);
#endif
  return run(blocks_scalar, sample);
}

bool welford_avx2_active() { return avx2_enabled(); }

}  // namespace varpred::stats
