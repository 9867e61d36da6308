#include "stats/histogram.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace varpred::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0.0) {
  VARPRED_CHECK_ARG(hi > lo, "histogram range must be non-empty");
  VARPRED_CHECK_ARG(bins >= 1, "histogram needs >= 1 bin");
}

Histogram Histogram::fit(std::span<const double> sample, double lo, double hi,
                         std::size_t bins) {
  Histogram h(lo, hi, bins);
  h.add_all(sample);
  return h;
}

std::size_t Histogram::bin_of(double x) const {
  if (x <= lo_) return 0;
  if (x >= hi_) return counts_.size() - 1;
  const auto idx = static_cast<std::size_t>((x - lo_) / width_);
  return std::min(idx, counts_.size() - 1);
}

double Histogram::bin_center(std::size_t i) const {
  VARPRED_CHECK_ARG(i < counts_.size(), "bin index out of range");
  return lo_ + width_ * (static_cast<double>(i) + 0.5);
}

void Histogram::add(double x) {
  counts_[bin_of(x)] += 1.0;
  ++total_;
}

void Histogram::add_all(std::span<const double> sample) {
  for (const double x : sample) add(x);
}

std::vector<double> Histogram::probabilities() const {
  std::vector<double> probs(counts_.size(), 0.0);
  if (total_ == 0) return probs;
  const double inv = 1.0 / static_cast<double>(total_);
  for (std::size_t i = 0; i < counts_.size(); ++i) probs[i] = counts_[i] * inv;
  return probs;
}

std::vector<double> Histogram::densities() const {
  auto probs = probabilities();
  for (auto& p : probs) p /= width_;
  return probs;
}

namespace {

// Sum of a bin-probability vector, checked: non-empty, no negative bin, not
// all zero.
double checked_total(std::span<const double> probs) {
  VARPRED_CHECK_ARG(!probs.empty(), "empty probability vector");
  double total = 0.0;
  for (const double p : probs) {
    VARPRED_CHECK_ARG(p >= 0.0, "negative bin probability");
    total += p;
  }
  VARPRED_CHECK_ARG(total > 0.0, "all-zero probability vector");
  return total;
}

// One draw from checked probabilities summing to `total`.
double draw(std::span<const double> probs, double total, double lo,
            double width, Rng& rng) {
  double u = rng.uniform() * total;
  std::size_t idx = 0;
  for (; idx + 1 < probs.size(); ++idx) {
    if (u < probs[idx]) break;
    u -= probs[idx];
  }
  const double frac = probs[idx] > 0.0 ? u / probs[idx] : rng.uniform();
  return lo + width * (static_cast<double>(idx) +
                       std::clamp(frac, 0.0, 1.0));
}

// Width of each of the probs.size() equal bins over [lo, hi].
double bin_width_of(std::span<const double> probs, double lo, double hi) {
  return (hi - lo) / static_cast<double>(probs.size());
}

}  // namespace

double Histogram::sample_from_probs(std::span<const double> probs, double lo,
                                    double hi, Rng& rng) {
  const double total = checked_total(probs);
  return draw(probs, total, lo, bin_width_of(probs, lo, hi), rng);
}

std::vector<double> Histogram::sample_many_from_probs(
    std::span<const double> probs, double lo, double hi, std::size_t n,
    Rng& rng) {
  std::vector<double> out(n);
  if (n == 0) return out;
  // Checked and summed once per call; each draw then only walks the bins.
  const double total = checked_total(probs);
  const double width = bin_width_of(probs, lo, hi);
  for (auto& v : out) v = draw(probs, total, lo, width, rng);
  return out;
}

}  // namespace varpred::stats
