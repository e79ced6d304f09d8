#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace pico {

void RunningStats::add(double x) { add_weighted(x, 1.0); }

void RunningStats::add_weighted(double x, double weight) {
  PICO_REQUIRE(weight >= 0.0, "weights must be non-negative");
  if (weight == 0.0) return;
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  w_ += weight;
  const double delta = x - mean_;
  mean_ += (weight / w_) * delta;
  m2_ += weight * delta * (x - mean_);
}

double RunningStats::mean() const { return n_ ? mean_ : 0.0; }

double RunningStats::variance() const { return w_ > 0.0 ? m2_ / w_ : 0.0; }

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return n_ ? min_ : 0.0; }

double RunningStats::max() const { return n_ ? max_ : 0.0; }

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  PICO_REQUIRE(hi > lo, "Histogram requires hi > lo");
  PICO_REQUIRE(bins >= 1, "Histogram requires at least one bin");
  counts_.resize(bins, 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const auto i = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size()));
  counts_[std::min(i, counts_.size() - 1)]++;
}

double Histogram::bin_low(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bin_high(std::size_t i) const { return bin_low(i + 1); }

std::string Histogram::ascii(std::size_t width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) * static_cast<double>(width));
    out << "[" << bin_low(i) << ", " << bin_high(i) << ") " << std::string(bar, '#') << " "
        << counts_[i] << "\n";
  }
  return out.str();
}

double percentile(std::vector<double> samples, double p) {
  PICO_REQUIRE(!samples.empty(), "percentile of empty sample set");
  PICO_REQUIRE(p >= 0.0 && p <= 1.0, "percentile requires p in [0,1]");
  std::sort(samples.begin(), samples.end());
  const double idx = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

}  // namespace pico
