// stats.hpp — streaming statistics and histograms used by the benches and
// by the node energy accountant (mean power, peaks, percentiles).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pico {

// Welford streaming accumulator: numerically stable mean/variance plus
// min/max, without storing samples.
class RunningStats {
 public:
  void add(double x);
  void add_weighted(double x, double weight);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double total_weight() const { return w_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  // population variance (weighted)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return mean() * w_; }

 private:
  std::size_t n_ = 0;
  double w_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Fixed-bin histogram over [lo, hi] with under/overflow bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] double bin_low(std::size_t i) const;
  [[nodiscard]] double bin_high(std::size_t i) const;
  // Simple ASCII rendering for bench output.
  [[nodiscard]] std::string ascii(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

// Exact percentile of a sample vector (copies and sorts; for bench-sized data).
double percentile(std::vector<double> samples, double p);

}  // namespace pico
