// trace.hpp — waveform recording for simulation runs.
//
// A `Trace` is a time series with either step (piecewise-constant,
// sample-and-hold) or linear interpolation semantics. Power profiles in the
// event-driven node simulation are exact step functions — a device's
// current changes only at events — so step traces record them exactly.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace pico::sim {

enum class Interp {
  kStep,    // value holds until the next sample (power profiles)
  kLinear,  // straight line between samples (analog waveforms)
};

class Trace {
 public:
  explicit Trace(std::string name = {}, Interp interp = Interp::kStep);

  // Append a sample; time must be non-decreasing. A sample at the same
  // timestamp as the previous one overwrites it (state settled within one
  // event cascade).
  void record(Duration t, double value);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Interp interp() const { return interp_; }
  [[nodiscard]] std::size_t size() const { return t_.size(); }
  [[nodiscard]] bool empty() const { return t_.empty(); }
  [[nodiscard]] const std::vector<double>& times() const { return t_; }
  [[nodiscard]] const std::vector<double>& values() const { return v_; }

  // Value at time t (seconds); before the first sample returns the first
  // value, after the last returns the last.
  [[nodiscard]] double at(Duration t) const;

  [[nodiscard]] double max_value() const;

  // Uniformly resample into n points over [t0, t1] (for plotting).
  // An empty trace or n == 0 yields an empty vector; n == 1 yields the
  // single point (t0, at(t0)).
  [[nodiscard]] std::vector<std::pair<double, double>> resample(Duration t0, Duration t1,
                                                                std::size_t n) const;

 private:
  [[nodiscard]] double value_on_segment(std::size_t left, double t) const;

  std::string name_;
  Interp interp_;
  std::vector<double> t_;
  std::vector<double> v_;
};

// A named collection of traces recorded during one simulation run.
class TraceSet {
 public:
  // Get or create a trace.
  Trace& channel(const std::string& name, Interp interp = Interp::kStep);
  [[nodiscard]] const Trace* find(const std::string& name) const;

  // Dump all channels, resampled on a shared uniform grid, as CSV.
  void write_csv(const std::string& path, Duration t0, Duration t1, std::size_t points) const;

 private:
  std::map<std::string, Trace> traces_;
};

}  // namespace pico::sim
