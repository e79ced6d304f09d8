#include "sim/trace.hpp"

#include <algorithm>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace pico::sim {

Trace::Trace(std::string name, Interp interp) : name_(std::move(name)), interp_(interp) {}

void Trace::record(Duration t, double value) {
  const double tv = t.value();
  if (!t_.empty()) {
    PICO_REQUIRE(tv >= t_.back(), "trace samples must be time-ordered");
    if (tv == t_.back()) {
      v_.back() = value;  // settle within one event cascade
      return;
    }
  }
  t_.push_back(tv);
  v_.push_back(value);
}

double Trace::value_on_segment(std::size_t left, double t) const {
  if (interp_ == Interp::kStep) return v_[left];
  if (left + 1 >= t_.size()) return v_[left];
  const double t0 = t_[left];
  const double t1 = t_[left + 1];
  if (t1 == t0) return v_[left + 1];
  const double frac = (t - t0) / (t1 - t0);
  return lerp(v_[left], v_[left + 1], frac);
}

double Trace::at(Duration t) const {
  PICO_REQUIRE(!t_.empty(), "Trace::at on empty trace");
  const double tv = t.value();
  if (tv <= t_.front()) return v_.front();
  if (tv >= t_.back()) return v_.back();
  const auto it = std::upper_bound(t_.begin(), t_.end(), tv);
  const auto left = static_cast<std::size_t>(it - t_.begin()) - 1;
  return value_on_segment(left, tv);
}

double Trace::max_value() const {
  PICO_REQUIRE(!v_.empty(), "max_value of empty trace");
  return *std::max_element(v_.begin(), v_.end());
}

std::vector<std::pair<double, double>> Trace::resample(Duration t0, Duration t1,
                                                       std::size_t n) const {
  std::vector<std::pair<double, double>> out;
  if (n == 0 || t_.empty()) return out;
  out.reserve(n);
  const double a = t0.value();
  const double b = t1.value();
  if (n == 1) {
    out.emplace_back(a, at(t0));
    return out;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double t = a + (b - a) * static_cast<double>(i) / static_cast<double>(n - 1);
    out.emplace_back(t, at(Duration{t}));
  }
  return out;
}

Trace& TraceSet::channel(const std::string& name, Interp interp) {
  auto it = traces_.find(name);
  if (it == traces_.end()) {
    it = traces_.emplace(name, Trace{name, interp}).first;
  }
  return it->second;
}

const Trace* TraceSet::find(const std::string& name) const {
  const auto it = traces_.find(name);
  return it == traces_.end() ? nullptr : &it->second;
}

void TraceSet::write_csv(const std::string& path, Duration t0, Duration t1,
                         std::size_t points) const {
  CsvWriter csv(path);
  std::vector<std::string> header{"time_s"};
  for (const auto& [name, tr] : traces_) header.push_back(name);
  csv.write_header(header);
  const double a = t0.value();
  const double b = t1.value();
  for (std::size_t i = 0; i < points; ++i) {
    const double t = a + (b - a) * static_cast<double>(i) / static_cast<double>(points - 1);
    std::vector<double> row{t};
    for (const auto& [name, tr] : traces_) {
      row.push_back(tr.empty() ? 0.0 : tr.at(Duration{t}));
    }
    csv.write_row(row);
  }
}

}  // namespace pico::sim
