#include "obs/series.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/envelope.hpp"

namespace pico::obs {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Interpolated quantile over the finite samples of a column (nearest-rank
// with linear interpolation, the same convention HistogramSnapshot::quantile
// and tools/soak_report.py use).
double column_quantile(std::vector<double>& sorted_finite, double p) {
  if (sorted_finite.empty()) return 0.0;
  if (p <= 0.0) return sorted_finite.front();
  if (p >= 1.0) return sorted_finite.back();
  const double rank = p * static_cast<double>(sorted_finite.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_finite.size()) return sorted_finite.back();
  return sorted_finite[lo] + frac * (sorted_finite[lo + 1] - sorted_finite[lo]);
}
}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(double dt_s, std::size_t max_rows)
    : dt0_(dt_s), dt_(dt_s), next_t_(0.0), cap_(max_rows) {
  PICO_REQUIRE(dt_s > 0.0, "series cadence must be positive");
  PICO_REQUIRE(max_rows >= 4, "series row cap must be at least 4");
  t_.reserve(cap_);
}

TimeSeriesRecorder::SeriesId TimeSeriesRecorder::series(const std::string& name) {
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    if (cols_[i].name == name) return static_cast<SeriesId>(i);
  }
  PICO_REQUIRE(!row_open_, "cannot register a series inside an open row");
  Column c;
  c.name = name;
  c.v.reserve(cap_);
  c.v.assign(t_.size(), kNaN);  // back-fill rows committed before registration
  cols_.push_back(std::move(c));
  return static_cast<SeriesId>(cols_.size() - 1);
}

void TimeSeriesRecorder::begin_row(double t_s) {
  PICO_ASSERT(!row_open_);
  PICO_REQUIRE(t_.empty() || t_s >= t_.back(), "series rows must be time-ordered");
  row_open_ = true;
  t_.push_back(t_s);
  for (Column& c : cols_) c.v.push_back(kNaN);
}

void TimeSeriesRecorder::set(SeriesId id, double value) {
  PICO_ASSERT(row_open_);
  PICO_ASSERT(id < cols_.size());
  cols_[id].v.back() = value;
}

void TimeSeriesRecorder::commit_row() {
  PICO_ASSERT(row_open_);
  row_open_ = false;
  const double t = t_.back();
  if (watch_ != nullptr) {
    for (const Column& c : cols_) {
      const double v = c.v.back();
      if (!std::isnan(v)) watch_->check(c.name, t, v);
    }
  }
  // Advance the cadence grid past the committed row.
  while (next_t_ <= t) next_t_ += dt_;
  if (t_.size() >= cap_) decimate();
}

void TimeSeriesRecorder::decimate() {
  // Keep every other row in place; the cadence doubles, the horizon and
  // the memory footprint stay fixed. No allocation: resize only shrinks.
  const std::size_t kept = (t_.size() + 1) / 2;
  for (std::size_t i = 0; i < kept; ++i) t_[i] = t_[2 * i];
  t_.resize(kept);
  for (Column& c : cols_) {
    for (std::size_t i = 0; i < kept; ++i) c.v[i] = c.v[2 * i];
    c.v.resize(kept);
  }
  dt_ *= 2.0;
  ++decimations_;
  next_t_ = t_.empty() ? 0.0 : t_.back() + dt_;
}

TimeSeriesRecorder::CheckpointState TimeSeriesRecorder::checkpoint_state() const {
  PICO_REQUIRE(!row_open_, "cannot checkpoint a series recorder mid-row");
  CheckpointState st;
  st.dt0_s = dt0_;
  st.dt_s = dt_;
  st.next_t_s = next_t_;
  st.max_rows = cap_;
  st.decimations = decimations_;
  st.t = t_;
  st.names.reserve(cols_.size());
  st.cols.reserve(cols_.size());
  for (const Column& c : cols_) {
    st.names.push_back(c.name);
    st.cols.push_back(c.v);
  }
  return st;
}

void TimeSeriesRecorder::restore(const CheckpointState& st) {
  PICO_REQUIRE(!row_open_, "cannot restore a series recorder mid-row");
  PICO_REQUIRE(st.dt0_s > 0.0 && st.dt_s >= st.dt0_s,
               "series checkpoint has invalid cadence");
  // The blob's row cap sizes every column: bound it by this recorder's.
  PICO_REQUIRE(st.max_rows == cap_,
               "series checkpoint row cap " + std::to_string(st.max_rows) +
                   " differs from this recorder's " + std::to_string(cap_));
  PICO_REQUIRE(st.names.size() == st.cols.size(),
               "series checkpoint column/name count mismatch");
  // Hosts hold SeriesIds into this recorder, so the checkpoint must carry
  // exactly the series registered here, in registration order.
  PICO_REQUIRE(st.names.size() == cols_.size(),
               "series checkpoint holds " + std::to_string(st.names.size()) +
                   " series; this recorder registers " + std::to_string(cols_.size()));
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    PICO_REQUIRE(st.names[i] == cols_[i].name,
                 "series checkpoint column " + std::to_string(i) + " is '" +
                     st.names[i] + "'; this recorder registers '" + cols_[i].name + "'");
    PICO_REQUIRE(st.cols[i].size() == st.t.size(),
                 "series checkpoint column length mismatch");
  }
  dt0_ = st.dt0_s;
  dt_ = st.dt_s;  // the decimated cadence, not dt0 — see CheckpointState
  next_t_ = st.next_t_s;
  decimations_ = static_cast<std::size_t>(st.decimations);
  t_ = st.t;
  t_.reserve(cap_);
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    cols_[i].v = st.cols[i];
    cols_[i].v.reserve(cap_);
  }
}

const std::vector<double>& TimeSeriesRecorder::column(SeriesId id) const {
  PICO_ASSERT(id < cols_.size());
  return cols_[id].v;
}

const std::string& TimeSeriesRecorder::name(SeriesId id) const {
  PICO_ASSERT(id < cols_.size());
  return cols_[id].name;
}

void TimeSeriesRecorder::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  PICO_REQUIRE(os.good(), "cannot open series output: " + path);
  for (std::size_t r = 0; r < t_.size(); ++r) {
    JsonWriter w(os, 0);
    w.begin_object();
    w.kv("t_s", t_[r]);
    for (const Column& c : cols_) w.kv(c.name, c.v[r]);  // NaN -> null
    w.end_object();
    os << '\n';
  }
}

void TimeSeriesRecorder::write_csv(const std::string& path) const {
  CsvWriter csv(path);
  std::vector<std::string> header{"t_s"};
  for (const Column& c : cols_) header.push_back(c.name);
  csv.write_header(header);
  std::vector<std::string> row(cols_.size() + 1);
  for (std::size_t r = 0; r < t_.size(); ++r) {
    row[0] = std::to_string(t_[r]);
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      const double v = cols_[c].v[r];
      row[c + 1] = std::isnan(v) ? std::string{} : std::to_string(v);
    }
    csv.write_row(row);
  }
}

void TimeSeriesRecorder::write_summary(JsonWriter& w) const {
  w.begin_object();
  w.kv("dt_s", dt_);
  w.kv("initial_dt_s", dt0_);
  w.kv("rows", static_cast<std::uint64_t>(t_.size()));
  w.kv("max_rows", static_cast<std::uint64_t>(cap_));
  w.kv("decimations", static_cast<std::uint64_t>(decimations_));
  w.key("series").begin_object();
  std::vector<double> finite;
  for (const Column& c : cols_) {
    finite.clear();
    double last = kNaN;
    for (const double v : c.v) {
      if (std::isnan(v)) continue;
      finite.push_back(v);
      last = v;
    }
    std::sort(finite.begin(), finite.end());
    w.key(c.name).begin_object();
    w.kv("n", static_cast<std::uint64_t>(finite.size()));
    if (!finite.empty()) {
      w.kv("min", finite.front());
      w.kv("max", finite.back());
      w.kv("last", last);
      w.kv("p50", column_quantile(finite, 0.50));
      w.kv("p99", column_quantile(finite, 0.99));
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string TimeSeriesRecorder::summary_json() const {
  std::ostringstream os;
  JsonWriter w(os);
  write_summary(w);
  return os.str();
}

}  // namespace pico::obs
