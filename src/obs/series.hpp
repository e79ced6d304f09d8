// series.hpp — sim-time telemetry series with bounded memory.
//
// The metrics registry answers "what were the final totals"; a
// TimeSeriesRecorder answers "what was the run doing at t = 37 s". Hosts
// register named series up front, then commit one row per sample tick:
//
//   TimeSeriesRecorder rec(0.5);                 // sample every 0.5 sim-s
//   const auto id = rec.series("fleet.delivered");
//   ...
//   if (rec.due(t)) {
//     rec.begin_row(t);
//     rec.set(id, delivered);
//     rec.commit_row();
//   }
//
// Storage is dense per-series columns sharing one time column. Memory is
// bounded: when the row count reaches the cap, the recorder decimates in
// place — every other row is dropped and the cadence doubles — so an
// arbitrarily long soak keeps a uniform, full-horizon picture in a fixed
// footprint (the EnHANTs-style budget-over-time view, never an OOM).
// After registration the steady-state path (begin/set/commit, including
// decimation) performs no heap allocation.
//
// Rows commit through an optional EnvelopeWatch, which is how a live run
// detects "outside the golden envelope" the moment it happens instead of
// post-hoc in check_trace.py.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pico {
class JsonWriter;
}

namespace pico::obs {

class EnvelopeWatch;

class TimeSeriesRecorder {
 public:
  using SeriesId = std::uint32_t;

  // `dt_s` is the sampling cadence in sim seconds; `max_rows` bounds
  // memory (reaching it halves the resolution in place).
  explicit TimeSeriesRecorder(double dt_s, std::size_t max_rows = 4096);

  // Register (or look up) a series; same name returns the same id.
  // Registration back-fills NaN for rows committed before it.
  SeriesId series(const std::string& name);

  // Current cadence (doubles on every decimation).
  [[nodiscard]] double dt_s() const { return dt_; }
  [[nodiscard]] double initial_dt_s() const { return dt0_; }
  [[nodiscard]] std::size_t decimations() const { return decimations_; }
  [[nodiscard]] std::size_t rows() const { return t_.size(); }
  [[nodiscard]] std::size_t series_count() const { return cols_.size(); }
  [[nodiscard]] std::size_t max_rows() const { return cap_; }

  // True once sim time has crossed the next sample boundary.
  [[nodiscard]] bool due(double t_s) const { return t_s >= next_t_; }

  // One row = one sample tick: open at sim time `t_s` (monotone across
  // rows), set any subset of the series (unset stay NaN), commit.
  void begin_row(double t_s);
  void set(SeriesId id, double value);
  void commit_row();

  [[nodiscard]] const std::vector<double>& times() const { return t_; }

  // Envelope checked on every commit_row (null to detach).
  void set_watch(EnvelopeWatch* watch) { watch_ = watch; }

  // --- Checkpoint/restore (src/ckpt) -----------------------------------------
  // The full resumable state. `dt_s` is the *current* cadence — after k
  // in-place decimations it is dt0 * 2^k, and a restore that failed to
  // reinstate it (and `next_t_s`) would sample the resumed run at the
  // original cadence, hitting the row cap on a different schedule than the
  // uninterrupted run. The decimation-boundary regression test pins this.
  struct CheckpointState {
    double dt0_s = 0.0;
    double dt_s = 0.0;
    double next_t_s = 0.0;
    std::uint64_t max_rows = 0;
    std::uint64_t decimations = 0;
    std::vector<double> t;
    std::vector<std::string> names;
    std::vector<std::vector<double>> cols;  // one per name, all t.size() long
  };
  [[nodiscard]] CheckpointState checkpoint_state() const;
  // Replace this recorder's rows, cadence and decimation level (no row
  // may be open). The checkpoint must come from a recorder with the same
  // row cap and the same series registered in the same order.
  void restore(const CheckpointState& st);

  // --- Export ----------------------------------------------------------------
  // JSONL: one self-describing object per row, {"t_s": ..., "<name>": ...};
  // NaN samples are emitted as null.
  void write_jsonl(const std::string& path) const;
  // CSV: header "t_s,<name>,...", empty cells for NaN.
  void write_csv(const std::string& path) const;
  // Summary for the run manifest: cadence, rows, per-series
  // {n,min,max,last,p50,p99} over the retained samples.
  void write_summary(JsonWriter& w) const;
  [[nodiscard]] std::string summary_json() const;

 private:
  void decimate();

  struct Column {
    std::string name;
    std::vector<double> v;
  };

  double dt0_;
  double dt_;
  double next_t_;
  std::size_t cap_;
  std::size_t decimations_ = 0;
  bool row_open_ = false;
  std::vector<double> t_;
  std::vector<Column> cols_;
  EnvelopeWatch* watch_ = nullptr;
};

}  // namespace pico::obs
