// envelope.hpp — live golden-envelope checking for telemetry series.
//
// check_trace.py diffs a finished run against a golden trace; an
// EnvelopeWatch does the cheaper live version: each rule bounds one series
// to [lo, hi], every committed TimeSeriesRecorder row is checked against
// the matching rules, and the first breach fires a callback — which the
// TelemetrySession wires to the flight-recorder dump, so the post-mortem
// ring is written at the moment of the breach, not at process exit.
//
// Envelope files are deliberately trivial to parse and to diff:
//
//   # series        lo          hi
//   fleet.delivered_per_s   150   1e18
//   fleet.collision_rate    0     0.25
//
// one rule per line, '#' comments, whitespace-separated. Rules for series
// a run never records simply never match (reported as unchecked).
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace pico {
class JsonWriter;
}

namespace pico::obs {

struct EnvelopeRule {
  std::string series;
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t checks = 0;  // samples checked against this rule
};

class EnvelopeWatch {
 public:
  struct Breach {
    std::string series;
    double t_s = 0.0;
    double value = 0.0;
    double lo = 0.0;
    double hi = 0.0;
  };

  EnvelopeWatch() = default;

  // Parse the line format above; throws DesignError on a malformed line.
  [[nodiscard]] static EnvelopeWatch load(const std::string& path);

  void add_rule(const std::string& series, double lo, double hi);
  [[nodiscard]] const std::vector<EnvelopeRule>& rules() const { return rules_; }

  // Check one sample; returns true while in-envelope (or unruled). NaN
  // samples (series not set this row) are not checked. Every breach is
  // recorded; only the first fires the callback.
  bool check(const std::string& series, double t_s, double value);

  [[nodiscard]] bool breached() const { return !breaches_.empty(); }
  [[nodiscard]] const std::vector<Breach>& breaches() const { return breaches_; }
  void set_on_breach(std::function<void(const Breach&)> cb) { on_breach_ = std::move(cb); }

  // Manifest section: rules (with check counts) and recorded breaches.
  void write_summary(JsonWriter& w) const;
  [[nodiscard]] std::string summary_json() const;

 private:
  std::vector<EnvelopeRule> rules_;
  std::vector<Breach> breaches_;
  std::function<void(const Breach&)> on_breach_;
};

}  // namespace pico::obs
