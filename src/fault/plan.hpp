// plan.hpp — typed, schedulable fault events for adversarial scenarios.
//
// The paper's 6 µW budget is claimed to survive hostile conditions —
// intermittent shaker input, NiMH plateau collapse, brownout during TX
// bursts — but a nominal drive cycle never exercises any of that. A
// `FaultPlan` is the declarative description of one hostile run: a list of
// typed fault events (harvester derating, storage aging, converter
// efficiency loss, channel fade, supply glitches) with absolute start
// times and optional durations. Plans are pure data: deterministic,
// comparable, and round-trippable through a compact spec string so a
// failing run can be replayed bit-identically from its RunManifest alone
// (docs/ROBUSTNESS.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace pico::fault {

enum class FaultKind : std::uint8_t {
  // Harvester amplitude derating (wheel stop / spin-down / shadowed cell).
  // magnitude = amplitude factor in [0, 1] (0 = full dropout). Windowed.
  kHarvesterDerate,
  // Storage aging step: magnitude = capacity factor (0, 1]; param2 =
  // internal-resistance multiplier (>= 1); param3 = self-discharge
  // multiplier (>= 1). Applied permanently at `at_s`.
  kStorageAging,
  // Converter efficiency degradation: magnitude = efficiency factor in
  // (0, 1] (battery draw scales by 1/magnitude). Windowed; duration <= 0
  // means permanent from `at_s`.
  kConverterDegradation,
  // Radio channel fade: magnitude = per-frame loss probability in [0, 1].
  // Frames still cost their full TX energy; they just never arrive.
  kChannelLoss,
  // Supply glitch: magnitude = extra load current [A] shorted onto the
  // MCU rail for the window — must flow through the accountant so the
  // existing brownout path can trip.
  kSupplyGlitch,
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kHarvesterDerate;
  double at_s = 0.0;        // absolute start time [s]
  double duration_s = 0.0;  // window length; <= 0 = permanent (ignored for aging)
  double magnitude = 0.0;   // kind-specific main knob (see FaultKind)
  double param2 = 1.0;
  double param3 = 1.0;

  bool operator==(const FaultEvent&) const = default;

  // Validate the event's fields against its kind; throws DesignError.
  void validate() const;
  [[nodiscard]] bool windowed() const;
  // The window rule: a windowed event is in effect over
  // [at_s, at_s + duration_s), or from at_s on when duration_s <= 0.
  [[nodiscard]] bool in_effect(double t) const {
    return at_s <= t && (duration_s <= 0.0 || t < at_s + duration_s);
  }
};

// The level of one windowed fault kind over time, piecewise constant
// between window edges: the one composition rule both engines read. The
// windows in effect at t compose in plan order — factors multiply, glitch
// currents add, losses combine as 1 - Π(1 - p) folded as l <- l + p(1 - l),
// so a lone window yields its own level exactly. With none in effect the
// level is neutral: 1 for factors, 0 for losses and currents.
class FaultSchedule {
 public:
  // Level in effect at t. Allocates nothing.
  [[nodiscard]] double level(double t) const {
    const auto k = static_cast<std::size_t>(
        std::upper_bound(edge_s_.begin(), edge_s_.end(), t) - edge_s_.begin());
    return k == 0 ? neutral_ : level_[k - 1];
  }
  // Calls f(a, b, level) for each non-neutral segment clipped to [a, b) of
  // [t0, t1), in time order.
  template <typename F>
  void for_each_segment(double t0, double t1, F&& f) const {
    for (std::size_t k = 0; k < edge_s_.size() && edge_s_[k] < t1; ++k) {
      const double end = k + 1 < edge_s_.size() ? edge_s_[k + 1] : t1;
      const double a = std::max(t0, edge_s_[k]);
      const double b = std::min(t1, end);
      if (b > a && level_[k] != neutral_) f(a, b, level_[k]);
    }
  }

 private:
  friend class FaultPlan;
  double neutral_ = 0.0;
  std::vector<double> edge_s_;  // ascending window edges
  std::vector<double> level_;   // level_[k] holds on [edge_s_[k], edge_s_[k + 1])
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // --- Builders (all return *this for chaining; validate eagerly) -----------
  FaultPlan& harvester_dropout(double at_s, double duration_s);
  FaultPlan& harvester_derate(double at_s, double duration_s, double factor);
  FaultPlan& storage_aging(double at_s, double capacity_factor, double resistance_mult,
                           double self_discharge_mult);
  FaultPlan& converter_degradation(double at_s, double duration_s, double efficiency);
  FaultPlan& channel_loss(double at_s, double duration_s, double probability);
  FaultPlan& supply_glitch(double at_s, double duration_s, double amps);
  FaultPlan& add(FaultEvent ev);

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  // The composed level of windowed `kind` (not kStorageAging) over time.
  [[nodiscard]] FaultSchedule schedule(FaultKind kind) const;

  bool operator==(const FaultPlan&) const = default;

  // --- Spec codec -----------------------------------------------------------
  // Compact text form recorded in RunManifests: events joined by ';', each
  // `kind@at[~dur]=mag[,p2[,p3]]` with %.17g numbers, so parse(to_spec())
  // reproduces the plan bit-identically. parse() throws DesignError on a
  // malformed spec.
  [[nodiscard]] std::string to_spec() const;
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  // Seeded random plan over [0, horizon): up to `max_events` events drawn
  // from every kind with plausible hostile magnitudes. Deterministic in the
  // generator state — feed it Rng::stream(base, trial) and trial i sees the
  // same plan at any thread count.
  [[nodiscard]] static FaultPlan randomized(Rng& rng, Duration horizon,
                                            std::size_t max_events = 6);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace pico::fault
