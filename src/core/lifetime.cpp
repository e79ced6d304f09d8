#include "core/lifetime.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pico::core {

Charge LifetimeAnalysis::required_capacity(const RideThroughSpec& spec, Voltage nominal) {
  PICO_REQUIRE(spec.usable_depth > 0.0 && spec.usable_depth <= 1.0,
               "usable depth must be within (0, 1]");
  PICO_REQUIRE(nominal.value() > 0.0, "nominal voltage must be positive");
  // Load charge over the gap...
  const double load_q = spec.node_average.value() / nominal.value() * spec.gap.value();
  // ...inflated by self-discharge acting on the (average) stored charge.
  // First-order: effective drain multiplier over the gap.
  const double sd = spec.self_discharge_per_day / 86400.0 * spec.gap.value();
  const double q = load_q * (1.0 + 0.5 * sd) / spec.usable_depth / std::max(1.0 - sd, 0.05);
  return Charge{q};
}

double LifetimeAnalysis::equivalent_full_cycles_per_year(Power node_average, Charge capacity,
                                                         Voltage nominal) {
  PICO_REQUIRE(capacity.value() > 0.0, "capacity must be positive");
  const double annual_q =
      node_average.value() / nominal.value() * 365.25 * 86400.0;
  return annual_q / capacity.value();
}

LifetimeAnalysis::LifeEstimate LifetimeAnalysis::nimh_life(Power node_average,
                                                           Charge capacity, Voltage nominal,
                                                           double cycle_budget,
                                                           double calendar_years) {
  LifeEstimate est;
  const double cycles_per_year =
      equivalent_full_cycles_per_year(node_average, capacity, nominal);
  est.years_cycle_limited =
      cycles_per_year > 0.0 ? cycle_budget / cycles_per_year : calendar_years;
  est.years_calendar_limited = calendar_years;
  est.decade_class = est.years() >= 10.0;
  return est;
}

}  // namespace pico::core
