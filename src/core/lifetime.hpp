// lifetime.hpp — storage sizing and calendar-life analysis.
//
// The paper's motivation: "the sensors must live at least as long as the
// application is in service, which can be decades ... changing batteries
// ... is impractical." With harvesting, the storage buffer's job shrinks
// to *ride-through*: carrying the node across harvest gaps (a parked car,
// a dark weekend). These helpers size that buffer and estimate life.
#pragma once

#include "common/units.hpp"
#include "storage/store.hpp"

namespace pico::core {

struct RideThroughSpec {
  Power node_average{6.5e-6};     // consumption to carry
  Duration gap{14 * 86400.0};     // longest harvest outage (two dark weeks)
  double usable_depth = 0.7;      // SoC swing the buffer may use
  double self_discharge_per_day = 0.01;
};

class LifetimeAnalysis {
 public:
  // Battery capacity needed to ride through the gap (self-discharge
  // compounds with the load).
  [[nodiscard]] static Charge required_capacity(const RideThroughSpec& spec,
                                                Voltage nominal);

  // Cycle-life proxy: full-capacity throughput cycles per year at a duty
  // cycle (NiMH survives ~500-1000 shallow cycles; trickle topping does
  // not count).
  [[nodiscard]] static double equivalent_full_cycles_per_year(Power node_average,
                                                              Charge capacity,
                                                              Voltage nominal);

  // Calendar-life verdict: years until either cycle budget or calendar
  // fade (whichever first) for a NiMH cell carrying this node.
  struct LifeEstimate {
    double years_cycle_limited = 0.0;
    double years_calendar_limited = 0.0;
    [[nodiscard]] double years() const {
      return years_cycle_limited < years_calendar_limited ? years_cycle_limited
                                                          : years_calendar_limited;
    }
    bool decade_class = false;  // meets the paper's "decades" ambition?
  };
  [[nodiscard]] static LifeEstimate nimh_life(Power node_average, Charge capacity,
                                              Voltage nominal, double cycle_budget = 800.0,
                                              double calendar_years = 8.0);
};

}  // namespace pico::core
