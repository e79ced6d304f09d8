// building_sensor — the paper's opening ambition, end to end: "sensing
// systems will become ubiquitous, and will be embedded in everyday
// materials and surfaces ... the sensors must live at least as long as the
// application is in service, which can be decades (for example, in a
// building)."
//
// This example designs a solar-clad PicoCube for a building wall using the
// library's whole toolbox:
//   1. energy budget: solar harvest vs node consumption over day/night,
//   2. storage sizing: ride-through for dark weekends, checked against
//      the stock NiMH cell,
//   3. the §7.3 wake-up radio trade for on-demand queries,
//   4. a week-long simulation to confirm the design is energy-neutral.
#include <iostream>

#include "common/format.hpp"
#include "core/lifetime.hpp"
#include "core/node.hpp"
#include "obs/session.hpp"
#include "radio/wakeup.hpp"

using namespace pico;
using namespace pico::literals;

int main(int argc, char** argv) {
  // Optional run telemetry: --telemetry[=<prefix>] writes a manifest,
  // Chrome trace, and span CSV for this run.
  auto telemetry = obs::TelemetrySession::from_args(argc, argv, "building_sensor");
  std::cout << "designing a building-wall PicoCube (solar, decades of service)\n";

  // 1. ---- Energy budget ----------------------------------------------------
  // Indoor wall near a window: modest peak, 10 h of light per day.
  harvest::IrradianceProfile::Params light;
  light.peak_w_per_m2 = 60.0;
  light.floor_w_per_m2 = 0.5;  // corridor lighting at night
  light.daylight_fraction = 10.0 / 24.0;

  core::NodeConfig cfg;
  cfg.sensor = core::NodeConfig::Sensor::kTpms;  // stand-in ambient sensor board
  cfg.sample_interval = 30_s;  // building telemetry cadence
  cfg.drive = harvest::make_parked(Duration{8 * 86400.0});
  cfg.attach_harvester = true;
  cfg.harvester = core::NodeConfig::HarvesterKind::kSolar;
  cfg.irradiance = harvest::IrradianceProfile{light};
  cfg.harvest_update = 60_s;
  cfg.battery_initial_soc = 0.6;

  // 2. ---- Storage sizing ----------------------------------------------------
  core::RideThroughSpec ride;
  ride.node_average = Power{5.2e-6};  // 30 s cadence sits near the floor
  ride.gap = Duration{3.5 * 86400.0};  // a long dark weekend
  const auto q_needed = core::LifetimeAnalysis::required_capacity(ride, 1.2_V);
  std::cout << "\nstorage needed for a 3.5-day dark gap: " << si(q_needed)
            << " (" << fixed(q_needed.in(units::mAh), 2) << " mAh)\n"
            << "the stock 15 mAh NiMH covers it "
            << fixed(54.0 / q_needed.value(), 1) << "x over\n";

  // 3. ---- Wake-up radio trade ------------------------------------------------
  radio::WakeupDutyAnalysis::Inputs wu;
  wu.sleep_floor = Power{4.8e-6};
  wu.cycle_energy = Energy{12e-6};
  radio::WakeupDutyAnalysis duty{wu};
  std::cout << "\non-demand queries via wake-up radio (vs the 30 s beacon):\n"
            << "  listen-power budget to break even at 10 queries/h: "
            << si(duty.required_listen_power(30_s, 10.0 / 3600.0)) << "\n"
            << "  (ref [16]-class 50 uW listeners lose; the later uW art wins)\n";

  // 4. ---- Week-long confirmation ----------------------------------------------
  core::PicoCubeNode node(cfg);
  {
    auto run_span = obs::span(telemetry.get(), "node.run");
    node.run(Duration{7 * 86400.0});
  }
  if (telemetry) node.publish_metrics(telemetry->metrics());
  const auto rep = node.report();
  rep.to_table("one simulated week on the wall").print(std::cout);

  const auto* soc = node.traces().find("soc");
  std::cout << "battery SoC by day:";
  for (int d = 0; d <= 7; ++d) {
    std::cout << " " << fixed(soc->at(Duration{d * 86400.0}) * 100.0, 1) << "%";
  }
  std::cout << "\n";

  const bool neutral = rep.soc_end >= rep.soc_start - 0.01;
  const auto life = core::LifetimeAnalysis::nimh_life(rep.average_power, Charge{54.0}, 1.2_V);
  std::cout << (neutral ? "energy-neutral: the wall powers the node indefinitely\n"
                        : "not neutral at this light level; lower the cadence\n")
            << "cell-limited service life: ~" << fixed(life.years(), 0)
            << " years (calendar fade, not cycling) — the 'decades' goal needs\n"
            << "the printed-electrolyte work of paper §7.2\n";
  if (telemetry) telemetry->finish();
  return 0;
}
