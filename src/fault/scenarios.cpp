#include "fault/scenarios.hpp"

#include "common/error.hpp"

namespace pico::fault {

namespace {

core::NodeConfig harvested_base(double initial_soc) {
  core::NodeConfig cfg;
  cfg.sensor = core::NodeConfig::Sensor::kTpms;
  cfg.drive = harvest::make_city_cycle();
  cfg.attach_harvester = true;
  cfg.battery_initial_soc = initial_soc;
  return cfg;
}

Scenario tire_stop_and_go() {
  Scenario s;
  s.name = "tire_stop_and_go";
  s.summary =
      "City traffic: the wheel stops at lights (harvester dropouts), "
      "spins down between them (amplitude derating), with one supply "
      "glitch landing mid-run.";
  s.config = harvested_base(0.5);
  s.config.seed = 1001;
  s.config.faults.harvester_dropout(20.0, 15.0)
      .harvester_derate(60.0, 20.0, 0.35)
      .supply_glitch(45.0, 0.5, 2e-3)
      .harvester_dropout(100.0, 10.0);
  s.sim_time = Duration{180.0};
  return s;
}

Scenario cold_soak_nimh() {
  Scenario s;
  s.name = "cold_soak_nimh";
  s.summary =
      "Cold morning on a nearly-flat cell: the NiMH plateau collapses "
      "(capacity fade, internal-resistance drift), the harvester is weak, "
      "and a sustained glitch load drains the last coulombs — the brownout "
      "path must trip exactly once and the node must go quiet cleanly.";
  s.config = harvested_base(0.03);
  s.config.seed = 1002;
  s.config.faults.storage_aging(0.0, 0.5, 4.0, 3.0)
      .harvester_derate(0.0, 180.0, 0.5)
      .supply_glitch(30.0, 150.0, 15e-3);
  s.sim_time = Duration{180.0};
  s.expect_brownout = true;
  return s;
}

Scenario dying_supercap() {
  Scenario s;
  s.name = "dying_supercap";
  s.summary =
      "A dying storage buffer: mid-run the cell degrades to supercap-class "
      "leakage (self-discharge x20000, ~0.2 %/s) with capacity fade and "
      "resistance drift, so stored energy bleeds away between harvest "
      "pulses until the node browns out.";
  s.config = harvested_base(0.15);
  s.config.seed = 1003;
  s.config.faults.storage_aging(40.0, 0.8, 2.0, 20000.0).harvester_derate(40.0, 260.0, 0.2);
  s.sim_time = Duration{300.0};
  s.expect_brownout = true;
  return s;
}

Scenario lossy_channel() {
  Scenario s;
  s.name = "lossy_channel";
  s.summary =
      "Deep channel fade: 70 % of frames are lost on air for 100 s (TX "
      "energy is still spent) while the converter runs degraded — the "
      "energy ledger must stay balanced and the firmware must keep "
      "cycling.";
  s.config = harvested_base(0.5);
  s.config.seed = 1004;
  s.config.faults.channel_loss(10.0, 100.0, 0.7).converter_degradation(30.0, 60.0, 0.7);
  s.sim_time = Duration{180.0};
  return s;
}

Scenario lossy_channel_arq() {
  Scenario s;
  s.name = "lossy_channel_arq";
  s.summary =
      "The lossy_channel fade run with the ARQ link closed: the node's "
      "wake-up receiver doubles as an ACK detector and every faded frame "
      "costs retries and backoff instead of silent loss — the retry "
      "energy must stay on the ledger and delivery must recover.";
  s.config = harvested_base(0.5);
  s.config.seed = 1005;
  s.config.faults.channel_loss(10.0, 100.0, 0.7).converter_degradation(30.0, 60.0, 0.7);
  s.config.link.mode = core::NodeConfig::Link::Mode::kArq;
  s.config.link.own_base_station = true;
  s.sim_time = Duration{180.0};
  return s;
}

}  // namespace

std::vector<Scenario> scenario_library() {
  return {tire_stop_and_go(), cold_soak_nimh(), dying_supercap(), lossy_channel(),
          lossy_channel_arq()};
}

Scenario make_scenario(const std::string& name) {
  for (Scenario& s : scenario_library()) {
    if (s.name == name) return std::move(s);
  }
  throw DesignError("unknown fault scenario '" + name + "'");
}

Scenario with_fidelity(Scenario s, core::NodeConfig::HarvestFidelity f) {
  s.config.harvest_fidelity = f;
  return s;
}

}  // namespace pico::fault
