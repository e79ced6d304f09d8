// Integration tests: power trains, the energy accountant, and the full
// PicoCube node against the paper's headline behaviour.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/neutrality.hpp"
#include "core/node.hpp"
#include "core/powertrain.hpp"
#include "radio/receiver.hpp"

namespace pico::core {
namespace {

using namespace pico::literals;

// --- Power trains -----------------------------------------------------------

TEST(CotsTrain, QuiescentFloorMicrowatts) {
  CotsPowerTrain train;
  const double q = train.quiescent_power(1.25_V).value();
  // Charge pump snooze current dominates; a few uW at most.
  EXPECT_GT(q, 0.5e-6);
  EXPECT_LT(q, 4e-6);
}

TEST(CotsTrain, RadioGatingChangesDraw) {
  CotsPowerTrain train;
  RailLoads loads;
  loads.radio_rf = 4_mA;
  const double off = train.battery_current(1.25_V, loads).value();
  train.set_radio_powered(true);
  const double on = train.battery_current(1.25_V, loads).value();
  EXPECT_GT(on, off + 3e-3);  // the RF load only reaches the battery when gated on
}

TEST(CotsTrain, RailVoltages) {
  CotsPowerTrain train;
  train.set_radio_powered(true);
  RailLoads loads;
  EXPECT_NEAR(train.rail_voltage(RailId::kVddMcu, 1.25_V, loads).value(), 2.5, 1e-9);
  EXPECT_NEAR(train.rail_voltage(RailId::kVddRadioDigital, 1.25_V, loads).value(), 1.0,
              1e-9);
  EXPECT_NEAR(train.rail_voltage(RailId::kVddRadioRf, 1.25_V, loads).value(), 0.65, 0.01);
  train.set_radio_powered(false);
  EXPECT_DOUBLE_EQ(train.rail_voltage(RailId::kVddRadioRf, 1.25_V, loads).value(), 0.0);
}

TEST(IcTrain, RailVoltages) {
  IcPowerTrain train;
  RailLoads loads;
  loads.mcu_sensor = 100_uA;
  EXPECT_NEAR(train.rail_voltage(RailId::kVddMcu, 1.2_V, loads).value(), 2.1, 0.05);
  train.set_radio_powered(true);
  loads.radio_rf = 2_mA;
  EXPECT_NEAR(train.rail_voltage(RailId::kVddRadioRf, 1.2_V, loads).value(), 0.65, 0.02);
}

TEST(IcTrain, QuiescentReflectsMeasuredLeakage) {
  // §7.1: "the leakage current was approximately 6.5 uA" — the IC's idle
  // floor is *higher* than the COTS train's, which the paper attributes
  // partly to the pad ring.
  IcPowerTrain ic;
  CotsPowerTrain cots;
  EXPECT_GT(ic.quiescent_power(1.2_V).value(), cots.quiescent_power(1.2_V).value());
  EXPECT_NEAR(ic.quiescent_power(1.2_V).value(), 1.2 * 6.5e-6, 2.5e-6);
}

// --- Accountant ----------------------------------------------------------------

TEST(Accountant, IntegratesEnergyExactly) {
  sim::Simulator sim;
  storage::NiMhBattery battery;
  CotsPowerTrain train;
  sim::TraceSet traces;
  PowerAccountant acct(sim, battery, train, traces);
  const DeviceId dev = acct.add_device("load", RailId::kVddMcu);

  // 1 mA on the MCU rail for exactly 2 s.
  sim.schedule_at(1_s, [&] { acct.set_current(dev, 1_mA); });
  sim.schedule_at(3_s, [&] { acct.set_current(dev, 0_mA); });
  sim.run_until(10_s);
  acct.settle();

  // Device-level ledger: (2 * OCV) * 1 mA * 2 s (pump doubles the cell's
  // rest voltage, ~1.28 V at 80 % SoC).
  const double v_rail = 2.0 * battery.open_circuit_voltage().value();
  EXPECT_NEAR(acct.devices()[0].energy_j, v_rail * 1e-3 * 2.0, 0.1e-3);
  // Battery saw the doubled current plus quiescent for 10 s.
  EXPECT_GT(acct.battery_energy_out().value(), 5e-3);
  EXPECT_GT(acct.management_overhead().value(), 0.0);
}

TEST(Accountant, TraceRecordsProfile) {
  sim::Simulator sim;
  storage::NiMhBattery battery;
  CotsPowerTrain train;
  sim::TraceSet traces;
  PowerAccountant acct(sim, battery, train, traces);
  const DeviceId dev = acct.add_device("load", RailId::kVddMcu);
  sim.schedule_at(1_s, [&] { acct.set_current(dev, 2_mA); });
  sim.schedule_at(2_s, [&] { acct.set_current(dev, 0_mA); });
  sim.run_until(3_s);
  acct.settle();
  const auto* p = traces.find("p_node");
  ASSERT_NE(p, nullptr);
  EXPECT_GT(p->at(1.5_s), p->at(0.5_s) + 1e-3);  // visible burst
  EXPECT_LT(p->at(2.5_s), 1e-5);                  // back to the floor
}

TEST(Accountant, HarvestChargesBattery) {
  sim::Simulator sim;
  storage::NiMhBattery::Params bp;
  bp.initial_soc = 0.5;
  storage::NiMhBattery battery(bp);
  CotsPowerTrain train;
  sim::TraceSet traces;
  PowerAccountant acct(sim, battery, train, traces);
  acct.set_harvest_current(1_mA);
  sim.run_until(60_s);
  acct.settle();
  EXPECT_GT(battery.soc(), 0.5);
  EXPECT_GT(acct.harvested_energy_in().value(), 0.0);
}

// --- Full node -----------------------------------------------------------------

TEST(Node, AveragePowerNearSixMicrowatts) {
  // The headline: ~6 uW average for the TPMS application.
  NodeConfig cfg;
  cfg.drive = harvest::make_parked(600_s);
  PicoCubeNode node(cfg);
  node.run(120_s);
  const auto r = node.report();
  EXPECT_GT(r.average_power.value(), 4e-6);
  EXPECT_LT(r.average_power.value(), 8e-6);
  EXPECT_EQ(r.wake_cycles, 19u);  // 120 s / 6 s minus the boot offset
  EXPECT_EQ(r.frames_ok, r.wake_cycles);
}

TEST(Node, SleepFloorDominatedByManagement) {
  NodeConfig cfg;
  cfg.drive = harvest::make_parked(600_s);
  PicoCubeNode node(cfg);
  node.run(60_s);
  const auto r = node.report();
  // "dominated by quiescent losses from the power management circuitry":
  // the sleep floor is most of the average.
  EXPECT_GT(r.sleep_floor.value() / r.average_power.value(), 0.5);
  // And management overhead exceeds the radio's energy by far.
  double radio = 0.0;
  for (const auto& d : r.devices) {
    if (d.name.find("radio") != std::string::npos) radio += d.energy_j;
  }
  EXPECT_GT(r.management_overhead.value(), radio);
}

TEST(Node, WakeCycleNearFourteenMilliseconds) {
  NodeConfig cfg;
  cfg.drive = harvest::make_parked(600_s);
  PicoCubeNode node(cfg);
  node.run(30_s);
  const double cycle_ms = node.last_cycle_time().value() * 1e3;
  EXPECT_GT(cycle_ms, 9.0);
  EXPECT_LT(cycle_ms, 16.0);
}

TEST(Node, DeterministicReplay) {
  auto run_once = [] {
    NodeConfig cfg;
    cfg.drive = harvest::make_city_cycle();
    cfg.attach_harvester = true;
    PicoCubeNode node(cfg);
    node.run(60_s);
    return node.report();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.average_power.value(), b.average_power.value());
  EXPECT_EQ(a.wake_cycles, b.wake_cycles);
  EXPECT_DOUBLE_EQ(a.soc_end, b.soc_end);
}

TEST(Node, HarvesterChargesOnHighway) {
  NodeConfig cfg;
  cfg.drive = harvest::make_highway_cycle();
  cfg.attach_harvester = true;
  cfg.battery_initial_soc = 0.5;
  PicoCubeNode node(cfg);
  node.run(300_s);
  const auto r = node.report();
  EXPECT_GT(r.harvested_energy_in.value(), r.battery_energy_out.value());
  EXPECT_GT(r.soc_end, r.soc_start);
}

TEST(Node, ParkedNodeDrainsSlowly) {
  NodeConfig cfg;
  cfg.drive = harvest::make_parked(3600_s);
  cfg.attach_harvester = true;
  PicoCubeNode node(cfg);
  node.run(600_s);
  const auto r = node.report();
  EXPECT_NEAR(r.harvested_energy_in.value(), 0.0, 1e-9);
  EXPECT_LT(r.soc_end, r.soc_start);  // slow battery drain
  // Very slow: load (~6.5 uW) plus 1 %/day self-discharge over 600 s.
  EXPECT_GT(r.soc_end, r.soc_start - 2e-4);
}

TEST(Node, EndToEndPacketsDecode) {
  NodeConfig cfg;
  cfg.drive = harvest::make_city_cycle();
  PicoCubeNode node(cfg);
  radio::SuperregenReceiver rx{radio::Channel{radio::PatchAntenna{}}};
  int decoded = 0;
  sensors::TpmsSample last{};
  node.set_frame_listener([&](const radio::RfFrame& f) {
    const auto r = rx.receive(f);
    if (r.packet.has_value()) {
      ++decoded;
      const auto payload = radio::decode_tpms_payload(r.packet->payload);
      ASSERT_TRUE(payload.has_value());
      last = *payload;
    }
  });
  node.run(61_s);
  EXPECT_EQ(decoded, 10);
  // The decoded telemetry is physical: tire pressure in the 200-260 kPa
  // band, temperature near ambient.
  EXPECT_GT(last.pressure.value(), 180e3);
  EXPECT_LT(last.pressure.value(), 280e3);
  EXPECT_GT(last.temperature.value(), 280.0);
  EXPECT_LT(last.temperature.value(), 330.0);
}

TEST(Node, MotionDemoWakesOnlyWhenHandled) {
  NodeConfig cfg;
  cfg.sensor = NodeConfig::Sensor::kAccelerometer;
  PicoCubeNode node(cfg);
  node.run(9_s);  // before the first pickup
  EXPECT_EQ(node.wake_cycles(), 0u);
  node.run(60_s);
  EXPECT_GT(node.wake_cycles(), 5u);
  EXPECT_EQ(node.frames_ok(), node.wake_cycles());
}

TEST(Node, OscillatorFaultsAreCountedNotFatal) {
  NodeConfig cfg;
  cfg.drive = harvest::make_parked(600_s);
  cfg.oscillator_failure_prob = 1.0;
  PicoCubeNode node(cfg);
  node.run(31_s);
  EXPECT_EQ(node.frames_ok(), 0u);
  EXPECT_EQ(node.frames_failed(), node.wake_cycles());
  EXPECT_GT(node.wake_cycles(), 3u);  // the node keeps cycling
}

TEST(Node, IcVersionRuns) {
  NodeConfig cfg;
  cfg.power = NodeConfig::PowerVersion::kIc;
  cfg.drive = harvest::make_parked(600_s);
  PicoCubeNode node(cfg);
  node.run(60_s);
  const auto r = node.report();
  EXPECT_EQ(r.power_train, "power IC (v2)");
  EXPECT_GT(r.frames_ok, 0u);
  // The IC's pad-ring leakage makes it idle hotter than v1 (paper §7.1).
  EXPECT_GT(r.average_power.value(), 8e-6);
}

TEST(Node, CircuitAdaptiveIcEnergiesPinned) {
  // The IC node with its rectifier simulated as a netlist under adaptive
  // transient stepping (the repo benchmark's node_circuit_adaptive, cut to
  // 20 sim-s). The energies are pinned as bit patterns: solver caching must
  // never move a waveform, so any change here is a real behaviour change.
  NodeConfig cfg;
  cfg.drive = harvest::make_city_cycle();
  cfg.attach_harvester = true;
  cfg.oscillator_failure_prob = 0.05;
  cfg.seed = 2008;
  cfg.power = NodeConfig::PowerVersion::kIc;
  cfg.harvest_fidelity = NodeConfig::HarvestFidelity::kCircuitAdaptive;
  PicoCubeNode node(cfg);
  node.run(20_s);
  const auto r = node.report();
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(r.battery_energy_out.value()), 0x3f2efb694ff24bf7ull);
  EXPECT_EQ(bits(r.harvested_energy_in.value()), 0x3f8cf88b1b32522cull);
  EXPECT_EQ(bits(r.management_overhead.value()), 0x3f2806c04d141cddull);
  EXPECT_EQ(bits(r.soc_end), 0x3fe99b3ac3423fafull);
  EXPECT_EQ(r.wake_cycles, 3u);
}

TEST(Node, SampleIntervalScalesPower) {
  auto avg_at = [](double interval) {
    NodeConfig cfg;
    cfg.drive = harvest::make_parked(600_s);
    cfg.sample_interval = Duration{interval};
    PicoCubeNode node(cfg);
    node.run(Duration{std::max(20.0 * interval, 60.0)});
    return node.report().average_power.value();
  };
  const double fast = avg_at(1.0);
  const double slow = avg_at(30.0);
  EXPECT_GT(fast, slow);
  // The slow limit approaches the sleep floor.
  EXPECT_LT(slow, 6e-6);
}

TEST(Node, ReportTableRenders) {
  NodeConfig cfg;
  cfg.drive = harvest::make_parked(60_s);
  PicoCubeNode node(cfg);
  node.run(30_s);
  const auto table = node.report().to_table("node").str();
  EXPECT_NE(table.find("average node power"), std::string::npos);
  EXPECT_NE(table.find("MSP430"), std::string::npos);
}

// --- Neutrality -----------------------------------------------------------------

TEST(Neutrality, HighwayIsNeutralParkedIsNot) {
  NodeConfig cfg;
  cfg.drive = harvest::make_highway_cycle();
  const auto highway = NeutralityAnalysis::balance(cfg, 60_s);
  EXPECT_TRUE(highway.neutral);
  EXPECT_GT(highway.harvest.value(), 1e-6);

  NodeConfig parked = cfg;
  parked.drive = harvest::make_parked(600_s);
  const auto p = NeutralityAnalysis::balance(parked, 60_s);
  EXPECT_FALSE(p.neutral);
  EXPECT_NEAR(p.harvest.value(), 0.0, 1e-9);
}

TEST(Neutrality, SustainableIntervalOnCityCycle) {
  NodeConfig cfg;
  cfg.drive = harvest::make_city_cycle();
  const auto interval = NeutralityAnalysis::sustainable_interval(cfg, 0.5_s, 60_s);
  // City driving harvests enough for (at least) the paper's 6 s cadence.
  EXPECT_GT(interval.value(), 0.0);
  EXPECT_LE(interval.value(), 6.0);
}

}  // namespace
}  // namespace pico::core
