// Scenario soak harness: every named adversarial scenario from the fault
// library runs to completion under both harvest fidelities (behavioral
// sampling and the MNA rectifier netlist under the adaptive engine), and
// every run must satisfy the graceful-degradation invariants:
//
//   - no energy creation: the store never gains more than harvest-in
//     minus load-out (aging and self-discharge only destroy energy);
//   - state of charge stays within [0, 1] and stored energy stays finite
//     and non-negative;
//   - recorded waveforms contain no NaN/Inf samples;
//   - scenarios engineered to kill the node trip the brownout latch
//     exactly once and then go quiet; the others keep beaconing;
//   - fault.* counters match the plan that was injected.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/node.hpp"
#include "fault/scenarios.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace pico {
namespace {

struct SoakResult {
  core::NodeReport report;
  double stored_start_j = 0.0;
  double stored_end_j = 0.0;
  std::uint64_t brownouts = 0;
  std::uint64_t frames_lost = 0;
  fault::FaultInjector::Counters fault_counters;
  std::uint64_t wakes_at_brownout_check = 0;  // wake count at 2/3 of the run
};

SoakResult soak(const fault::Scenario& s) {
  SoakResult out;
  core::PicoCubeNode node(s.config);
  out.stored_start_j = node.battery().stored_energy().value();
  // Pause mid-run so "goes quiet after brownout" is observable.
  node.run(Duration{s.sim_time.value() * 2.0 / 3.0});
  out.wakes_at_brownout_check = node.wake_cycles();
  node.run(s.sim_time);
  out.stored_end_j = node.battery().stored_energy().value();
  out.report = node.report();
  out.brownouts = node.accountant().brownout_events();
  out.frames_lost = node.transmitter().frames_lost();
  if (const auto* inj = node.fault_injector()) out.fault_counters = inj->counters();

  // Waveform sanity: every recorded channel sample must be finite.
  for (const auto& name : {"soc", "v_batt", "p_node", "i_harvest"}) {
    const auto& ch = node.traces().channel(name);
    for (std::size_t k = 0; k < ch.size(); ++k) {
      EXPECT_TRUE(std::isfinite(ch.values()[k])) << name << " @ " << ch.times()[k];
    }
  }
  return out;
}

void check_invariants(const fault::Scenario& s, const SoakResult& r) {
  SCOPED_TRACE(s.name);
  const core::NodeReport& rep = r.report;

  // State of charge and stored energy stay physical.
  EXPECT_GE(rep.soc_end, 0.0);
  EXPECT_LE(rep.soc_end, 1.0);
  EXPECT_GE(r.stored_end_j, 0.0);
  EXPECT_TRUE(std::isfinite(r.stored_end_j));

  // One-sided energy conservation: the store cannot gain more than the
  // ledger's net input (losses — self-discharge, aging, I^2R — are not
  // individually metered, so only the creation direction is exact).
  const double in = rep.harvested_energy_in.value();
  const double out = rep.battery_energy_out.value();
  const double delta = r.stored_end_j - r.stored_start_j;
  const double tol = 1e-6 + 1e-3 * (in + out);
  EXPECT_LE(delta, in - out + tol) << "in=" << in << " out=" << out;

  // Brownout expectation: the latch fires exactly once or never.
  if (s.expect_brownout) {
    EXPECT_EQ(r.brownouts, 1u);
    // Graceful shutdown: the node stopped waking after the latch fired.
    EXPECT_EQ(rep.wake_cycles, r.wakes_at_brownout_check);
  } else {
    EXPECT_EQ(r.brownouts, 0u);
    EXPECT_GT(rep.frames_ok, 0u);
    // Still alive in the last third of the run.
    EXPECT_GT(rep.wake_cycles, r.wakes_at_brownout_check);
    // Management stays a tax, never a source.
    EXPECT_GE(rep.management_overhead.value(), -1e-9);
  }

  // The injector fired every scheduled open edge that lies inside the run.
  std::uint64_t expected_fired = 0;
  for (const auto& ev : s.config.faults.events()) {
    if (ev.at_s <= s.sim_time.value()) ++expected_fired;
  }
  EXPECT_EQ(r.fault_counters.events_fired, expected_fired);
  EXPECT_EQ(r.fault_counters.events_armed, s.config.faults.size());
}

class FaultScenarioSoak
    : public ::testing::TestWithParam<core::NodeConfig::HarvestFidelity> {};

TEST_P(FaultScenarioSoak, AllScenariosHoldInvariants) {
  for (const fault::Scenario& base : fault::scenario_library()) {
    const fault::Scenario s = fault::with_fidelity(base, GetParam());
    check_invariants(s, soak(s));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fidelity, FaultScenarioSoak,
    ::testing::Values(core::NodeConfig::HarvestFidelity::kBehavioral,
                      core::NodeConfig::HarvestFidelity::kCircuitAdaptive),
    [](const auto& param_info) {
      return param_info.param == core::NodeConfig::HarvestFidelity::kBehavioral
                 ? "Behavioral"
                 : "CircuitAdaptive";
    });

TEST(FaultScenario, LossyChannelFadesFramesButKeepsLedgerBalanced) {
  const fault::Scenario s = fault::make_scenario("lossy_channel");
  const SoakResult r = soak(s);
  // Frames faded on air show up as failed cycles and lost frames — the
  // TX energy was still spent (the PA doesn't know the channel faded).
  EXPECT_GT(r.frames_lost, 0u);
  EXPECT_EQ(r.report.frames_failed, r.frames_lost);
  EXPECT_GT(r.report.frames_ok, 0u);
}

TEST(FaultScenario, LossyChannelArqRetriesRecoverDelivery) {
  const fault::Scenario s = fault::make_scenario("lossy_channel_arq");
  core::PicoCubeNode node(s.config);
  node.run(s.sim_time);
  ASSERT_NE(node.link_layer(), nullptr);
  ASSERT_NE(node.base_station(), nullptr);
  const auto& link = node.link_layer()->counters();
  const auto& bs = node.base_station()->counters();
  // The fade forced retries, and the retries recovered deliveries the
  // fire-and-forget link would have lost outright.
  EXPECT_GT(link.retries, 0u);
  EXPECT_GT(link.acked, 0u);
  EXPECT_GT(bs.delivered, 0u);
  EXPECT_GE(link.tx_attempts, link.acked + link.failed);
  // A faded frame never reaches the station: frames the station saw
  // complete is attempts minus the transmitter's lost count.
  EXPECT_EQ(bs.frames_completed,
            link.tx_attempts - node.transmitter().frames_lost());
  // Node-level success mirrors the ARQ outcome, not the PA finishing.
  EXPECT_EQ(node.frames_ok(), link.acked);
  EXPECT_EQ(node.frames_failed(), link.failed);
  // The ACK-listen windows were billed: the wake-up device shows energy.
  bool wakeup_billed = false;
  for (const auto& d : node.accountant().devices()) {
    if (d.name.find("wake-up") != std::string::npos) {
      wakeup_billed = d.energy_j > 0.0;
    }
  }
  EXPECT_TRUE(wakeup_billed);
}

TEST(FaultScenario, FlightRecorderCapturesArqGiveUpsAndFaultOpens) {
  // The scalar node's flight taps: every ARQ give-up lands in ring 0 with
  // the attempt count, and every fault-window open is recorded by the
  // injector — so a post-mortem dump shows *which* frames died and *when*
  // the fade opened, not just the final failure total.
  const fault::Scenario s = fault::make_scenario("lossy_channel_arq");
  core::PicoCubeNode node(s.config);
  obs::FlightRecorder flight;
  node.attach_flight(&flight, 42);
  node.run(s.sim_time);
  ASSERT_NE(node.link_layer(), nullptr);
  const auto& link = node.link_layer()->counters();
  ASSERT_GT(link.failed, 0u);  // the 70 % fade defeats 4 attempts sometimes

  std::uint64_t exhausted = 0, fault_opens = 0;
  for (const auto& e : flight.merged()) {
    if (e.ev.kind == obs::FlightEventKind::kArqExhausted) {
      ++exhausted;
      EXPECT_EQ(e.ev.a, 42u);  // tagged with the node id we attached
      EXPECT_EQ(e.ev.b, 4u);   // first attempt + max_retries(3)
    } else if (e.ev.kind == obs::FlightEventKind::kFaultActive) {
      ++fault_opens;
    }
  }
  EXPECT_EQ(exhausted, link.failed);
  ASSERT_NE(node.fault_injector(), nullptr);
  EXPECT_EQ(fault_opens, node.fault_injector()->counters().events_fired);
  EXPECT_EQ(fault_opens, 2u);  // channel fade + converter degradation
}

TEST(FaultScenario, FlightRecorderCapturesBrownout) {
  const fault::Scenario s = fault::make_scenario("cold_soak_nimh");
  core::PicoCubeNode node(s.config);
  obs::FlightRecorder flight;
  node.attach_flight(&flight, 7);
  node.run(s.sim_time);
  ASSERT_TRUE(node.accountant().battery_died());

  std::uint64_t brownouts = 0;
  double t_brown = -1.0;
  for (const auto& e : flight.merged()) {
    if (e.ev.kind == obs::FlightEventKind::kBrownout) {
      ++brownouts;
      t_brown = e.ev.t_s;
      EXPECT_EQ(e.ev.a, 7u);
      EXPECT_GT(e.ev.v, 0.0);  // deficit: the drained store covered out - in
    }
  }
  EXPECT_EQ(brownouts, node.accountant().brownout_events());
  EXPECT_EQ(brownouts, 1u);  // the latch fires exactly once
  EXPECT_GT(t_brown, 0.0);
  EXPECT_LE(t_brown, s.sim_time.value());
}

TEST(FaultScenario, ColdSoakBrownoutDropsGlitchLoad) {
  const fault::Scenario s = fault::make_scenario("cold_soak_nimh");
  core::PicoCubeNode node(s.config);
  node.run(s.sim_time);
  ASSERT_TRUE(node.accountant().battery_died());
  // The glitch load cannot outlive the rail it shorted: after brownout
  // every rail load (including "fault glitch") is zero.
  for (const auto& d : node.accountant().devices()) {
    EXPECT_DOUBLE_EQ(d.current.value(), 0.0) << d.name;
  }
}

TEST(FaultScenario, LibraryNamesAreStableAndLookupsWork) {
  const auto library = fault::scenario_library();
  ASSERT_EQ(library.size(), 5u);
  EXPECT_EQ(library[0].name, "tire_stop_and_go");
  EXPECT_EQ(library[1].name, "cold_soak_nimh");
  EXPECT_EQ(library[2].name, "dying_supercap");
  EXPECT_EQ(library[3].name, "lossy_channel");
  EXPECT_EQ(library[4].name, "lossy_channel_arq");
  for (const auto& s : library) {
    EXPECT_EQ(fault::make_scenario(s.name).name, s.name);
    EXPECT_FALSE(fault::make_scenario(s.name).config.faults.empty());
  }
  EXPECT_THROW(fault::make_scenario("no_such_scenario"), DesignError);
}

TEST(FaultScenario, MetricsCarryFaultCounters) {
  const fault::Scenario s = fault::make_scenario("tire_stop_and_go");
  core::PicoCubeNode node(s.config);
  node.run(s.sim_time);
  obs::MetricsRegistry m;
  node.publish_metrics(m);
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.value("fault.events_armed"),
            static_cast<double>(s.config.faults.size()));
  EXPECT_GT(snap.value("fault.events_fired"), 0.0);
  EXPECT_GT(snap.value("fault.harvest_derates"), 0.0);
  EXPECT_EQ(snap.value("fault.supply_glitches"), 1.0);
}

}  // namespace
}  // namespace pico
