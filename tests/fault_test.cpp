// Unit tests for the fault subsystem: the FaultPlan spec codec and
// validation, and the FaultInjector's window composition semantics on a
// bare simulator (the node-level behavior is covered by
// fault_scenario_test and fault_replay_test).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "sim/simulator.hpp"

namespace pico {
namespace {

TEST(FaultPlan, BuildersValidateEagerly) {
  fault::FaultPlan plan;
  EXPECT_THROW(plan.harvester_derate(0.0, 10.0, 1.5), DesignError);   // factor > 1
  EXPECT_THROW(plan.harvester_derate(0.0, 0.0, 0.5), DesignError);    // empty window
  EXPECT_THROW(plan.storage_aging(0.0, 0.0, 1.0, 1.0), DesignError);  // capacity 0
  EXPECT_THROW(plan.storage_aging(0.0, 0.5, 0.5, 1.0), DesignError);  // R mult < 1
  EXPECT_THROW(plan.converter_degradation(0.0, 5.0, 0.0), DesignError);
  EXPECT_THROW(plan.channel_loss(0.0, 5.0, 1.5), DesignError);
  EXPECT_THROW(plan.supply_glitch(0.0, 5.0, -1e-3), DesignError);
  EXPECT_THROW(plan.harvester_dropout(-1.0, 5.0), DesignError);  // negative start
  EXPECT_TRUE(plan.empty());  // nothing slipped through
}

TEST(FaultPlan, SpecRoundTripIsExact) {
  fault::FaultPlan plan;
  plan.harvester_dropout(20.0, 15.0)
      .harvester_derate(1.0 / 3.0, 0.1, 0.123456789012345678)
      .storage_aging(40.0, 0.5, 4.0, 3.0)
      .converter_degradation(30.0, 60.0, 0.7)
      .channel_loss(10.0, 100.0, 0.7)
      .supply_glitch(45.0, 0.5, 2e-3);
  const std::string spec = plan.to_spec();
  const fault::FaultPlan back = fault::FaultPlan::parse(spec);
  EXPECT_EQ(plan, back);               // bit-identical doubles
  EXPECT_EQ(spec, back.to_spec());     // idempotent
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  EXPECT_EQ(fault::FaultPlan{}.to_spec(), "");
  EXPECT_TRUE(fault::FaultPlan::parse("").empty());
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(fault::FaultPlan::parse("bogus@1=0.5"), DesignError);
  EXPECT_THROW(fault::FaultPlan::parse("hderate@abc=0.5"), DesignError);
  EXPECT_THROW(fault::FaultPlan::parse("hderate@1~10"), DesignError);      // no magnitude
  EXPECT_THROW(fault::FaultPlan::parse("hderate@1~10=2.0"), DesignError);  // out of range
  EXPECT_THROW(fault::FaultPlan::parse("hderate@1~10=0.5,"), DesignError);
}

TEST(FaultPlan, RandomizedIsDeterministicInTheStream) {
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  const auto p1 = fault::FaultPlan::randomized(a, Duration{120.0});
  const auto p2 = fault::FaultPlan::randomized(b, Duration{120.0});
  EXPECT_EQ(p1, p2);
  EXPECT_FALSE(p1.empty());
  // Every generated event validates and the plan survives the codec.
  for (const auto& ev : p1.events()) ev.validate();
  EXPECT_EQ(fault::FaultPlan::parse(p1.to_spec()), p1);
}

// Injector harness recording every hook invocation.
struct HookLog {
  std::vector<double> harvest;
  std::vector<double> converter;
  std::vector<double> loss;
  std::vector<double> glitch;
  int agings = 0;

  fault::FaultHooks hooks() {
    fault::FaultHooks h;
    h.set_harvest_derate = [this](double f) { harvest.push_back(f); };
    h.set_converter_derate = [this](double m) { converter.push_back(m); };
    h.set_frame_loss = [this](double p) { loss.push_back(p); };
    h.set_glitch_load = [this](double a) { glitch.push_back(a); };
    h.age_storage = [this](double, double, double) { ++agings; };
    return h;
  }
};

TEST(FaultInjector, OverlappingDeratesMultiplyAndRestore) {
  sim::Simulator sim;
  fault::FaultPlan plan;
  plan.harvester_derate(1.0, 10.0, 0.5).harvester_derate(5.0, 2.0, 0.4);
  HookLog log;
  fault::FaultInjector inj(sim, plan, log.hooks());
  inj.arm();
  sim.run_until(Duration{20.0});
  // open(0.5) -> open(0.4): 0.5*0.4 -> close(0.4): 0.5 -> close: 1.0
  ASSERT_EQ(log.harvest.size(), 4u);
  EXPECT_DOUBLE_EQ(log.harvest[0], 0.5);
  EXPECT_DOUBLE_EQ(log.harvest[1], 0.2);
  EXPECT_DOUBLE_EQ(log.harvest[2], 0.5);
  EXPECT_DOUBLE_EQ(log.harvest[3], 1.0);
}

TEST(FaultInjector, LossCombinesAndGlitchesAdd) {
  sim::Simulator sim;
  fault::FaultPlan plan;
  plan.channel_loss(1.0, 10.0, 0.5)
      .channel_loss(2.0, 4.0, 0.2)
      .supply_glitch(1.0, 10.0, 1e-3)
      .supply_glitch(2.0, 4.0, 2e-3);
  HookLog log;
  fault::FaultInjector inj(sim, plan, log.hooks());
  inj.arm();
  sim.run_until(Duration{20.0});
  ASSERT_EQ(log.loss.size(), 4u);
  EXPECT_DOUBLE_EQ(log.loss[1], 1.0 - 0.5 * 0.8);  // 1 - (1-p1)(1-p2)
  EXPECT_DOUBLE_EQ(log.loss[3], 0.0);
  ASSERT_EQ(log.glitch.size(), 4u);
  EXPECT_DOUBLE_EQ(log.glitch[1], 3e-3);
  EXPECT_DOUBLE_EQ(log.glitch[3], 0.0);
}

TEST(FaultInjector, ConverterDerateIsInverseEfficiency) {
  sim::Simulator sim;
  fault::FaultPlan plan;
  plan.converter_degradation(1.0, 5.0, 0.5).converter_degradation(2.0, 2.0, 0.8);
  HookLog log;
  fault::FaultInjector inj(sim, plan, log.hooks());
  inj.arm();
  sim.run_until(Duration{10.0});
  ASSERT_EQ(log.converter.size(), 4u);
  EXPECT_DOUBLE_EQ(log.converter[0], 2.0);
  EXPECT_DOUBLE_EQ(log.converter[1], 1.0 / (0.5 * 0.8));
  EXPECT_DOUBLE_EQ(log.converter[3], 1.0);
}

TEST(FaultInjector, PermanentEventsNeverClose) {
  sim::Simulator sim;
  fault::FaultPlan plan;
  plan.converter_degradation(1.0, 0.0, 0.9);  // duration <= 0: permanent
  plan.storage_aging(2.0, 0.8, 1.5, 2.0);
  HookLog log;
  fault::FaultInjector inj(sim, plan, log.hooks());
  inj.arm();
  sim.run_until(Duration{100.0});
  EXPECT_EQ(log.converter.size(), 1u);
  EXPECT_EQ(log.agings, 1);
  EXPECT_EQ(inj.counters().events_fired, 2u);
  EXPECT_EQ(inj.counters().windows_closed, 0u);
}

TEST(FaultInjector, CountersAndLabels) {
  sim::Simulator sim;
  fault::FaultPlan plan;
  plan.harvester_dropout(1.0, 2.0).channel_loss(3.0, 1.0, 0.5).supply_glitch(4.0, 1.0, 1e-3);
  HookLog log;
  fault::FaultInjector inj(sim, plan, log.hooks());
  inj.arm();
  inj.arm();  // idempotent: second call must not double-schedule
  sim.run_until(Duration{10.0});
  const auto& c = inj.counters();
  EXPECT_EQ(c.events_armed, 3u);
  EXPECT_EQ(c.events_fired, 3u);
  EXPECT_EQ(c.windows_closed, 3u);
  EXPECT_EQ(c.harvest_derates, 1u);
  EXPECT_EQ(c.channel_loss_windows, 1u);
  EXPECT_EQ(c.supply_glitches, 1u);
  // Events land in the simulator's label ledger for the run manifest.
  EXPECT_EQ(sim.label_counts().at("fault.hderate"), 1u);
  EXPECT_EQ(sim.label_counts().at("fault.hderate.end"), 1u);
}

TEST(FaultInjector, RejectsEventsInThePast) {
  sim::Simulator sim;
  sim.schedule_at(Duration{5.0}, [] {});
  sim.run_until(Duration{6.0});
  fault::FaultPlan plan;
  plan.harvester_dropout(1.0, 2.0);  // at t=1, but sim.now() is already 6
  HookLog log;
  fault::FaultInjector inj(sim, plan, log.hooks());
  EXPECT_THROW(inj.arm(), DesignError);
}

}  // namespace
}  // namespace pico
